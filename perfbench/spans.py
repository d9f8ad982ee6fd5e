"""In-memory spans around the public entry points of each csoslab layer.

The tracer replaces a layer function with a wrapper in every csoslab
module that imported it by name (for example `theta` as seen from
`elliptic`, `bethe`, `scalar` and `thermo`), so calls made from inside the
package are recorded as well as calls made by the benchmark.  Nothing in
`src/` is edited; `Tracer.uninstall` puts the original objects back.

A span is [name, start, end, parent index, extra]; `extra` holds a count
read from the arguments or the result (points evaluated, bytes passed in,
Newton iterations).  Self time is a span's duration minus the durations of
its direct children, which in this single-threaded program are disjoint
sub-intervals of the parent.
"""

import gzip
import json
import sys
import time

import numpy as np


def _size_of(pos, key):
    def extra(args, kwargs, _out):
        arg = args[pos] if len(args) > pos else kwargs[key]
        return int(np.size(arg))
    return extra


def _state_bytes(args, kwargs, _out):
    state = args[2] if len(args) > 2 else kwargs["state"]
    return int(state.amps.nbytes)


def _solve_result(_args, _kwargs, out):
    key = (out.k, out.ell, out.config.N, out.config.xi,
           complex(out.params.tau), complex(out.params.s0))
    return (int(out.newton_iters), key)


def _list_length(_args, _kwargs, out):
    return len(out)


# span name -> (module, function, extra recorder)
LAYER_FUNCTIONS = {
    "elliptic.theta": ("elliptic", "theta", _size_of(1, "z")),
    "elliptic.theta_log": ("elliptic", "theta_log", None),
    "lattice.monodromy_apply": ("lattice", "monodromy_entry_apply",
                                _state_bytes),
    "lattice.monodromy_dense": ("lattice", "monodromy_entry_dense", None),
    "bethe.solve": ("bethe", "solve_ground_state", _solve_result),
    "bethe.log_residual": ("bethe", "log_bethe_residual", None),
    "scalar.norm_det": ("scalar", "norm_det", None),
    "scalar.gaudin_matrix": ("scalar", "gaudin_matrix", None),
    "matel.mpme_det": ("matel", "mpme_det", None),
    "matel.mpme_bruteforce": ("matel", "mpme_bruteforce", None),
    "matel.calibrate_norm_signs": ("matel", "calibrate_norm_signs", None),
    "matel.flat_matrix_element": ("matel", "flat_matrix_element", None),
    "matel.enumerate_tuples": ("matel", "enumerate_tuples", _list_length),
    "thermo.multipoint_lhp": ("thermo", "multipoint_lhp", None),
    "thermo.one_point_barP": ("thermo", "one_point_barP", _size_of(1, "Z")),
    "cli.command": ("cli", ("cmd_lhp", "cmd_converge"), None),
}

# per-layer metric -> unit; every traced run reports all of them
LAYER_METRICS = {
    "elliptic.theta.calls": "count",
    "elliptic.theta.points": "count",
    "elliptic.theta.self_s": "s",
    "elliptic.theta_log.calls": "count",
    "elliptic.theta_log.self_s": "s",
    "lattice.monodromy_apply.calls": "count",
    "lattice.monodromy_apply.self_s": "s",
    "lattice.monodromy_dense.calls": "count",
    "lattice.monodromy_dense.self_s": "s",
    "lattice.state_bytes": "B",
    "bethe.solve.calls": "count",
    "bethe.cache_hits": "count",
    "bethe.ground_states": "count",
    "bethe.solve.self_s": "s",
    "bethe.newton_iters": "count",
    "bethe.log_residual.calls": "count",
    "scalar.norm_det.calls": "count",
    "scalar.norm_det.self_s": "s",
    "scalar.gaudin_matrix.calls": "count",
    "matel.mpme_det.calls": "count",
    "matel.mpme_det.self_s": "s",
    "matel.mpme_bruteforce.calls": "count",
    "matel.mpme_bruteforce.self_s": "s",
    "matel.calibrate_norm_signs.self_s": "s",
    "matel.flat_matrix_element.self_s": "s",
    "matel.tuples": "count",
    "matel.dense_fallbacks": "count",
    "thermo.multipoint_lhp.calls": "count",
    "thermo.multipoint_lhp.self_s": "s",
    "thermo.one_point_barP.calls": "count",
    "thermo.one_point_barP.points": "count",
    "thermo.one_point_barP.self_s": "s",
    "cli.command.self_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []      # (module, attribute, original)

    def _wrapper(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "csoslab" or name.startswith("csoslab.")]
        for span_name, (mod_name, attrs, extra) in LAYER_FUNCTIONS.items():
            home = sys.modules[f"csoslab.{mod_name}"]
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                original = getattr(home, attr)
                wrapped = self._wrapper(span_name, original, extra)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def mark(self):
        """Index of the next span; rounds are span ranges between marks."""
        return len(self.spans)

    def layer_metrics(self, first, last, wall_s, output_bytes):
        """Per-layer metrics over spans[first:last] (one round)."""
        spans = self.spans
        names = [spans[i][0] for i in range(first, last)]
        dur = np.array([spans[i][2] - spans[i][1]
                        for i in range(first, last)])
        parent = np.array([spans[i][3] for i in range(first, last)],
                          dtype=np.int64)
        child_time = np.zeros(len(names))
        inside = parent >= first
        np.add.at(child_time, parent[inside] - first, dur[inside])
        self_time = dur - child_time
        parent_name = [spans[p][0] if p >= 0 else None for p in parent]

        def pick(name, cond=None):
            return [k for k, n in enumerate(names) if n == name
                    and (cond is None or cond(k))]

        def self_s(name):
            return float(sum(self_time[k] for k in pick(name)))

        def extras(name):
            # a call that raised recorded no extra
            return [spans[first + k][4] for k in pick(name)
                    if spans[first + k][4] is not None]

        # a solve span that evaluated no residual was served by the cache
        solving = {parent[k] - first for k in pick("bethe.log_residual")}
        solved = pick("bethe.solve", lambda k: k in solving)
        fallback_parents = ("matel.flat_matrix_element",
                            "matel.calibrate_norm_signs")
        out = {
            "elliptic.theta.calls": len(pick("elliptic.theta")),
            "elliptic.theta.points": sum(extras("elliptic.theta")),
            "elliptic.theta.self_s": self_s("elliptic.theta"),
            "elliptic.theta_log.calls": len(pick("elliptic.theta_log")),
            "elliptic.theta_log.self_s": self_s("elliptic.theta_log"),
            "lattice.monodromy_apply.calls":
                len(pick("lattice.monodromy_apply")),
            "lattice.monodromy_apply.self_s":
                self_s("lattice.monodromy_apply"),
            "lattice.monodromy_dense.calls":
                len(pick("lattice.monodromy_dense")),
            "lattice.monodromy_dense.self_s":
                self_s("lattice.monodromy_dense"),
            "lattice.state_bytes": sum(extras("lattice.monodromy_apply")),
            "bethe.solve.calls": len(solved),
            "bethe.cache_hits": len(pick("bethe.solve")) - len(solved),
            "bethe.ground_states": len({key for _, key
                                        in extras("bethe.solve")}),
            "bethe.solve.self_s": self_s("bethe.solve"),
            "bethe.newton_iters": sum(
                spans[first + k][4][0] for k in solved
                if spans[first + k][4] is not None),
            "bethe.log_residual.calls": len(pick("bethe.log_residual")),
            "scalar.norm_det.calls": len(pick("scalar.norm_det")),
            "scalar.norm_det.self_s": self_s("scalar.norm_det"),
            "scalar.gaudin_matrix.calls": len(pick("scalar.gaudin_matrix")),
            # gamma_retry re-enters mpme_det once per draw: count the outer
            "matel.mpme_det.calls": len(pick(
                "matel.mpme_det",
                lambda k: parent_name[k] != "matel.mpme_det")),
            "matel.mpme_det.self_s": self_s("matel.mpme_det"),
            "matel.mpme_bruteforce.calls": len(pick("matel.mpme_bruteforce")),
            "matel.mpme_bruteforce.self_s": self_s("matel.mpme_bruteforce"),
            "matel.calibrate_norm_signs.self_s":
                self_s("matel.calibrate_norm_signs"),
            "matel.flat_matrix_element.self_s":
                self_s("matel.flat_matrix_element"),
            "matel.tuples": sum(extras("matel.enumerate_tuples")),
            "matel.dense_fallbacks": len(pick(
                "matel.mpme_bruteforce",
                lambda k: parent_name[k] in fallback_parents)),
            "thermo.multipoint_lhp.calls": len(pick("thermo.multipoint_lhp")),
            "thermo.multipoint_lhp.self_s": self_s("thermo.multipoint_lhp"),
            "thermo.one_point_barP.calls": len(pick("thermo.one_point_barP")),
            "thermo.one_point_barP.points":
                sum(extras("thermo.one_point_barP")),
            "thermo.one_point_barP.self_s": self_s("thermo.one_point_barP"),
            "cli.command.self_s": self_s("cli.command"),
            "cli.output_bytes": int(output_bytes),
            "trace.wall_s": float(wall_s),
        }
        assert set(out) == set(LAYER_METRICS)
        return out

    def write(self, path):
        """Spans as gzipped JSON: a name table and [name, start, end,
        parent] rows with times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]]
                for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "spans": rows}, fh)
