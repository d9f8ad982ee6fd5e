"""The three benchmark workloads: inputs, timed rounds and output checks.

Each workload writes its inputs (config, path and, for `oracle`, a filled
root cache) into a work directory during set-up.  A round is a fixed list
of operations, each a CLI command run through `csoslab.cli.main` or one
oracle comparison; every round runs the same operations on the same
inputs.  Checks use independent routes or properties the method must
have, never stored copies of earlier output.
"""

import json
import os

import numpy as np

from csoslab import bethe, cli, matel, scalar, thermo
from csoslab.lattice import homogeneous_config

# ordered-regime model of the convergence and table workloads
PHYS_MODEL = {"tau_im": "0.45", "r": "1", "L": "3", "s0": "physical"}
# generic complex height shift of the oracle workload
ORACLE_MODEL = {"tau_im": "0.8", "r": "1", "L": "3",
                "s0_re": "0.41", "s0_im": "0.13"}


def write_config(path, entries):
    with open(path, "w") as fh:
        for key, val in entries.items():
            fh.write(f"{key} = {val}\n")


def write_vertical_path(path, heights):
    doc = {"vertices": [[1 + k, 1] for k in range(len(heights))],
           "heights": list(heights)}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def draw_offsets(rng, n, half_width=0.05, min_gap=0.005):
    """Imaginary parts y_j of xi_j = 1/2 + i y_j on the admissible line.

    Draws are repeated until all pairs are min_gap apart, so no two path
    arguments come close to coinciding; the result depends only on rng.
    """
    while True:
        ys = rng.uniform(-half_width, half_width, n)
        gaps = np.abs(ys[:, None] - ys[None, :]) + np.eye(n)
        if np.min(gaps) >= min_gap:
            return ys


def xi_entry(ys):
    return ",".join(repr(complex(0.5, float(y))) for y in ys)


def cli_op(name, argv, out_path):
    """Run one CLI command; a non-zero exit or an exception is a failure."""
    try:
        code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # the run goes on to its other operations
        error = f"{type(exc).__name__}: {exc}"
    return {"name": name, "error": error, "out": out_path}


def load_report(op):
    with open(op["out"]) as fh:
        return json.load(fh)


def output_bytes(ops):
    return sum(os.path.getsize(op["out"]) for op in ops
               if op.get("out") and os.path.exists(op["out"]))


class Converge:
    """`csoslab converge`: homogeneous column, m = 1 path (1, 2)."""

    name = "converge"
    HEIGHTS = (1, 2)
    PARTNER = (1, 0)
    RESOLUTION = 256
    BRUTE_TOL = 1e-7
    MARGINAL_TOL = 1e-10

    def __init__(self, seed, small):
        # the convergence study has no random input: seed is unused
        self.n_list = (4, 6) if small else (8, 12, 16)
        # deviation from the thermodynamic value at the largest N; the
        # measured values are 1.1e-4 at N = 6 and 7.8e-9 at N = 16
        self.dev_bound = 5e-4 if small else 1e-8

    def setup(self, work):
        self.config_file = os.path.join(work, "converge.cfg")
        self.path_file = os.path.join(work, "path.json")
        write_config(self.config_file, {**PHYS_MODEL, "N": self.n_list[0],
                                        "xi": "homogeneous"})
        write_vertical_path(self.path_file, self.HEIGHTS)

    def run_round(self, work, tag):
        out = os.path.join(work, f"converge-{tag}.json")
        argv = ["converge", "--config", self.config_file,
                "--path", self.path_file,
                "--n-list", ",".join(map(str, self.n_list)),
                "--resolution", str(self.RESOLUTION), "--out", out]
        return [cli_op("converge", argv, out)]

    def check_round(self, ops):
        if ops[0]["error"] is not None:
            return {}
        doc = load_report(ops[0])
        fails = []
        devs = [row["deviation"] for row in doc["rows"]]
        if [row["N"] for row in doc["rows"]] != list(self.n_list):
            fails.append(f"rows for N = {[r['N'] for r in doc['rows']]}")
        if None in devs:
            fails.append(f"thermodynamic value skipped: "
                         f"{doc['thermo_skipped']}")
            return {"converge": fails}
        if not all(a > b for a, b in zip(devs, devs[1:])):
            fails.append(f"deviation not falling with N: {devs}")
        if not devs[-1] < self.dev_bound:
            fails.append(f"deviation {devs[-1]:.2e} at N = {self.n_list[-1]}"
                         f" not below {self.dev_bound:.0e}")
        return {"converge": fails}

    def check_once(self, ops):
        """Recompute parts of the first round's report by other routes."""
        doc = load_report(ops[0])
        cfg = cli.parse_config(self.config_file)
        params = cli.build_params(cfg)
        path = matel.vertical_path(self.HEIGHTS)
        fails = []
        # determinant vs dense route for one Bethe-basis element
        gs = bethe.all_ground_states(homogeneous_config(self.n_list[0]),
                                     params)
        basis = ("bethe", 0, 0, 1, 1)
        det = matel.finite_lhp(path, basis, gs, method="det")
        brute = matel.finite_lhp(path, basis, gs, method="brute")
        gap = abs(det - brute) / abs(brute)
        if not gap < self.BRUTE_TOL:
            fails.append(f"det vs brute gap {gap:.2e} at N = "
                         f"{self.n_list[0]}")
        # marginal: reference plus its opposite-step partner is the
        # closed one-point probability of the first height
        ref = complex(*doc["thermo_value"])
        partner, _ = thermo.multipoint_lhp(
            matel.vertical_path(self.PARTNER), 0, 0,
            homogeneous_config(self.n_list[-1]), params,
            resolution=self.RESOLUTION)
        closed = thermo.one_point_barP(self.HEIGHTS[0], 0.0, 0, 0, params,
                                       mode="closed")
        gap = abs(ref + partner - closed)
        if not gap < self.MARGINAL_TOL:
            fails.append(f"reference + partner vs closed gap {gap:.2e}")
        return {"converge": fails}


class ThermoTable:
    """`csoslab lhp --mode thermo` tables whose sums the marginal property
    fixes: m = 2 paths (0,1,2) and (0,1,0), m = 1 paths (0,1) and (0,-1),
    on an 8-site inhomogeneous column."""

    name = "thermo-table"
    PATHS = {"m2_up": (0, 1, 2), "m2_back": (0, 1, 0),
             "m1_up": (0, 1), "m1_down": (0, -1)}
    N = 8
    TOLERANCE = 1e-10
    IMAG_TOL = 1e-12
    MARGINAL_FLOOR = 1e-10

    def __init__(self, seed, small):
        self.resolution = 32 if small else 256
        self.ys = draw_offsets(np.random.default_rng(seed), self.N)

    def setup(self, work):
        self.config_file = os.path.join(work, "thermo.cfg")
        write_config(self.config_file, {**PHYS_MODEL, "N": self.N,
                                        "xi": xi_entry(self.ys)})
        self.path_files = {}
        for key, heights in self.PATHS.items():
            self.path_files[key] = os.path.join(work, f"{key}.json")
            write_vertical_path(self.path_files[key], heights)

    def run_round(self, work, tag):
        ops = []
        for key in self.PATHS:
            out = os.path.join(work, f"{key}-{tag}.json")
            argv = ["lhp", "--mode", "thermo", "--config", self.config_file,
                    "--path", self.path_files[key],
                    "--resolution", str(self.resolution),
                    "--tolerance", repr(self.TOLERANCE), "--out", out]
            ops.append(cli_op(key, argv, out))
        return ops

    def check_round(self, ops):
        if any(op["error"] is not None for op in ops):
            return {op["name"]: ["marginal checks need every table"]
                    for op in ops if op["error"] is None}
        fails = {op["name"]: [] for op in ops}
        tables = {}
        for op in ops:
            table = {}
            for rec in load_report(op)["records"]:
                val = complex(rec["value_re"], rec["value_im"])
                err = rec["error_estimate"]
                label = (rec["eps"], rec["t"], rec["height_shift"])
                if not abs(val.imag) <= self.IMAG_TOL:
                    fails[op["name"]].append(f"{label}: imag {val.imag:.2e}")
                if not -err <= val.real <= 1.0 + err:
                    fails[op["name"]].append(f"{label}: {val.real} outside "
                                             "[0, 1]")
                if not err < self.TOLERANCE:
                    fails[op["name"]].append(f"{label}: estimate {err:.2e}")
                table[label] = (val, err)
            tables[op["name"]] = table
        params = cli.build_params(cli.parse_config(self.config_file))
        for label, (v1, e1) in tables["m1_up"].items():
            # sum over the last height of the m = 2 path gives the m = 1 value
            va, ea = tables["m2_up"][label]
            vb, eb = tables["m2_back"][label]
            gap = abs(va + vb - v1)
            if not gap <= max(ea + eb + e1, self.MARGINAL_FLOOR):
                fails["m2_up"].append(f"{label}: m=2 marginal gap {gap:.2e}")
            # sum over the second height of the m = 1 path gives the closed
            # one-point formula
            vd, ed = tables["m1_down"][label]
            eps, t, c = label
            closed = thermo.one_point_barP(c, 0.0, eps, t, params,
                                           mode="closed")
            gap = abs(v1 + vd - closed)
            if not gap <= max(e1 + ed, self.MARGINAL_FLOOR):
                fails["m1_up"].append(f"{label}: m=1 marginal gap {gap:.2e}")
        return fails

    def check_once(self, ops):
        return {}


class Oracle:
    """Determinant formulas against the dense oracle on an inhomogeneous
    column, with the roots read from the root cache filled in set-up."""

    name = "oracle"
    PATHS = {1: (1, 2), 2: (0, 1, 2)}
    PAIRS = (((0, 0), (0, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 0)))
    MPME_TOL = 1e-7
    NORM_TOL = 1e-8
    EIGEN_TOL = 1e-8

    def __init__(self, seed, small):
        self.n = 4 if small else 8
        rng = np.random.default_rng(seed)
        self.ys = draw_offsets(rng, self.n)
        # spectral points kept |Re u| >= 0.1 away from the roots, which
        # lie on the imaginary axis for this modulus
        sign = rng.choice((-1.0, 1.0), 4)
        self.points = (sign * rng.uniform(0.1, 0.4, 4)
                       + 1j * rng.uniform(-0.2, 0.2, 4))

    def setup(self, work):
        config_file = os.path.join(work, "oracle.cfg")
        write_config(config_file, {**ORACLE_MODEL, "N": self.n,
                                   "xi": xi_entry(self.ys)})
        cfg = cli.parse_config(config_file)
        self.params = cli.build_params(cfg)
        self.config = cli.build_lattice(cfg, self.params)
        self.cache = os.path.join(work, "roots")
        bethe.all_ground_states(self.config, self.params,
                                cache_dir=self.cache)

    def _comparisons(self, gs):
        for key in sorted(gs):
            def norm_gap(roots=gs[key]):
                dense = bethe.bethe_vector(roots, side="left").dot(
                    bethe.bethe_vector(roots, side="right"))
                return abs(scalar.norm_det(roots) - dense) / abs(dense)
            yield f"norm{key}", norm_gap, self.NORM_TOL
        for m, heights in self.PATHS.items():
            path = matel.vertical_path(heights)
            for uk, vk in self.PAIRS:
                def mpme_gap(us=gs[uk], vs=gs[vk], path=path):
                    a1 = path.heights[0]
                    dense = matel.mpme_bruteforce(us, vs, path, a1)
                    det = matel.mpme_det(us, vs, path, a1)
                    return abs(det - dense) / abs(dense)
                yield f"mpme_m{m}{uk}{vk}", mpme_gap, self.MPME_TOL
        for key, u in zip(sorted(gs), self.points):
            def eigen(roots=gs[key], u=complex(u)):
                # eigenstate_residual divides by ||v|| only; rounding in
                # t(u)|v> scales with |tau(u)|, which reaches 2e6 near the
                # face-weight pole u = xi - 1 at N = 8
                scale = max(1.0, abs(bethe.eigenvalue_tau(u, roots)))
                return bethe.eigenstate_residual(roots, u,
                                                 side="right") / scale
            yield f"eigen{key}", eigen, self.EIGEN_TOL

    def run_round(self, work, tag):
        try:
            gs = bethe.all_ground_states(self.config, self.params,
                                         cache_dir=self.cache)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            # the ground-state keys do not depend on the roots
            gs = {(k, ell): None for k in (0, 1)
                  for ell in range(self.params.L - self.params.r)}
            return [{"name": name, "error": error}
                    for name, _, _ in self._comparisons(gs)]
        ops = []
        for name, fun, tol in self._comparisons(gs):
            try:
                ops.append({"name": name, "error": None, "gap": fun(),
                            "tol": tol})
            except Exception as exc:
                ops.append({"name": name,
                            "error": f"{type(exc).__name__}: {exc}"})
        return ops

    def check_round(self, ops):
        # written so that a NaN gap fails
        return {op["name"]: [] if op["gap"] < op["tol"]
                else [f"gap {op['gap']:.2e} not below {op['tol']:.0e}"]
                for op in ops if op["error"] is None}

    def check_once(self, ops):
        return {}


WORKLOADS = {cls.name: cls for cls in (Converge, ThermoTable, Oracle)}
