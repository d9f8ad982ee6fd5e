"""Batch front end: identity suites, LHP tables, and convergence studies.

Configuration is a flat key = value text file (numbers as decimal strings);
paths are JSON documents with vertices and heights.  Reports are JSON (and
CSV for tables); identical config and seed give byte-identical output.
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

import argparse
import csv
import hashlib
import json
import math
import sys

import numpy as np

from . import bethe, contract, matel, thermo
from .elliptic import AccuracyError, ModelParams
from .lattice import LatticeConfig, homogeneous_config

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


CONFIG_KEYS = frozenset(("tau_re", "tau_im", "r", "L", "s0", "s0_re", "s0_im",
                         "N", "xi", "resolution", "eps", "t"))


def parse_config(path):
    """Flat key = value file; '#' starts a comment.  An unknown or repeated
    key is a configuration error."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key in out:
                raise ValueError(f"repeated config key {key!r}")
            out[key] = val.strip()
    return out


def _tolerance(text):
    if 0 <= float(text) < math.inf:
        return float(text)
    raise argparse.ArgumentTypeError(f"not a finite tolerance >= 0: {text}")


def build_params(cfg):
    tau = complex(float(cfg.get("tau_re", "0")), float(cfg["tau_im"]))
    s0 = complex(float(cfg.get("s0_re", "0")), float(cfg.get("s0_im", "0")))
    if "s0" in cfg:
        if cfg["s0"] != "physical" or {"s0_re", "s0_im"} & cfg.keys():
            raise ValueError(f"s0 = {cfg['s0']!r}: s0 takes only 'physical', "
                             "without s0_re and s0_im; give any other s0 as "
                             "s0_re and s0_im")
        s0 = tau / (2.0 * int(cfg["r"]) / int(cfg["L"]))
    return ModelParams(tau=tau, r=int(cfg["r"]), L=int(cfg["L"]), s0=s0)


def build_lattice(cfg, params, n_override=None):
    N = int(n_override if n_override is not None else cfg["N"])
    xi_spec = cfg.get("xi", "homogeneous")
    if xi_spec == "homogeneous":
        return homogeneous_config(N)
    xs = [complex(tok) for tok in xi_spec.split(",")]
    if len(xs) != N:
        raise ValueError(f"xi list has {len(xs)} entries, need {N}")
    return LatticeConfig(N=N, xi=tuple(xs))


def params_hash(cfg):
    doc = json.dumps(cfg, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _emit(doc, out_path):
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise AccuracyError(f"non-finite value in the report: {exc}") from exc
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_csv(rows, header, out_path):
    if any(isinstance(v, float) and not math.isfinite(v)
           for row in rows for v in row):
        raise AccuracyError("non-finite value in the table")
    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    csv.writer(fh).writerows([header, *rows])
    if out_path:
        fh.close()


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def cmd_identities(args):
    if args.draws < 1:
        raise ValueError(f"draws must be positive, got {args.draws}")
    rng = np.random.default_rng(args.seed)
    tol = contract.rows(args.suite, args.tolerance)
    residuals = contract.SUITES[args.suite](rng, args.draws)
    worst_name = max(residuals, key=lambda k: residuals[k])
    failed = sorted(k for k, v in residuals.items()
                    if not contract.within(v, tol[k]))
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "tolerance": tol,
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "max_residual": float(residuals[worst_name]),
        "worst": worst_name,
        "pass": not failed,
    }
    _emit(doc, args.out)
    for name in failed:
        sys.stderr.write(f"FAIL: {name} = {residuals[name]:.3e} "
                         f"(row {tol[name]:.0e})\n")
    return EXIT_NUMERICAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# LHP tables and convergence studies
# ---------------------------------------------------------------------------

def load_path(path_file):
    with open(path_file) as fh:
        doc = json.load(fh)
    return matel.AdjacentPath.from_json_dict(doc)


def _shifted(path, c):
    return matel.AdjacentPath(path.vertices,
                              tuple(h + c for h in path.heights))


def cmd_lhp(args):
    cfg = parse_config(args.config)
    params = build_params(cfg)
    path = load_path(args.path)
    resolution = thermo.check_resolution(
        int(cfg.get("resolution", "512")) if args.resolution is None
        else args.resolution)
    labels = matel.flat_labels(params)
    shifts = range(params.L)
    config = build_lattice(cfg, params)
    finite = args.mode == "finite"
    gs = bethe.all_ground_states(config, params) if finite else None
    extra = {"thermo_skipped": None} if finite else {}
    try:
        refs = thermo.lhp_table(path, labels, shifts, config, params,
                                resolution, tolerance=args.tolerance)
    except ValueError as exc:
        if not finite:
            raise
        # a skip reason depends on the path arguments only, so it holds for
        # every record of the table
        refs, extra["thermo_skipped"] = {}, str(exc)
    flat = [matel.flat_matrix_element(_shifted(path, c), gs)
            for c in shifts] if finite else None
    records = []
    for row, (eps, t) in enumerate(labels):
        for c in shifts:
            ref = refs.get((eps, t, c))
            val, err = (flat[c][row, row], None) if finite else ref
            dev = (float(abs(val - ref[0])) if finite and ref is not None
                   else None)
            records.append({"eps": eps, "t": t, "height_shift": c,
                            "heights": list(_shifted(path, c).heights),
                            "value_re": float(np.real(val)),
                            "value_im": float(np.imag(val)),
                            "error_estimate": None if err is None
                            else float(err),
                            "deviation_from_thermo": dev, **extra})
    doc = {
        "mode": args.mode,
        "path": path.to_json_dict(),
        "resolution": resolution,
        "parameters_hash": params_hash(cfg),
        "records": records,
    }
    if args.out and args.out.endswith(".csv"):
        rows = [[r["eps"], r["t"], r["height_shift"], r["value_re"],
                 r["value_im"], r["error_estimate"]] for r in records]
        _emit_csv(rows, ["eps", "t", "height_shift", "value_re", "value_im",
                         "error_estimate"], args.out)
    else:
        _emit(doc, args.out)
    return EXIT_OK


def cmd_converge(args):
    cfg = parse_config(args.config)
    params = build_params(cfg)
    path = load_path(args.path)
    n_list = [int(tok) for tok in args.n_list.split(",")]
    eps = int(cfg.get("eps", "0"))
    t = int(cfg.get("t", "0"))
    if (eps, t) not in matel.flat_labels(params):
        raise ValueError(f"flat label (eps, t) = ({eps}, {t}) is not one of "
                         f"{matel.flat_labels(params)}")
    resolution = thermo.check_resolution(
        int(cfg.get("resolution", "256")) if args.resolution is None
        else args.resolution)
    configs = {N: build_lattice(cfg, params, n_override=N) for N in n_list}
    rows = []
    thermo_val = None
    skip_reason = None
    try:
        thermo_val, err = thermo.multipoint_lhp(path, eps, t,
                                                configs[max(n_list)], params,
                                                resolution=resolution)
    except ValueError as exc:   # degenerate paths are skipped
        skip_reason = str(exc)
    for N in n_list:
        gs = bethe.all_ground_states(configs[N], params)
        val = matel.finite_lhp(path, ("flat", eps, t), gs)
        dev = abs(val - thermo_val) if thermo_val is not None else None
        rows.append({"N": N, "value_re": float(val.real),
                     "value_im": float(val.imag),
                     "deviation": None if dev is None else float(dev)})
    devs = [r["deviation"] for r in rows if r["deviation"] is not None]
    doc = {
        "path": path.to_json_dict(),
        "eps": eps, "t": t,
        "thermo_value": None if thermo_val is None else
        [float(np.real(thermo_val)), float(np.imag(thermo_val))],
        "thermo_skipped": skip_reason,
        "rows": rows,
        "monotone": bool(all(a > b for a, b in zip(devs, devs[1:])))
        if len(devs) > 1 else None,
        "parameters_hash": params_hash(cfg),
    }
    _emit(doc, args.out)
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="csoslab",
        description="cyclic SOS model: identities, LHP tables, convergence")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run a named identity suite")
    p_id.add_argument("suite", choices=sorted(contract.SUITES))
    p_id.add_argument("--seed", type=int, default=7)
    p_id.add_argument("--draws", type=int, default=100)
    p_id.add_argument("--tolerance", type=_tolerance, default=None)
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(func=cmd_identities)

    p_lhp = sub.add_parser("lhp", help="emit a height-probability table")
    p_lhp.add_argument("--mode", choices=("finite", "thermo"),
                       default="thermo")
    p_lhp.add_argument("--config", required=True)
    p_lhp.add_argument("--path", required=True)
    p_lhp.add_argument("--resolution", type=int, default=None)
    p_lhp.add_argument("--tolerance", type=_tolerance, default=None,
                       help="raise on quadrature estimates above this")
    p_lhp.add_argument("--out", default=None)
    p_lhp.set_defaults(func=cmd_lhp)

    p_con = sub.add_parser("converge", help="finite-size vs thermodynamic")
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--path", required=True)
    p_con.add_argument("--n-list", default="4,6,8")
    p_con.add_argument("--resolution", type=int, default=None)
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_converge)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except Exception as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
