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

from . import bethe, matel, thermo
from .elliptic import (AccuracyError, ModelParams, PoleError,
                       frobenius_residual, id_sum1_residual, id_sum2_residual,
                       jacobi_residual, periods_residual, schroter_residual,
                       theta)
from .lattice import (LatticeConfig, homogeneous_config, transfer_dense,
                      yang_baxter_residual, zero_weight_indices,
                      inverse_problem_residual)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def parse_config(path):
    """Flat key = value file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_params(cfg):
    tau = complex(float(cfg.get("tau_re", "0")), float(cfg["tau_im"]))
    s0 = complex(float(cfg.get("s0_re", "0")), float(cfg.get("s0_im", "0")))
    if cfg.get("s0", "") == "physical":
        s0 = tau / (2.0 * int(cfg["r"]) / int(cfg["L"]))
        s0 += float(cfg.get("s0_shift", "0"))
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
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    if out_path:
        fh.close()


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def _suite_elliptic(rng, draws):
    out = {}
    worst = {"jacobi": 0.0, "periods": 0.0}
    for _ in range(draws):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.3))
        for kind in (1, 2, 3, 4):
            worst["jacobi"] = max(worst["jacobi"],
                                  jacobi_residual(kind, z, tau))
        scale = max(1.0, abs(theta(1, z, tau)), abs(theta(1, z + tau, tau)))
        worst["periods"] = max(worst["periods"],
                               periods_residual(z, tau) / scale)
    out.update(worst)
    for (L, r) in ((3, 1), (5, 2)):
        res = 0.0
        for _ in range(draws // 10 + 1):
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            res = max(res, schroter_residual(x, y, 0.7j, r, L))
        out[f"schroter_L{L}_r{r}"] = res
    for n in range(2, 7):
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        y = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        out[f"id_sum1_n{n}"] = id_sum1_residual(n, 1, x, y, 0.6 + 0.5j)
        out[f"id_sum2_n{n}"] = id_sum2_residual(n, x, y, 0.6 + 0.5j)
    for n in (2, 3):
        xs = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
        ys = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
        out[f"frobenius_n{n}"] = frobenius_residual(xs, ys, 0.3 + 0.2j, 0.8j)
    return out


def _suite_lattice(rng, draws):
    params = ModelParams(tau=0.9j, r=2, L=5, s0=0.41 + 0.13j)
    out = {"yang_baxter": 0.0}
    for _ in range(draws):
        u1, u2, u3 = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
                      for _ in range(3))
        s = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        out["yang_baxter"] = max(out["yang_baxter"], yang_baxter_residual(
            u1, u2, u3, s, params))
    p3 = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    config = homogeneous_config(4)
    idx = zero_weight_indices(config, p3)
    u, v = 0.31 + 0.17j, -0.22 + 0.4j
    tu = transfer_dense(u, config, p3)[np.ix_(idx, idx)]
    tv = transfer_dense(v, config, p3)[np.ix_(idx, idx)]
    out["transfer_commutator"] = float(np.max(np.abs(tu @ tv - tv @ tu)))
    ys = [0.04, -0.03, 0.02, -0.05]
    cfg_inh = LatticeConfig(N=4, xi=tuple(0.5 + 1j * y for y in ys))
    out["inverse_problem_E"] = inverse_problem_residual(
        "E", 2, cfg_inh, p3, alpha=1, beta=1)
    out["inverse_problem_delta"] = inverse_problem_residual(
        "delta", 3, cfg_inh, p3, a=1)
    return out


def _suite_appendixB(rng, draws):
    params = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    out = {}
    for (n, m) in ((2, 1), (3, 2)):
        res = 0.0
        for _ in range(max(3, draws // 30)):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            z = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.2, 0.2, m)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            alup = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                         for _ in range(4))
            bet = tuple(rng.standard_normal(m) + 1j * rng.standard_normal(m)
                        for _ in range(4))
            res = max(res, matel.appendixB_identity_residual(
                u, v, z, gamma, alup, bet, m, params))
        out[f"transform_n{n}_m{m}"] = res
    res = 0.0
    for _ in range(max(3, draws // 30)):
        n = 3
        u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
        res = max(res, matel.x_determinant_residual(gamma, u, v, params))
    out["det_X"] = res
    return out


def _suite_appendixC(rng, draws):
    L, r = 3, 1
    params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
    X = complex(rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.2))
    Y = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.3, -0.1))
    out = {}
    base_t = thermo.fredholm_det("base", "truncated", params)
    base_c = thermo.fredholm_det("base", "closed", params)
    out["fredholm_base"] = abs(base_t - base_c) / abs(base_c)
    xy_t = thermo.fredholm_det("XY", "truncated", params, X=X, Y=Y)
    xy_c = thermo.fredholm_det("XY", "closed", params, X=X, Y=Y)
    out["fredholm_XY"] = abs(xy_t - xy_c) / abs(xy_c)
    ratio = thermo.fredholm_det("ratio", "closed", params, X=X, Y=Y)
    out["fredholm_ratio"] = abs(ratio - xy_c / base_c) / abs(ratio)
    circle = 0.013 * np.exp(2j * math.pi * np.arange(64) / 64)
    res = 2j * math.pi * np.mean(thermo.resolvent_S(Y, circle, params) * circle)
    out["resolvent_residue"] = abs(res - 1.0)
    out["resolvent_equation"] = thermo.resolvent_equation_residual(
        Y, X, 0.03 + 0.2j, params)
    kq = 0.0
    nodes = -0.5 + np.arange(1024) / 1024
    for mm in (0, 3, -2):
        quad = np.mean(thermo.kernel_direct("K_XY", nodes, params, X=X, Y=Y)
                       * np.exp(-2j * math.pi * mm * nodes))
        kq = max(kq, abs(quad - thermo.kernel_fourier("K_XY", mm, params,
                                                      X=X, Y=Y)))
    out["kernel_fourier"] = kq
    return out


def _suite_appendixD(rng, draws):
    out = {}
    for (L, r) in ((3, 1), (4, 1)):
        params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
        Z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        worst = 0.0
        norm = 0.0
        parity = 0.0
        for eps in (0, 1):
            for t in range(L - r):
                tot = 0.0j
                for a in range(L):
                    v1 = thermo.one_point_barP(a, Z, eps, t, params,
                                               mode="nu_sum")
                    v2 = thermo.one_point_barP(a, Z, eps, t, params,
                                               mode="closed")
                    if L % 2 == 0 and (eps + t - a) % 2 != 0:
                        parity = max(parity, abs(v2))
                    worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)))
                    tot += thermo.one_point_barP(a, 0.0, eps, t, params,
                                                 mode="nu_sum")
                norm = max(norm, abs(tot - 1.0))
        out[f"nu_vs_closed_L{L}"] = worst
        out[f"normalization_L{L}"] = norm
        if L % 2 == 0:
            out[f"parity_zero_L{L}"] = parity
    return out


SUITES = {
    "elliptic": _suite_elliptic,
    "lattice": _suite_lattice,
    "appendixB": _suite_appendixB,
    "appendixC": _suite_appendixC,
    "appendixD": _suite_appendixD,
}

SUITE_TOL = {
    "elliptic": 1e-10,
    "lattice": 1e-9,
    "appendixB": 1e-9,
    "appendixC": 1e-9,
    "appendixD": 1e-9,
}


def cmd_identities(args):
    rng = np.random.default_rng(args.seed)
    tol = args.tolerance if args.tolerance else SUITE_TOL[args.suite]
    residuals = SUITES[args.suite](rng, args.draws)
    worst_name = max(residuals, key=lambda k: residuals[k])
    ok = residuals[worst_name] < tol
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "tolerance": tol,
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "max_residual": float(residuals[worst_name]),
        "worst": worst_name,
        "pass": bool(ok),
    }
    _emit(doc, args.out)
    if not ok:
        sys.stderr.write(f"FAIL: {worst_name} = {residuals[worst_name]:.3e}\n")
    return EXIT_OK if ok else EXIT_NUMERICAL


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
        args.resolution or int(cfg.get("resolution", "512")))
    labels = [(eps, t) for eps in (0, 1) for t in range(params.L - params.r)]
    shifts = range(params.L)
    config = build_lattice(cfg, params)
    records = []
    if args.mode == "finite":
        gs = bethe.all_ground_states(config, params)
        signs = matel.calibrate_norm_signs(gs)
        # a skip reason depends on the path arguments only, so it holds for
        # every record of the table
        refs, skip_reason = {}, None
        try:
            refs = thermo.lhp_table(path, labels, shifts, config, params,
                                    resolution, tolerance=args.tolerance)
        except (ValueError, PoleError) as exc:
            skip_reason = str(exc)
        for eps, t in labels:
            for c in shifts:
                sp = _shifted(path, c)
                val = matel.flat_matrix_element(sp, (eps, t), (eps, t), gs,
                                                signs=signs)
                ref = refs.get((eps, t, c))
                records.append({"eps": eps, "t": t, "height_shift": c,
                                "heights": list(sp.heights),
                                "value_re": float(val.real),
                                "value_im": float(val.imag),
                                "error_estimate": None,
                                "deviation_from_thermo":
                                None if ref is None else
                                float(abs(val - ref[0])),
                                "thermo_skipped": skip_reason})
    else:
        table = thermo.lhp_table(path, labels, shifts, config, params,
                                 resolution, tolerance=args.tolerance)
        for (eps, t, c), (val, err) in table.items():
            records.append({"eps": eps, "t": t, "height_shift": c,
                            "heights": list(_shifted(path, c).heights),
                            "value_re": float(np.real(val)),
                            "value_im": float(np.imag(val)),
                            "error_estimate": float(err),
                            "deviation_from_thermo": None})
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
    resolution = thermo.check_resolution(
        args.resolution or int(cfg.get("resolution", "256")))
    rows = []
    thermo_val = None
    skip_reason = None
    try:
        cfg_ref = build_lattice(cfg, params, n_override=max(n_list))
        thermo_val, err = thermo.multipoint_lhp(path, eps, t, cfg_ref, params,
                                                resolution=resolution)
    except (ValueError, PoleError) as exc:  # degenerate paths are skipped
        skip_reason = str(exc)
    for N in n_list:
        config = build_lattice(cfg, params, n_override=N)
        gs = bethe.all_ground_states(config, params)
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
    p_id.add_argument("suite", choices=sorted(SUITES))
    p_id.add_argument("--seed", type=int, default=7)
    p_id.add_argument("--draws", type=int, default=100)
    p_id.add_argument("--tolerance", type=float, default=None)
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(func=cmd_identities)

    p_lhp = sub.add_parser("lhp", help="emit a height-probability table")
    p_lhp.add_argument("--mode", choices=("finite", "thermo"),
                       default="thermo")
    p_lhp.add_argument("--config", required=True)
    p_lhp.add_argument("--path", required=True)
    p_lhp.add_argument("--resolution", type=int, default=None)
    p_lhp.add_argument("--tolerance", type=float, default=None,
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
