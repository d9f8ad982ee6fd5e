"""Acceptance suite: one test per criterion.

Each test prints a single PASS line on success (visible with pytest -s).
Seeds and parameter points are pinned here; every bound is a row of
`csoslab.contract.TOL`.  Criteria 1, 2, 5, 7 and 8 run the identity suites
that `csoslab identities` runs.
"""

import math
import time

import numpy as np

from csoslab.contract import (SUITES, TOL, marginal_check,
                              partial_scalar_bruteforce, partial_scalar_det,
                              within)
from csoslab.elliptic import ModelParams
from csoslab.lattice import LatticeConfig, homogeneous_config
from csoslab import bethe as B
from csoslab import matel as M
from csoslab import scalar as S
from csoslab import thermo as T

# the finite-size criteria run on the models of tests/conftest.py: ground4
# (tau = 0.8i, generic s0, N = 4 inhomogeneous) and params_phys
ACC = TOL["acceptance"]


def _suite(name, seed):
    """Run one identity suite at its pinned seed; every residual must sit
    below its own row."""
    residuals = SUITES[name](np.random.default_rng(seed), 100)
    for key, value in residuals.items():
        assert within(value, TOL[name][key]), (key, value)
    return residuals


def test_criterion_01_elliptic_identities():
    start = time.monotonic()
    res = _suite("elliptic", 101)
    elapsed = time.monotonic() - start
    assert elapsed < ACC["elliptic_s"]
    print(f"ACCEPTANCE 1: PASS (max residual {max(res.values()):.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_yang_baxter_and_commuting_transfer():
    res = _suite("lattice", 102)
    print(f"ACCEPTANCE 2: PASS (YB {res['yang_baxter']:.2e}, commutator "
          f"{res['transfer_commutator']:.2e})")


def test_criterion_03_bethe_machinery():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    params = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    config = homogeneous_config(4)
    gs = B.all_ground_states(config, params)
    assert len(gs) == 4
    sets = [np.sort(r.x) for r in gs.values()]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.max(np.abs(sets[i] - sets[j])) > ACC["root_separation"]
    worst = 0.0
    for roots in gs.values():
        for _ in range(5):
            u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
            worst = max(worst, B.eigenstate_residual(roots, u))
        u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        worst = max(worst, B.eigenstate_residual(roots, u, side="left"))
    elapsed = time.monotonic() - start
    assert worst < ACC["eigenstate"]
    assert elapsed < ACC["bethe_s"]
    print(f"ACCEPTANCE 3: PASS (eigenstate residual {worst:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_04_determinant_oracles(params, ground4):
    gs = ground4
    rng = np.random.default_rng(104)
    worst_norm = 0.0
    for roots in gs.values():
        brute = B.bethe_vector(roots, side="left").dot(
            B.bethe_vector(roots, side="right"))
        det = S.norm_det(roots)
        worst_norm = max(worst_norm, abs(det - brute) / abs(brute))
    assert worst_norm < ACC["norm_vs_dense"]
    u00 = gs[(0, 0)]
    worst_sp = 0.0
    for _ in range(2):
        v = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.15, 0.15, 2)
        for a in range(params.L):
            pb = partial_scalar_bruteforce(u00, v, a)
            pd = partial_scalar_det(u00, v, a)
            worst_sp = max(worst_sp, abs(pb - pd) / abs(pb))
    assert worst_sp < ACC["partial_scalar"]
    v = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.15, 0.15, 2)
    p1 = partial_scalar_det(u00, v, 1, gamma=S.default_gamma(params))
    p2 = partial_scalar_det(u00, v, 1, gamma=0.3123 + 0.19j)
    gind = abs(p1 - p2) / abs(p1)
    assert gind < ACC["gamma_independence"]
    print(f"ACCEPTANCE 4: PASS (norm {worst_norm:.2e}, partial scalar "
          f"{worst_sp:.2e}, gamma {gind:.2e})")


def test_criterion_05_appendix_identity():
    res = _suite("appendixB", 105)
    worst = max(res["transform_n2_m1"], res["transform_n3_m2"])
    print(f"ACCEPTANCE 5: PASS (transform {worst:.2e}, det X "
          f"{res['det_X']:.2e})")


def test_criterion_06_multipoint_matrix_elements(params, ground4):
    gs = ground4
    paths = {1: M.vertical_path((1, 2)), 2: M.vertical_path((0, 1, 2))}
    worst = 0.0
    for m, path in paths.items():
        a1 = path.heights[0]
        for pair in (((0, 0), (0, 0)), ((0, 0), (1, 1))):
            us, vs = gs[pair[0]], gs[pair[1]]
            bf = M.mpme_bruteforce(us, vs, path, a1)
            det = M.mpme_det(us, vs, path, a1)
            worst = max(worst, abs(det - bf) / abs(bf))
    assert worst < ACC["mpme_vs_dense"]
    us, vs = gs[(0, 0)], gs[(1, 1)]
    dm = M.mpme_det(us, vs, paths[2], 0, reduction="m")
    dn = M.mpme_det(us, vs, paths[2], 0, reduction="n")
    red = abs(dm - dn) / abs(dm)
    assert red < ACC["reduction"]
    # the tuple sum cancels, so one gamma's gap is a draw of rounding
    # noise; its median over a fixed circle of 20 gammas is the measure
    gammas = S.default_gamma(params) + 0.3 * np.exp(
        2j * math.pi * np.arange(20) / 20)
    gaps = []
    for gamma in gammas:
        dm = M.mpme_det(us, vs, paths[2], 0, gamma=gamma, reduction="m")
        dn = M.mpme_det(us, vs, paths[2], 0, gamma=gamma, reduction="n")
        gaps.append(abs(dm - dn) / abs(dm))
    median = float(np.median(gaps))
    assert median < ACC["reduction_median"]
    print(f"ACCEPTANCE 6: PASS (oracle gap {worst:.2e}, reduction {red:.2e}, "
          f"median over 20 gammas {median:.2e})")


def test_criterion_07_fredholm_toolkit():
    res = _suite("appendixC", 107)
    print(f"ACCEPTANCE 7: PASS (products "
          f"{max(res['fredholm_base'], res['fredholm_XY']):.2e}, ratio "
          f"{res['fredholm_ratio']:.2e}, residue "
          f"{res['resolvent_residue']:.2e}, equation "
          f"{res['resolvent_equation']:.2e})")


def test_criterion_08_one_point_forms():
    res = _suite("appendixD", 108)
    worst = max(res["nu_vs_closed_L3"], res["nu_vs_closed_L4"])
    print(f"ACCEPTANCE 8: PASS (nu_sum vs closed {worst:.2e})")


def test_criterion_09_ordered_regime_pattern():
    L, r = 3, 1
    target = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    prev = {key: np.inf for key in target}
    worst_imag = 0.0
    for tau_im in (0.05, 0.02, 0.01):
        tau = 1j * tau_im
        params = ModelParams(tau=tau, r=r, L=L, s0=0.3 + tau / (2 * r / L))
        for (eps, t), a_star in target.items():
            vals = np.array([T.one_point_barP(a, 0.0, eps, t, params,
                                              mode="closed")
                             for a in range(L)])
            worst_imag = max(worst_imag, float(np.max(np.abs(vals.imag))))
            assert np.all(np.abs(vals.imag) < ACC["flat_imag"])
            assert np.all(vals.real > -ACC["flat_negative"])
            gap = abs(vals[a_star] - 1.0) + sum(
                abs(vals[a]) for a in range(L) if a != a_star)
            assert gap < prev[(eps, t)] or gap < ACC["flat_reached"]
            prev[(eps, t)] = gap
    print(f"ACCEPTANCE 9: PASS (flat pattern reached, max imag "
          f"{worst_imag:.2e})")


def test_criterion_10_finite_to_thermo_convergence(params_phys):
    start = time.monotonic()
    params = params_phys
    paths = {0: M.AdjacentPath(vertices=((1, 1),), heights=(1,)),
             1: M.vertical_path((1, 2))}
    refs = {}
    refs[0] = T.one_point_barP(1, 0.0, 0, 0, params, mode="closed")
    refs[1], _ = T.multipoint_lhp(paths[1], 0, 0, homogeneous_config(4),
                                  params, resolution=256)
    devs = {0: [], 1: []}
    for N in (4, 6, 8):
        gs = B.all_ground_states(homogeneous_config(N), params)
        for m, path in paths.items():
            fin = M.finite_lhp(path, ("flat", 0, 0), gs)
            devs[m].append(abs(fin - refs[m]))
    for m in (0, 1):
        assert devs[m][0] > devs[m][1] > devs[m][2]
    elapsed = time.monotonic() - start
    assert elapsed < ACC["finite_to_thermo_s"]
    print(f"ACCEPTANCE 10: PASS (m=0 devs {['%.1e' % d for d in devs[0]]}, "
          f"m=1 devs {['%.1e' % d for d in devs[1]]}, {elapsed:.0f}s)")


def test_criterion_11_marginalization(ground4, params_phys):
    gs = ground4
    worst_fin = 0.0
    for path in (M.vertical_path((1, 2)), M.vertical_path((0, 1, 2))):
        us, vs = gs[(0, 1)], gs[(1, 0)]
        lhs, rhs = marginal_check(us, vs, path, path.heights[0])
        worst_fin = max(worst_fin, abs(lhs - rhs) / abs(rhs))
    assert worst_fin < ACC["marginal_finite"]
    phys = params_phys
    ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)
    cfg8 = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
    v1, e1 = T.multipoint_lhp(M.vertical_path((0, 1)), 0, 0, cfg8, phys,
                              resolution=128)
    tot, est = 0.0j, 0.0
    for a3 in (2, 0):
        v, e = T.multipoint_lhp(M.vertical_path((0, 1, a3)), 0, 0, cfg8,
                                phys, resolution=128)
        tot += v
        est += e
    gap2 = abs(tot - v1)
    assert gap2 <= max(est + e1, ACC["marginal_floor"])
    tot1, est1 = 0.0j, 0.0
    for a2 in (1, -1):
        v, e = T.multipoint_lhp(M.vertical_path((0, a2)), 0, 0, cfg8, phys,
                                resolution=128)
        tot1 += v
        est1 += e
    ref0 = T.one_point_barP(0, 0.0, 0, 0, phys, mode="closed")
    gap1 = abs(tot1 - ref0)
    assert gap1 <= max(est1, ACC["marginal_floor"])
    print(f"ACCEPTANCE 11: PASS (finite {worst_fin:.2e}, thermo m=1 "
          f"{gap1:.2e}, m=2 {gap2:.2e})")
