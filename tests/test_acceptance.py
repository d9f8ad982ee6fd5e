"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with pytest -s);
tolerances and parameter points are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from csoslab.elliptic import (ModelParams, frobenius_residual,
                              id_sum1_residual, id_sum2_residual,
                              jacobi_residual, periods_residual,
                              schroter_residual)
from csoslab.lattice import (LatticeConfig, homogeneous_config,
                             transfer_dense, yang_baxter_residual,
                             zero_weight_indices)
from csoslab import bethe as B
from csoslab import matel as M
from csoslab import scalar as S
from csoslab import thermo as T

INHOM_Y = (0.04, -0.03, 0.02, -0.05)


@pytest.fixture(scope="module")
def model4():
    params = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    config = LatticeConfig(N=4, xi=tuple(0.5 + 1j * y for y in INHOM_Y))
    return params, config, B.all_ground_states(config, params)


@pytest.fixture(scope="module")
def model_phys():
    tau = 0.45j
    return ModelParams(tau=tau, r=1, L=3, s0=tau / (2.0 / 3.0))


def test_criterion_01_elliptic_identities():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2))
        for kind in (1, 2, 3, 4):
            worst = max(worst, jacobi_residual(kind, z, tau))
        worst = max(worst, periods_residual(z, tau))
    for (L, r) in ((3, 1), (5, 2)):
        for _ in range(10):
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            worst = max(worst, schroter_residual(x, y, 0.7j, r, L))
    for n in range(2, 7):
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        y = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        worst = max(worst, id_sum1_residual(n, 1, x, y, 0.6 + 0.5j))
        worst = max(worst, id_sum2_residual(n, x, y, 0.6 + 0.5j))
    for n in (2, 3):
        xs = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
        ys = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
        worst = max(worst, frobenius_residual(xs, ys, 0.3 + 0.2j, 0.8j))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS (max residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_yang_baxter_and_commuting_transfer():
    rng = np.random.default_rng(102)
    params = ModelParams(tau=0.9j, r=2, L=5, s0=0.41 + 0.13j)
    worst = 0.0
    for _ in range(100):
        u1, u2, u3 = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
                      for _ in range(3))
        s = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        worst = max(worst, yang_baxter_residual(u1, u2, u3, s, params))
    assert worst < 1e-10
    p3 = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    config = homogeneous_config(4)
    idx = zero_weight_indices(config, p3)
    tu = transfer_dense(0.31 + 0.17j, config, p3)[np.ix_(idx, idx)]
    tv = transfer_dense(-0.22 + 0.4j, config, p3)[np.ix_(idx, idx)]
    comm = float(np.max(np.abs(tu @ tv - tv @ tu)))
    assert comm < 1e-10
    print(f"ACCEPTANCE 2: PASS (YB {worst:.2e}, commutator {comm:.2e})")


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
            assert np.max(np.abs(sets[i] - sets[j])) > 1e-4
    worst = 0.0
    for roots in gs.values():
        for _ in range(5):
            u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
            worst = max(worst, B.eigenstate_residual(roots, u))
        u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        worst = max(worst, B.eigenstate_residual(roots, u, side="left"))
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3: PASS (eigenstate residual {worst:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_04_determinant_oracles(model4):
    params, config, gs = model4
    rng = np.random.default_rng(104)
    worst_norm = 0.0
    for roots in gs.values():
        brute = B.bethe_vector(roots, side="left").dot(
            B.bethe_vector(roots, side="right"))
        det = S.norm_det(roots)
        worst_norm = max(worst_norm, abs(det - brute) / abs(brute))
    assert worst_norm < 1e-8
    u00 = gs[(0, 0)]
    worst_sp = 0.0
    for _ in range(2):
        v = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.15, 0.15, 2)
        for a in range(params.L):
            pb = S.partial_scalar_bruteforce(u00, v, a)
            pd = S.partial_scalar_det(u00, v, a)
            worst_sp = max(worst_sp, abs(pb - pd) / abs(pb))
    assert worst_sp < 1e-8
    v = rng.uniform(-0.3, 0.3, 2) + 1j * rng.uniform(-0.15, 0.15, 2)
    p1 = S.partial_scalar_det(u00, v, 1, gamma=S.default_gamma(params))
    p2 = S.partial_scalar_det(u00, v, 1, gamma=0.3123 + 0.19j)
    gind = abs(p1 - p2) / abs(p1)
    assert gind < 1e-9
    print(f"ACCEPTANCE 4: PASS (norm {worst_norm:.2e}, partial scalar "
          f"{worst_sp:.2e}, gamma {gind:.2e})")


def test_criterion_05_appendix_identity():
    rng = np.random.default_rng(105)
    params = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    worst = 0.0
    for (n, m) in ((2, 1), (3, 2)):
        for _ in range(3):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            z = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.2, 0.2, m)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            alup = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                         for _ in range(4))
            bet = tuple(rng.standard_normal(m) + 1j * rng.standard_normal(m)
                        for _ in range(4))
            worst = max(worst, M.appendixB_identity_residual(
                u, v, z, gamma, alup, bet, m, params))
    assert worst < 1e-9
    worst_x = 0.0
    for n in (2, 3):
        u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
        worst_x = max(worst_x, M.x_determinant_residual(gamma, u, v, params))
    assert worst_x < 1e-11
    print(f"ACCEPTANCE 5: PASS (transform {worst:.2e}, det X {worst_x:.2e})")


def test_criterion_06_multipoint_matrix_elements(model4):
    params, config, gs = model4
    paths = {1: M.vertical_path((1, 2)), 2: M.vertical_path((0, 1, 2))}
    worst = 0.0
    for m, path in paths.items():
        a1 = path.heights[0]
        for pair in (((0, 0), (0, 0)), ((0, 0), (1, 1))):
            us, vs = gs[pair[0]], gs[pair[1]]
            bf = M.mpme_bruteforce(us, vs, path, a1)
            det = M.mpme_det(us, vs, path, a1)
            worst = max(worst, abs(det - bf) / abs(bf))
    assert worst < 1e-7
    us, vs = gs[(0, 0)], gs[(1, 1)]
    dm = M.mpme_det(us, vs, paths[2], 0, reduction="m")
    dn = M.mpme_det(us, vs, paths[2], 0, reduction="n")
    red = abs(dm - dn) / abs(dm)
    assert red < 1e-9
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
    assert median < 1e-12
    print(f"ACCEPTANCE 6: PASS (oracle gap {worst:.2e}, reduction {red:.2e}, "
          f"median over 20 gammas {median:.2e})")


def test_criterion_07_fredholm_toolkit():
    L, r = 3, 1
    params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
    X, Y = 0.21 + 0.13j, 0.4 - 0.27j
    base_t = T.fredholm_det("base", "truncated", params, modes=200)
    base_c = T.fredholm_det("base", "closed", params, modes=200)
    d1 = abs(base_t - base_c) / abs(base_c)
    xy_t = T.fredholm_det("XY", "truncated", params, X=X, Y=Y, modes=200)
    xy_c = T.fredholm_det("XY", "closed", params, X=X, Y=Y, modes=200)
    d2 = abs(xy_t - xy_c) / abs(xy_c)
    assert d1 < 1e-10 and d2 < 1e-10
    ratio = T.fredholm_det("ratio", "closed", params, X=X, Y=Y)
    d3 = abs(ratio - xy_c / base_c) / abs(ratio)
    assert d3 < 1e-10
    circle = 0.013 * np.exp(2j * math.pi * np.arange(64) / 64)
    res = 2j * math.pi * np.mean(T.resolvent_S(Y, circle, params) * circle)
    assert abs(res - 1.0) < 1e-10
    inteq = T.resolvent_equation_residual(Y, X, 0.03 + 0.2j, params)
    assert inteq < 1e-9
    print(f"ACCEPTANCE 7: PASS (products {max(d1, d2):.2e}, ratio {d3:.2e}, "
          f"residue {abs(res - 1):.2e}, equation {inteq:.2e})")


def test_criterion_08_one_point_forms():
    rng = np.random.default_rng(108)
    worst = 0.0
    for L in (3, 4):
        r = 1
        params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
        Z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        for eps in (0, 1):
            for t in range(L - r):
                tot = 0.0j
                for a in range(L):
                    nu = T.one_point_barP(a, Z, eps, t, params, mode="nu_sum")
                    cl = T.one_point_barP(a, Z, eps, t, params, mode="closed")
                    if L % 2 == 0 and (eps + t - a) % 2 != 0:
                        assert cl == 0.0
                    worst = max(worst, abs(nu - cl))
                    tot += T.one_point_barP(a, 0.0, eps, t, params,
                                            mode="nu_sum")
                assert abs(tot - 1.0) < 1e-9
    assert worst < 1e-9
    print(f"ACCEPTANCE 8: PASS (nu_sum vs closed {worst:.2e})")


def test_criterion_09_ordered_regime_pattern():
    L, r = 3, 1
    target = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    prev = {key: np.inf for key in target}
    worst_imag = 0.0
    for tau_im in (0.05, 0.02, 0.01):
        tau = 1j * tau_im
        params = ModelParams(tau=tau, r=r, L=L, s0=0.3 + tau / (2 * r / L),
                             validate=False)
        for (eps, t), a_star in target.items():
            vals = np.array([T.one_point_barP(a, 0.0, eps, t, params,
                                              mode="closed")
                             for a in range(L)])
            worst_imag = max(worst_imag, float(np.max(np.abs(vals.imag))))
            assert np.all(np.abs(vals.imag) < 1e-10)
            assert np.all(vals.real > -1e-12)
            gap = abs(vals[a_star] - 1.0) + sum(
                abs(vals[a]) for a in range(L) if a != a_star)
            assert gap < prev[(eps, t)] or gap < 1e-11
            prev[(eps, t)] = gap
    print(f"ACCEPTANCE 9: PASS (flat pattern reached, max imag "
          f"{worst_imag:.2e})")


def test_criterion_10_finite_to_thermo_convergence(model_phys):
    start = time.monotonic()
    params = model_phys
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
    assert elapsed < 600.0
    print(f"ACCEPTANCE 10: PASS (m=0 devs {['%.1e' % d for d in devs[0]]}, "
          f"m=1 devs {['%.1e' % d for d in devs[1]]}, {elapsed:.0f}s)")


def test_criterion_11_marginalization(model4, model_phys):
    params, config, gs = model4
    worst_fin = 0.0
    for path in (M.vertical_path((1, 2)), M.vertical_path((0, 1, 2))):
        us, vs = gs[(0, 1)], gs[(1, 0)]
        lhs, rhs = M.marginal_check(us, vs, path, path.heights[0])
        worst_fin = max(worst_fin, abs(lhs - rhs) / abs(rhs))
    assert worst_fin < 1e-7
    phys = model_phys
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
    assert gap2 <= max(est + e1, 1e-10)
    tot1, est1 = 0.0j, 0.0
    for a2 in (1, -1):
        v, e = T.multipoint_lhp(M.vertical_path((0, a2)), 0, 0, cfg8, phys,
                                resolution=128)
        tot1 += v
        est1 += e
    ref0 = T.one_point_barP(0, 0.0, 0, 0, phys, mode="closed")
    gap1 = abs(tot1 - ref0)
    assert gap1 <= max(est1, 1e-10)
    print(f"ACCEPTANCE 11: PASS (finite {worst_fin:.2e}, thermo m=1 "
          f"{gap1:.2e}, m=2 {gap2:.2e})")
