"""Thermodynamic limit: densities, Fredholm toolkit, and multiple integrals."""

import cmath
import itertools
import math

import numpy as np
import pytest

from csoslab.elliptic import (AccuracyError, DegenerateConfigError,
                              ModelParams, PoleError, theta)
from csoslab.lattice import LatticeConfig, homogeneous_config
from csoslab import bethe as B
from csoslab import contract as C
from csoslab import matel as M
from csoslab import thermo as T


@pytest.fixture(scope="module")
def params_c():
    """eta_tilde = 0.4i working point for the kernel family."""
    L, r = 3, 1
    return ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)


@pytest.fixture(scope="module")
def config8():
    return homogeneous_config(8)


class TestDensity:
    def test_fourier_coefficient(self, params_c, config8):
        for m in (0, 1, 3):
            pred = 1.0 / (2.0 * np.cosh(1j * math.pi * m
                                        * params_c.eta_tilde))
            assert abs(B.density_fourier(m, config8, params_c) - pred) < 1e-14

    def test_normalization_by_trapezoid(self, params_c, config8):
        z = -0.5 + np.arange(4096) / 4096
        val = np.mean(C.density(z, config8, params_c))
        assert abs(val - 0.5) < 1e-12

    def test_lieb_residual(self, params_c, config8):
        z = np.linspace(-0.5, 0.5, 50)
        assert np.max(C.lieb_residual(z, config8, params_c)) < 1e-10

    def test_closed_form_vs_series(self, params_c):
        z = np.linspace(-0.45, 0.45, 7)
        ser = sum(np.exp(2j * math.pi * m * z)
                  / (2 * np.cosh(1j * math.pi * m * params_c.eta_tilde))
                  for m in range(-80, 81))
        assert np.max(np.abs(C.rho_homogeneous(z, params_c) - ser)) < 1e-13


class TestKernelFourier:
    def test_zero_modes(self, params_c):
        assert abs(C.kernel_fourier("K", 0, params_c) - 1.0) < 1e-15
        assert abs(C.kernel_fourier("p0prime", 0, params_c)
                   - 2 * math.pi) < 1e-15

    def test_quadrature_oracle(self, params_c):
        nodes = -0.5 + np.arange(2048) / 2048
        cases = [("K", {}), ("p0prime", {}),
                 ("theta0", dict(t=0.2 + 0.3j)),
                 ("theta_Xt", dict(t=0.2 + 0.3j, X=0.21 + 0.13j)),
                 ("K_XY", dict(X=0.21 + 0.13j, Y=0.4 - 0.27j)),
                 ("t_XY", dict(X=0.21 + 0.13j, Y=0.4 - 0.27j,
                               zeta=0.03 + 0.2j))]
        for kid, kw in cases:
            for m in (0, 3, -2):
                quad = np.mean(C.kernel_direct(kid, nodes, params_c, **kw)
                               * np.exp(-2j * math.pi * m * nodes))
                closed = C.kernel_fourier(kid, m, params_c, **kw)
                assert abs(quad - closed) < 1e-12

    def test_large_mode_stability(self, params_c):
        val = C.kernel_fourier("K_XY", -300, params_c,
                               X=0.21 + 0.13j, Y=0.4 - 0.27j)
        assert np.isfinite(val) and abs(val) < 1.0

    def test_strip_validation(self, params_c):
        from csoslab.elliptic import EllipticDomainError
        with pytest.raises(EllipticDomainError):
            C.kernel_fourier("theta0", 1, params_c, t=-0.3j)


class TestFredholm:
    def test_base_truncated_vs_closed(self, params_c):
        t = C.fredholm_det("base", "truncated", params_c, modes=200)
        c = C.fredholm_det("base", "closed", params_c, modes=200)
        assert abs(t - c) / abs(c) < 1e-10

    def test_xy_truncated_vs_closed(self, params_c):
        X, Y = 0.21 + 0.13j, 0.4 - 0.27j
        t = C.fredholm_det("XY", "truncated", params_c, X=X, Y=Y, modes=200)
        c = C.fredholm_det("XY", "closed", params_c, X=X, Y=Y, modes=200)
        assert abs(t - c) / abs(c) < 1e-10

    def test_ratio_consistency(self, params_c):
        X, Y = 0.21 + 0.13j, 0.4 - 0.27j
        ratio = C.fredholm_det("ratio", "closed", params_c, X=X, Y=Y)
        quot = (C.fredholm_det("XY", "closed", params_c, X=X, Y=Y, modes=300)
                / C.fredholm_det("base", "closed", params_c, modes=300))
        assert abs(ratio - quot) / abs(ratio) < 1e-10

    def test_vanishing_tail_prefactor(self, params_c):
        # the m-sum tail switched off leaves the bare eigenvalue 2(1 - eta)
        val = C.fredholm_det("base", "closed", params_c, modes=0)
        assert abs(val - 2 * (1 - params_c.eta)) < 1e-14

    def test_tail_bound(self, params_c):
        b200 = C.fredholm_tail_bound("base", params_c, modes=200)
        t = C.fredholm_det("base", "truncated", params_c, modes=200)
        t2 = C.fredholm_det("base", "truncated", params_c, modes=400)
        assert abs(t - t2) <= b200 * abs(t2)


class TestResolvent:
    def test_residue(self, params_c):
        Y = 0.4 - 0.27j
        circle = 0.013 * np.exp(2j * math.pi * np.arange(64) / 64)
        res = 2j * math.pi * np.mean(C.resolvent_S(Y, circle, params_c)
                                     * circle)
        assert abs(res - 1.0) < 1e-10

    def test_integral_equation(self, params_c):
        res = C.resolvent_equation_residual(0.4 - 0.27j, 0.21 + 0.13j,
                                            0.03 + 0.2j, params_c)
        assert res < 1e-9

    def test_quasi_periodicity(self, params_c):
        # shifting z by -eta_tilde multiplies S by the exact theta factors
        et = params_c.eta_tilde
        Y = 0.4 - 0.27j
        z = 0.23 + 0.11j
        lhs = C.resolvent_S(Y, z - et, params_c)
        fac2 = theta(2, z + Y - et, et) / theta(2, z + Y, et)
        fac1 = theta(1, z - et, et) / theta(1, z, et)
        assert abs(lhs - C.resolvent_S(Y, z, params_c) * fac2 / fac1) < 1e-12

    def test_pole_error(self, params_c):
        with pytest.raises(PoleError):
            C.resolvent_S(0.4 - 0.27j, 0.0, params_c)


class TestOnePoint:
    @pytest.mark.parametrize("Lr", [(3, 1), (4, 1)])
    def test_mode_agreement(self, Lr, rng):
        L, r = Lr
        params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
        Z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        for z in (Z, np.array([Z, -Z])):   # one point, and an array
            for eps, t, a in itertools.product((0, 1), range(L - r),
                                               range(L)):
                ref = C.one_point_twist_sum(C._pbar_bethe_pair, a, z, eps, t,
                                            params)
                for val in (C.one_point_twist_sum(C._pbar_bethe_pair_fred, a,
                                                  z, eps, t, params),
                            C.one_point_twist_sum(C._pbar_bethe_pair_alt, a,
                                                  z, eps, t, params),
                            T.one_point_barP(a, z, eps, t, params),
                            C.one_point_closed_tilde(a, z, eps, t, params)):
                    assert np.all(np.abs(val - ref)
                                  < 1e-9 * np.maximum(1.0, np.abs(ref)))

    def test_alt_theta_calls_do_not_grow_with_jmax(self, monkeypatch):
        # the dual series evaluates its j-dependent factors in one call:
        # Im(tau) = 0.8 (jmax = 12) and 2 (jmax = 17) make as many calls
        theta_fun = C.theta
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return theta_fun(*args, **kwargs)

        counts = {}
        for tau in (0.8j, 2j):
            params = ModelParams(tau=tau, r=1, L=3, s0=0.37 + 0.21j)
            jmax = max(12, int(7.0 / math.sqrt(params.eta_tilde.imag)))
            monkeypatch.setattr(C, "theta", counted)
            for z in (0.1 - 0.05j, np.array([0.1 - 0.05j, 0.2j])):
                calls.clear()
                C._pbar_bethe_pair_alt(params.height(1), z, 1, 0, params,
                                       0.21 + 0.4j)
                counts[jmax, np.ndim(z)] = len(calls)
            monkeypatch.setattr(C, "theta", theta_fun)
        assert counts == {(12, 0): 4, (12, 1): 4, (17, 0): 4, (17, 1): 4}

    def test_parity_forbidden_exact_zero(self):
        params = ModelParams(tau=2.5j / 4, r=1, L=4, s0=0.37 + 0.21j)
        val = T.one_point_barP(1, 0.17 - 0.08j, 0, 0, params, mode="closed")
        assert val == 0.0

    @pytest.mark.parametrize("L", [3, 4])
    def test_record_array_equals_per_record_calls(self, L):
        # every record of the model's table in one call: each row, and each
        # of its points, bit for bit the record's own call; even L includes
        # the records forbidden by parity
        params = ModelParams(tau=0.45j, r=1, L=L, s0=0.45j * L / 2)
        records = list(itertools.product(range(L), (0, 1), range(L - 1)))
        Z = np.linspace(-1.0, 1.0, 41) - 0.07j
        a, eps, t = np.array(records).T
        rows = T.one_point_barP(a, Z, eps, t, params)
        assert rows.shape == (len(records), len(Z))
        for row, (a, eps, t) in zip(rows, records):
            assert np.array_equal(row, T.one_point_barP(a, Z, eps, t, params))
            assert row[7] == T.one_point_barP(a, Z[7], eps, t, params)

    def test_parity_mask_before_the_overflow_check(self):
        # at Z = 20i an allowed L = 4 record overflows loudly; a forbidden
        # one is never evaluated and stays exactly zero
        params = ModelParams(tau=0.45j, r=1, L=4, s0=0.9j)
        with pytest.raises(AccuracyError, match="overflows"):
            T.one_point_barP(0, 20j, 0, 0, params)
        assert T.one_point_barP(1, 20j, 0, 0, params) == 0.0
        assert np.array_equal(T.one_point_barP([1, 3], [20j, 1j], 0, 0,
                                               params), np.zeros((2, 2)))

    def test_oracle_modes_are_refused(self, params_c):
        # the closed form is the one production form; the oracle forms are
        # functions of csoslab.contract
        with pytest.raises(ValueError, match="nu_sum"):
            T.one_point_barP(1, 0.0, 0, 0, params_c, mode="nu_sum")

    def test_normalization(self, params_c):
        for eps in (0, 1):
            for t in range(2):
                tot = sum(C.one_point_twist_sum(C._pbar_bethe_pair, a, 0.0,
                                                eps, t, params_c)
                          for a in range(3))
                assert abs(tot - 1.0) < 1e-9

    def test_gamma_independence(self, params_c):
        v1 = C.one_point_twist_sum(C._pbar_bethe_pair, 1, 0.1j, 0, 1,
                                   params_c, gamma=0.21 + 0.4j)
        v2 = C.one_point_twist_sum(C._pbar_bethe_pair, 1, 0.1j, 0, 1,
                                   params_c, gamma=0.33 + 0.52j)
        assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))

    def test_low_temperature_flat_pattern(self):
        # generic real phase angle: each flat label picks a single height,
        # monotonically in the ordered limit
        L, r = 3, 1
        target = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        prev_gap = {key: 1.0 for key in target}
        for tau_im in (0.05, 0.02, 0.01):
            tau = 1j * tau_im
            params = ModelParams(tau=tau, r=r, L=L,
                                 s0=0.3 + tau / (2 * r / L))
            for (eps, t), a_star in target.items():
                vals = np.array([T.one_point_barP(a, 0.0, eps, t, params,
                                                  mode="closed")
                                 for a in range(L)])
                assert np.all(np.abs(vals.imag) < 1e-10)
                assert np.all(vals.real > -1e-12)
                gap = abs(vals[a_star] - 1.0) + sum(
                    abs(vals[a]) for a in range(L) if a != a_star)
                # monotone until the double-precision floor
                assert gap < prev_gap[(eps, t)] or gap < 1e-11
                prev_gap[(eps, t)] = gap


class TestGroundProducts:
    @pytest.fixture(scope="class")
    @staticmethod
    def two_states():
        params = ModelParams(tau=0.2j, r=1, L=3, s0=0.41 + 0.13j)
        config = homogeneous_config(8)
        return (B.solve_ground_state(0, 1, config, params),
                B.solve_ground_state(1, 0, config, params))

    def test_phi_t_identical_sets(self, two_states):
        x, _ = two_states
        fin, _ = C.ground_products("phi_t", x, x, t=0.21 + 0.35j)
        assert abs(fin - 1.0) < 1e-12

    def test_phi_t_convergence(self, two_states):
        x, y = two_states
        fin, thermo = C.ground_products("phi_t", x, y, t=0.21 + 0.35j)
        assert abs(fin - thermo) < 1e-3

    def test_id_om(self, two_states):
        x, y = two_states
        fin, thermo = C.ground_products("id_om", x, y)
        assert abs(fin - thermo) < 1e-4

    def test_phi_zero(self, two_states):
        x, y = two_states
        fin, thermo = C.ground_products("phi_zero", x, y)
        rel = np.abs(fin - thermo) / np.abs(thermo)
        assert np.max(rel) < 1e-2


class TestMultiPoint:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        tau = 0.45j
        params = ModelParams(tau=tau, r=1, L=3, s0=tau / (2.0 / 3.0))
        ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
        return params, config

    def test_m0_reduces_to_one_point(self, setup):
        params, config = setup
        path0 = M.AdjacentPath(vertices=((1, 1),), heights=(1,))
        val, err = T.multipoint_lhp(path0, 0, 0, config, params)
        ref = T.one_point_barP(1, 0.0, 0, 0, params, mode="closed")
        assert val == ref and err == 0.0

    def test_marginalization_m1(self, setup):
        params, config = setup
        tot = 0.0j
        est = 0.0
        for a2 in (1, -1):
            v, e = T.multipoint_lhp(M.vertical_path((0, a2)), 0, 0, config,
                                    params, resolution=256)
            tot += v
            est += e
        ref = T.one_point_barP(0, 0.0, 0, 0, params, mode="closed")
        assert abs(tot - ref) <= max(est, 1e-12)

    def test_marginalization_m2(self, setup):
        params, config = setup
        v1, e1 = T.multipoint_lhp(M.vertical_path((0, 1)), 0, 0, config,
                                  params, resolution=128)
        tot = 0.0j
        est = 0.0
        for a3 in (2, 0):
            v, e = T.multipoint_lhp(M.vertical_path((0, 1, a3)), 0, 0,
                                    config, params, resolution=128)
            tot += v
            est += e
        assert abs(tot - v1) <= max(est + e1, 1e-10)

    def test_marginalization_m3(self, setup):
        params, config = setup
        v2, e2 = T.multipoint_lhp(M.vertical_path((0, 1, 2)), 0, 0, config,
                                  params, resolution=64)
        tot = 0.0j
        est = 0.0
        for a4 in (3, 1):
            v, e = T.multipoint_lhp(M.vertical_path((0, 1, 2, a4)), 0, 0,
                                    config, params, resolution=64)
            tot += v
            est += e
        assert abs(tot - v2) <= max(est + e2, 1e-10)

    def test_slabs_match_one_slab(self, setup, monkeypatch):
        params, config = setup
        path = M.vertical_path((0, 1, 2, 3))
        zt, fam, _ = T._classify_zetas(path, config, params)
        [one] = T._lhp_contour_sum(path, [(0, 0, 0)], zt, fam, params, 64)
        # slabs of 5 rows, the last one short
        monkeypatch.setattr(T, "SLAB_POINTS", 5 * 64 * 64)
        [split] = T._lhp_contour_sum(path, [(0, 0, 0)], zt, fam, params, 64)
        for got, want in zip(split, one):   # full grid, even subgrid
            assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("heights", [(0, 1, 2), (0, 1, 0), (0, 1, 2, 3)])
    def test_contour_sum_vs_pointwise(self, setup, monkeypatch, heights):
        # the same factor functions on the full meshgrid, each factor
        # evaluated at every point, for table records with nonzero labels
        # and height shifts, each against its own grid; combinations whose
        # frozen lambdas coincide are kept, the Cauchy core's theta1(0)
        # zeroes them
        params, config = setup
        path = M.vertical_path(heights)
        zt, fam, _ = T._classify_zetas(path, config, params)
        R = 16
        records = [(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 1)]
        sums = T._lhp_contour_sum(path, records, zt, fam, params, R)
        monkeypatch.setattr(T, "_distinct_sums",
                            lambda *terms: (sum(terms), None))
        m = path.m
        _, n_minus = M.slot_positions(path.alphas)
        mus = np.asarray(zt)
        nodes = -0.5 + np.arange(R) / R
        options = []
        for p in range(m):
            want, weight = (("shifted", 1.0) if p < n_minus
                            else ("plain", -1.0))
            options.append([None] + [(weight, z) for z, f in zip(zt, fam)
                                     if f == want])
        for (eps, t, shift), (got, _) in zip(records, sums):
            s1o = path.heights[0] + shift
            total = 0.0j
            for combo in itertools.product(*options):
                frozen = [c is not None for c in combo]
                free = [p for p in range(m) if not frozen[p]]
                lams = [c[1] if c else None for c in combo]
                grids = np.meshgrid(*[nodes] * len(free), indexing="ij")
                for p, grid in zip(free, grids):
                    lams[p] = grid.ravel()
                # in the contour sum's order: the core, each slot ratio,
                # then the one-point factor
                vals, [ratios] = T.integrand_core(
                    lams, [params.height(s1o)], path.alphas, mus, params,
                    frozen)
                for ratio in ratios:
                    vals = vals * ratio
                vals = vals * T.one_point_barP(s1o, sum(lams) - mus.sum(),
                                               eps, t, params, mode="closed")
                weight = math.prod(c[0] for c in combo if c is not None)
                total += weight * np.sum(vals) / R ** len(free)
            assert abs(total - got) <= 1e-14, (eps, t, shift)

    def test_points_grow_linearly(self, setup, monkeypatch):
        # every factor depends on one lambda, a difference or the sum, so
        # the evaluated points grow like the resolution, not its square
        params, config = setup
        points = [0]

        def counted(fun):
            def wrapper(kind, z, *args, **kwargs):
                points[0] += np.size(z)
                return fun(kind, z, *args, **kwargs)
            return wrapper

        def counted_outer(base, offsets, z, tau):
            points[0] += np.size(offsets) * np.size(z)
            return outer(base, offsets, z, tau)

        outer = T.theta3_log_outer
        monkeypatch.setattr(T, "theta", counted(T.theta))
        monkeypatch.setattr(T, "theta_log", counted(T.theta_log))
        monkeypatch.setattr(T, "theta3_log_outer", counted_outer)
        counts = {}
        for R in (64, 128):
            points[0] = 0
            T.multipoint_lhp(M.vertical_path((0, 1, 2)), 0, 0, config,
                             params, resolution=R)
            counts[R] = points[0]
        # 5,452 points at R = 128 (2,765 at R = 64)
        assert counts[128] <= 100 * 128
        assert counts[128] <= 2.5 * counts[64]

    @pytest.mark.parametrize("heights, calls", [((0, 1), 2), ((0, 1, 2), 7),
                                                ((0, 1, 2, 3), 37)])
    def test_one_evaluation_per_combination(self, setup, monkeypatch,
                                            heights, calls):
        # per residue combination and slab (m = 3: slabs of 5 rows) one
        # integrand core, one one-point call for all records, one theta
        # call at tau~ for all height shifts, one at eta~ and one
        # `_distinct_sums` per lambda pair besides the node sums' own: a
        # 12-record table makes the calls of a one-record call.  The m = 1
        # residue term has no eta~ factor: its lambda sits on the one mu,
        # so only the segment term calls theta at eta~
        params, config = setup
        monkeypatch.setattr(T, "SLAB_POINTS", 5 * 16 * 16)
        counts = {}

        def counted(name, fun, key=lambda *args, **kwargs: True):
            def wrapper(*args, **kwargs):
                if key(*args, **kwargs):
                    counts[name] += 1
                return fun(*args, **kwargs)
            return wrapper

        theta = T.theta
        for name in ("integrand_core", "one_point_barP", "_distinct_sums"):
            monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
        # the core is the one caller at the rotated modulus tau~ and the
        # one caller at eta~ but theta1'(0)
        monkeypatch.setattr(T, "theta", counted(
            "theta", counted("theta_eta", theta,
                             lambda kind, z, tau, order=0:
                             tau == params.eta_tilde and not order),
            lambda kind, z, tau, order=0: tau == params.tau_tilde))
        path = M.vertical_path(heights)
        pairs = path.m * (path.m - 1) // 2
        at_eta = 1 if path.m == 1 else calls
        labels = [(eps, t) for eps in (0, 1) for t in range(2)]
        for table in (([(0, 0)], [0]), (labels, range(3))):
            counts.update(integrand_core=0, one_point_barP=0, theta=0,
                          theta_eta=0, _distinct_sums=0)
            T.lhp_table(path, *table, config, params, 16)
            assert counts == dict(integrand_core=calls, one_point_barP=calls,
                                  theta=calls, theta_eta=at_eta,
                                  _distinct_sums=calls * (pairs + 1))

    @pytest.mark.parametrize("heights", [(0, 1), (0, 1, 2), (0, 1, 2, 3)])
    def test_estimate_is_the_half_resolution_gap(self, setup, heights):
        # one pass reads the R/2 sum off the even-indexed nodes; it equals
        # the sum of a separate call at R/2
        params, config = setup
        path = M.vertical_path(heights)
        zt, fam, _ = T._classify_zetas(path, config, params)
        R = 32
        _, est = T.multipoint_lhp(path, 0, 0, config, params, resolution=R)
        [(full, _)] = T._lhp_contour_sum(path, [(0, 0, 0)], zt, fam, params,
                                         R)
        [(half, _)] = T._lhp_contour_sum(path, [(0, 0, 0)], zt, fam, params,
                                         R // 2)
        assert abs(est - abs(full - half)) <= 1e-15

    @pytest.mark.parametrize("resolution", [7, 1, 0, -4])
    def test_resolution_must_be_even(self, setup, resolution):
        params, config = setup
        with pytest.raises(ValueError, match="even"):
            T.multipoint_lhp(M.vertical_path((0, 1)), 0, 0, config, params,
                             resolution=resolution)

    def test_quadrature_doubling(self, setup):
        params, config = setup
        path = M.vertical_path((0, 1))
        v256, est256 = T.multipoint_lhp(path, 0, 0, config, params,
                                        resolution=256)
        v512, _ = T.multipoint_lhp(path, 0, 0, config, params,
                                   resolution=512)
        assert abs(v512 - v256) <= max(est256, 1e-14)

    def test_accuracy_tolerance(self, setup):
        from csoslab.elliptic import AccuracyError
        params, config = setup
        path = M.vertical_path((0, 1))
        with pytest.raises(AccuracyError) as info:
            T.multipoint_lhp(path, 0, 0, config, params, resolution=8,
                             tolerance=1e-30)
        assert "bottom out" not in str(info.value)

    def test_m3_tolerance_error_names_the_floor(self, setup):
        # cancelling residue-combination sums give m = 3 estimates an
        # absolute rounding floor, which the error names
        from csoslab.elliptic import AccuracyError
        params, config = setup
        with pytest.raises(AccuracyError, match="bottom out near 5e-14"):
            T.multipoint_lhp(M.vertical_path((0, 1, 2, 3)), 0, 0, config,
                             params, resolution=16, tolerance=1e-14)

    def test_nan_estimate_fails_tolerance(self, setup, monkeypatch):
        from csoslab.elliptic import AccuracyError
        params, config = setup
        monkeypatch.setattr(
            T, "_lhp_contour_sum", lambda path, records, *args:
            [(complex("nan"), complex("nan"))] * len(records))
        with pytest.raises(AccuracyError):
            T.multipoint_lhp(M.vertical_path((0, 1)), 0, 0, config, params,
                             resolution=8, tolerance=1e-8)

    @staticmethod
    def _table_vs_single_calls(path, config, params, resolution, **kw):
        # every record of a table, value and estimate, to the bit, against
        # the one-record call on the shifted path
        labels = [(eps, t) for eps in (0, 1)
                  for t in range(params.L - params.r)]
        table = T.lhp_table(path, labels, range(params.L), config, params,
                            resolution, **kw)
        assert list(table) == [(eps, t, c) for eps, t in labels
                               for c in range(params.L)]
        for (eps, t, c), got in table.items():
            shifted = M.AdjacentPath(path.vertices,
                                     tuple(h + c for h in path.heights))
            assert got == T.multipoint_lhp(shifted, eps, t, config, params,
                                           resolution=resolution, **kw)

    @pytest.mark.parametrize("heights", [(0, 1), (0, -1), (0, 1, 2),
                                         (0, 1, 0), (0, 1, 2, 3)])
    def test_table_matches_single_calls(self, setup, heights):
        params, config = setup
        self._table_vs_single_calls(M.vertical_path(heights), config, params,
                                    16 if len(heights) == 4 else 64)

    def test_perturbed_table_matches_single_calls(self, setup):
        params, config = setup
        path = M.AdjacentPath(vertices=((1, 1), (2, 1), (1, 1)),
                              heights=(0, 1, 0))
        self._table_vs_single_calls(path, config, params, 32,
                                    perturb_degenerate=True)

    def test_slabbed_table_matches_single_calls(self, setup, monkeypatch):
        params, config = setup
        # slabs of 5 rows, the last one short
        monkeypatch.setattr(T, "SLAB_POINTS", 5 * 16 * 16)
        self._table_vs_single_calls(M.vertical_path((0, 1, 2, 3)), config,
                                    params, 16)

    def test_even_L_table_is_zero_for_odd_parity(self, setup):
        # L = 4, r = 1: a record whose eps + t - a is odd is exactly 0.0
        # with a zero estimate, the others are not
        _, config = setup
        params = ModelParams(tau=0.45j, r=1, L=4, s0=0.9j)
        labels = [(eps, t) for eps in (0, 1) for t in range(3)]
        table = T.lhp_table(M.vertical_path((0, 1, 2)), labels, range(4),
                            config, params, 32)
        for (eps, t, c), (val, est) in table.items():
            if (eps + t - c) % 2:
                assert val == 0.0 and est == 0.0
            else:
                assert val != 0.0

    def test_table_tolerance_error_is_the_first_records(self, setup):
        # the first record in report order above the tolerance raises, with
        # the text of its one-record call
        from csoslab.elliptic import AccuracyError
        params, config = setup
        path = M.vertical_path((0, 1))
        labels = [(eps, t) for eps in (0, 1)
                  for t in range(params.L - params.r)]
        tol, R = 1e-5, 8
        table = T.lhp_table(path, labels, range(params.L), config, params, R)
        over = [rec for rec, (_, est) in table.items() if est > tol]
        worst = max(table, key=lambda rec: table[rec][1])
        assert over and over[0] != worst
        eps, t, c = over[0]
        with pytest.raises(AccuracyError) as one:
            T.multipoint_lhp(M.vertical_path((c, 1 + c)), eps, t, config,
                             params, resolution=R, tolerance=tol)
        with pytest.raises(AccuracyError) as info:
            T.lhp_table(path, labels, range(params.L), config, params, R,
                        tolerance=tol)
        assert str(info.value) == str(one.value)

    def test_degenerate_pair_refused_and_perturbed(self, setup):
        params, config = setup
        # down then up through the same bond gives {xi~, xi~ - eta~}
        path = M.AdjacentPath(vertices=((1, 1), (2, 1), (1, 1)),
                              heights=(0, 1, 0))
        with pytest.raises(DegenerateConfigError, match="z_1 and z_2"):
            T.multipoint_lhp(path, 0, 0, config, params, resolution=64)
        val, est = T.multipoint_lhp(path, 0, 0, config, params,
                                    resolution=64, perturb_degenerate=True)
        assert np.isfinite(val)

    def test_degenerate_pair_vs_dense_oracle(self, setup):
        # the perturbation fallback reproduces the finite-size limit: the
        # dense route (which needs no determinant formulas) approaches it
        params, _ = setup
        path = M.AdjacentPath(vertices=((1, 1), (2, 1), (1, 1)),
                              heights=(0, 1, 0))
        ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)
        cfg = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
        ref, _ = T.multipoint_lhp(path, 0, 0, cfg, params, resolution=128,
                                  perturb_degenerate=True)
        devs = []
        for N in (4, 6):
            cfgN = LatticeConfig(N=N, xi=tuple(0.5 + 1j * y for y in ys[:N]))
            gs = B.all_ground_states(cfgN, params)
            fin = M.finite_lhp(path, ("flat", 0, 0), gs, method="brute")
            devs.append(abs(fin - ref))
        assert devs[0] > devs[1]
        assert devs[1] < 2e-4

    def test_finite_size_convergence_m1(self, setup):
        params, _ = setup
        path = M.vertical_path((1, 2))
        ref, _ = T.multipoint_lhp(path, 0, 0, homogeneous_config(4), params,
                                  resolution=256)
        devs = []
        for N in (4, 6, 8):
            gs = B.all_ground_states(homogeneous_config(N), params)
            fin = M.finite_lhp(path, ("flat", 0, 0), gs)
            devs.append(abs(fin - ref))
        assert devs[0] > devs[1] > devs[2]


class TestArgumentFamilies:
    """A path argument joins the plain or the shifted family by its value,
    whatever the step that carries it."""

    XI = tuple(0.5 + 1j * y for y in (0.04, -0.03, 0.02, -0.05))
    ROW_STEP = ((1, 1), (1, 2))

    def _table(self, vertices, w, params):
        config = LatticeConfig(N=4, xi=self.XI, w=w)
        path = M.AdjacentPath(vertices=vertices, heights=(1, 2))
        labels = [(eps, t) for eps in (0, 1)
                  for t in range(params.L - params.r)]
        return T.lhp_table(path, labels, range(params.L), config, params, 32)

    def test_row_step_on_xi_is_plain(self, params):
        # w_1 = xi_1: the row step's argument is the down step's
        assert (self._table(self.ROW_STEP, (self.XI[0],), params)
                == self._table(((1, 1), (2, 1)), (), params))

    def test_row_step_on_shifted_xi_is_shifted(self, params):
        # w_1 = xi_1 - 1: the row step's argument is the up step's
        assert (self._table(self.ROW_STEP, (self.XI[0] - 1,), params)
                == self._table(((2, 1), (1, 1)), (), params))

    def test_row_step_off_both_families_refused(self, params):
        with pytest.raises(ValueError, match="inhomogeneity family"):
            self._table(self.ROW_STEP, (0.3 + 0.1j,), params)
