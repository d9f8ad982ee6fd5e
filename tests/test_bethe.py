"""Ground-state solver, Bethe vectors, and eigenvalue checks."""

import cmath
import json
import math
import warnings

import numpy as np
import pytest

from csoslab.elliptic import ModelParams, SolverError
from csoslab.lattice import (LatticeConfig, StateVector, homogeneous_config,
                             monodromy_entry_apply, transfer_apply)
from csoslab import bethe as B
from csoslab import contract as C
from csoslab import elliptic as E
from csoslab import scalar as S


class TestBareFunctions:
    def test_momentum_odd_and_zero(self, params):
        assert abs(C.bare_momentum(0.0, params)) < 1e-14
        z = 0.27
        assert abs(C.bare_momentum(z, params)
                   + C.bare_momentum(-z, params)) < 1e-13

    def test_momentum_winding(self, params):
        # continuous branch gains 2 pi per unit shift
        lhs = C.bare_momentum(0.31 + 1.0, params)
        assert abs(lhs - C.bare_momentum(0.31, params) - 2 * math.pi) < 1e-12

    def test_phase_derivative_matches_fd(self, params):
        z, h = 0.21, 1e-6
        fd = (C.bare_phase(z + h, params) - C.bare_phase(z - h, params)) / (2 * h)
        assert abs(C.bare_phase(z, params, order=1) - fd) < 1e-7


class TestGroundStates:
    def test_four_distinct_solutions(self, params, ground4_homog):
        assert len(ground4_homog) == 4
        sets = [np.sort(r.x) for r in ground4_homog.values()]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.max(np.abs(sets[i] - sets[j])) > 1e-4

    def test_residuals_small(self, ground4_homog):
        for roots in ground4_homog.values():
            assert roots.residual < 1e-10
            assert np.max(np.abs(np.imag(roots.x))) == 0.0  # stored real

    def test_log_residual_at_origin(self, params, config4_homog):
        # single root at x=0: p0 and the phase sum vanish by oddness
        n = config4_homog.N // 2
        res = B.log_bethe_residual(np.zeros(1), 0, 1,
                                   homogeneous_config(2), params)
        pred = -2 * math.pi * (1 - (1 + 1) / 2 + (params.r + 2) / params.L)
        assert abs(res[0] - pred) < 1e-12

    def test_one_root_bisection_oracle(self, params):
        # N=2: single logarithmic equation solved independently by scanning
        # for a sign change and bisecting
        config = homogeneous_config(2)
        k, ell = 0, 1

        def f(x):
            return B.log_bethe_residual(np.array([x]), k, ell, config,
                                        params)[0]

        grid = np.linspace(-0.5, 1.5, 101)
        vals = [f(x) for x in grid]
        lo = hi = None
        for i in range(len(grid) - 1):
            if np.sign(vals[i]) != np.sign(vals[i + 1]):
                lo, hi = grid[i], grid[i + 1]
                break
        assert lo is not None
        flo = f(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.sign(f(mid)) == np.sign(flo):
                lo, flo = mid, f(mid)
            else:
                hi = mid
        solved = B.solve_ground_state(k, ell, config, params)
        assert abs(solved.x[0] - 0.5 * (lo + hi)) < 1e-9

    def test_symmetric_root_set_mod_period(self, params, ground4_homog):
        # the (0,0) homogeneous set is symmetric under x -> -x modulo the
        # real period: every root has a partner with x_i + x_j = 0 (mod 1)
        x = ground4_homog[(0, 0)].x
        for xi in x:
            sums = np.abs(xi + x - np.round(xi + x))
            assert np.min(sums) < 1e-9

    def test_perturbed_roots_have_residual(self, ground4_homog):
        roots = ground4_homog[(0, 1)]
        bumped = B.BetheRootSet(x=roots.x + 1e-3, k=roots.k, ell=roots.ell,
                                params=roots.params, config=roots.config)
        res = np.max(np.abs(B.bethe_residual(bumped)))
        assert 1e-5 < res < 1.0

    def test_coinciding_roots_are_a_numerical_failure(self, ground4_homog):
        # SolverError is a numerical failure (CLI exit 1), not a
        # configuration error
        roots = ground4_homog[(0, 1)]
        twin = B.BetheRootSet(x=np.full_like(roots.x, roots.x[0]),
                              k=roots.k, ell=roots.ell, params=roots.params,
                              config=roots.config)
        with pytest.raises(SolverError, match="coinciding Bethe roots"):
            B.bethe_residual(twin)
        # the set is measured, with no residual
        assert twin.memo["residual"] is None

    def test_invalid_labels(self, params, config4_homog):
        with pytest.raises(ValueError):
            B.solve_ground_state(2, 0, config4_homog, params)
        with pytest.raises(ValueError):
            B.solve_ground_state(0, 5, config4_homog, params)


def _mode_sum_cumulative(x, config, params, modes=80):
    """The integral of rho_tot from -1/2 to x (x real, any shape), its
    first `modes` Fourier modes summed one at a time."""
    x = np.asarray(x, dtype=float)
    total = (x + 0.5) / 2.0
    coeffs = B.density_fourier(np.arange(1, modes + 1), config, params)
    for m, c in enumerate(coeffs.tolist(), start=1):
        term = np.exp(2j * math.pi * m * x) - cmath.exp(-1j * math.pi * m)
        total = total + 2.0 * (term * c / (2j * math.pi * m)).real
    return total


def _targets(n, labels, config, params):
    """The density quantile of each root of each label's row."""
    return np.array([(np.arange(1, n + 1) + k - (n + 1) / 2.0
                      + (params.r * n + 2.0 * ell) / params.L) / config.N
                     + 0.25 for k, ell in labels])


def _clipped_bisection_seed(n, labels, config, params):
    """An older seed, kept to reach a Newton failure: the quantile targets
    clipped to [0.02, 0.48] and never wound, each bisected in 20 halvings
    of [-1/2, 1/2]."""
    targets = np.clip(_targets(n, labels, config, params), 0.02, 0.48)
    lo, hi = np.full(targets.shape, -0.5), np.full(targets.shape, 0.5)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        below = _mode_sum_cumulative(mid, config, params) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.sort(0.5 * (lo + hi), axis=-1)


class TestSeed:
    @pytest.mark.parametrize("N", [8, 16, 24])
    def test_vectorised_seed_matches_scalar_bisection(self, params, N):
        # the seed's cumulative density, one inverse FFT, equals the sum of
        # its 80 modes taken one at a time at every grid point
        ys = np.linspace(-0.05, 0.05, N)
        configs = (homogeneous_config(N),
                   LatticeConfig(N=N, xi=tuple(0.5 + 1j * y for y in ys)))
        grid = np.arange(513) / 512 - 0.5
        for config in configs:
            ref = _mode_sum_cumulative(grid, config, params)
            assert np.max(np.abs(B._cumulative_grid(config, params)
                                 - ref)) <= 1e-15

    @pytest.mark.parametrize("N", [8, 16])
    def test_column_seeds_equal_per_state_seeds(self, params, N,
                                                monkeypatch):
        # all_ground_states seeds its column in one call; every row
        # equals the state's own seed bit for bit
        config = LatticeConfig(N=N, xi=tuple(
            0.5 + 1j * y for y in np.linspace(-0.05, 0.05, N)))
        batches = []

        def recorded(n, labels, cfg, prm):
            out = guess(n, labels, cfg, prm)
            batches.append((list(labels), out))
            return out

        guess = B._initial_guess
        monkeypatch.setattr(B, "_initial_guess", recorded)
        gs = B.all_ground_states(config, params)
        monkeypatch.setattr(B, "_initial_guess", guess)
        ((labels, seeds),) = batches
        assert labels == sorted(gs)
        for label, row in zip(labels, seeds):
            own = guess(N // 2, [label], config, params)[0]
            assert np.array_equal(row, own)
            assert np.array_equal(np.signbit(row), np.signbit(own))

    def test_cached_column_runs_no_bisection(self, params, tmp_path,
                                             monkeypatch):
        # neither the seed nor the Newton loop runs for a cached column,
        # and its 4 labels are accepted in one bracket call
        config = homogeneous_config(6)
        first = B.all_ground_states(config, params, cache_dir=str(tmp_path))

        def refuse(*args):
            raise AssertionError("seed or Newton run for a cached state")

        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        monkeypatch.setattr(B, "_initial_guess", refuse)
        monkeypatch.setattr(B, "_newton", refuse)
        monkeypatch.setattr(ModelParams, "bracket", counted)
        again = B.all_ground_states(config, params, cache_dir=str(tmp_path))
        assert len(calls) == 1
        assert sorted(again) == sorted(first) and len(first) == 4
        for key, roots in again.items():
            assert np.array_equal(roots.x, first[key].x)
            assert roots.residual == first[key].residual

    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("L, r", [(3, 1), (5, 2), (4, 1)])
    def test_seed_halvings_move_roots_by_round_off(self, L, r, N):
        # the seed interpolates the cumulative density on a grid of step
        # 1/512; Newton from it and from the exact quantiles on the
        # winding line (60 halvings) lands on the same roots to round-off
        params = _physical(L, r)
        config = homogeneous_config(N)
        n = N // 2
        labels = [(k, ell) for k in (0, 1) for ell in range(L - r)]
        targets = _targets(n, labels, config, params)
        wind = np.floor(2.0 * targets)
        lo, hi = np.full(targets.shape, -0.5), np.full(targets.shape, 0.5)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = (_mode_sum_cumulative(mid, config, params)
                     < targets - wind / 2.0)
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        exact = 0.5 * (lo + hi) + wind
        seed = B._initial_guess(n, labels, config, params)
        assert 1e-9 < np.max(np.abs(seed - exact)) < 1e-5
        x_exact, _, rnorm_exact, _ = B._newton(exact, labels, config, params)
        x_seed, _, rnorm_seed, _ = B._newton(seed, labels, config, params)
        assert np.max(rnorm_exact) <= 1e-13 and np.max(rnorm_seed) <= 1e-13
        assert np.max(np.abs(x_seed - x_exact)) <= 1e-13

    def test_density_fourier_array_matches_scalar(self, params, config4):
        ms = np.arange(-5, 6)
        arr = B.density_fourier(ms, config4, params)
        assert arr.shape == ms.shape
        for m, val in zip(ms, arr):
            assert val == B.density_fourier(int(m), config4, params)

    def test_density_fourier_at_small_im_tau(self):
        # at tau = 0.1i, pi m |eta~| passes the cosh overflow from mode 68:
        # those factors are 0, so the coefficients stay finite, no
        # floating-point warning is raised, the quantile seeds are finite
        # and strictly increasing along each row (a NaN mode put every
        # seed at -0.4999995) and the family solves
        params = _physical(3, 1, tau=0.1j)
        config = homogeneous_config(8)
        labels = [(k, ell) for k in (0, 1) for ell in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            coeffs = B.density_fourier(np.arange(1, 81), config, params)
            seeds = B._initial_guess(4, labels, config, params)
            family = B.all_ground_states(config, params)
        assert np.all(np.isfinite(coeffs)) and np.all(coeffs[67:] == 0.0)
        assert np.all(np.diff(seeds, axis=-1) > 0.0)
        assert sorted(family) == labels
        assert max(roots.residual for roots in family.values()) <= 1e-13


def _physical(L, r, tau=0.45j):
    return ModelParams(tau=tau, r=r, L=L, s0=tau * L / (2 * r))


class TestFamilyNewton:
    """all_ground_states solves the uncached labels of a column as one
    stack in one Newton loop; each label comes out as its own solve."""

    @pytest.mark.parametrize("L, r", [(3, 1), (5, 2)])
    def test_family_equals_one_label_solves(self, L, r):
        params = _physical(L, r)
        config = homogeneous_config(8)
        gs = B.all_ground_states(config, params)
        for (k, ell), roots in gs.items():
            own = B.solve_ground_state(k, ell, config, params)
            assert roots.x.tobytes() == own.x.tobytes()
            assert roots.newton_iters == own.newton_iters
            assert roots.residual == own.residual
        if (L, r) == (3, 1):
            # labels leave the stack at different steps
            assert sorted({r_.newton_iters for r_ in gs.values()}) == [4, 5]

    def test_passes_do_not_grow_with_labels(self, monkeypatch):
        # one _log_ratio_odd pass per Newton trial serves the whole family:
        # K = 4, 6 and 8 labels at N = 8 make as many passes as the slowest
        # label alone
        ratio = B._log_ratio_odd
        calls = []

        def counted(*args):
            calls.append(1)
            return ratio(*args)

        monkeypatch.setattr(B, "_log_ratio_odd", counted)
        config = homogeneous_config(8)
        for L, r in ((3, 1), (5, 2), (7, 3)):
            params = _physical(L, r)
            calls.clear()
            gs = B.all_ground_states(config, params)
            family = len(calls)
            alone = []
            for k, ell in gs:
                calls.clear()
                B.solve_ground_state(k, ell, config, params)
                alone.append(len(calls))
            assert family == max(alone), (L, r, family, alone)

    def test_stacked_residual_and_jacobian_equal_rows(self, params):
        config = homogeneous_config(8)
        labels = [(k, ell) for k in (0, 1) for ell in range(2)]
        x = B._initial_guess(4, labels, config, params)
        k, ell = np.array(labels).T
        res, jac = B._bethe_system(x, k, ell, config, params)
        for row, (kk, ll) in enumerate(labels):
            own = B._bethe_system(x[row], kk, ll, config, params)
            assert np.array_equal(res[row], own[0])
            assert np.array_equal(jac[row], own[1])

    @pytest.mark.parametrize("L, r, tau, iters, first", [
        (6, 1, 0.8j, 11, (0, 4)), (5, 1, 1j, 15, (0, 3))])
    def test_failing_family_raises_first_failing_label(
            self, tmp_path, monkeypatch, L, r, tau, iters, first):
        # both models solve from the density quantiles on the winding
        # line; the older clipped seed still makes them fail
        monkeypatch.setattr(B, "_initial_guess", _clipped_bisection_seed)
        params = ModelParams(tau=tau, r=r, L=L, s0=tau * L / (2 * r))
        config = homogeneous_config(4)
        with pytest.raises(SolverError) as fam:
            B.all_ground_states(config, params, cache_dir=str(tmp_path))
        assert str(fam.value) == f"no convergence after {iters} iterations"
        with pytest.raises(SolverError) as own:
            B.solve_ground_state(*first, config, params)
        assert str(own.value) == str(fam.value)
        assert np.array_equal(own.value.best, fam.value.best)
        assert own.value.residual == fam.value.residual
        # the labels before the failing one are solved and stored
        labels = [(k, ell) for k in (0, 1) for ell in range(L - r)]
        assert len(list(tmp_path.glob("*.json"))) == labels.index(first)

    @pytest.mark.parametrize("L, r, tau, Ns", [
        (6, 1, 0.8j, (4, 6)), (5, 1, 1j, (4,)), (3, 1, 3j, (32,))])
    def test_models_the_clipped_seed_failed_solve(self, rng, L, r, tau, Ns):
        # the winding seed solves what the clipped seed left to Newton
        # failure, and the small columns are eigenstates
        params = _physical(L, r, tau=tau)
        for N in Ns:
            gs = B.all_ground_states(homogeneous_config(N), params)
            for roots in gs.values():
                assert roots.residual <= 1e-10
                if N > 6:
                    continue
                for _ in range(2):
                    u = complex(rng.uniform(-0.4, 0.4),
                                rng.uniform(-0.2, 0.2))
                    scale = max(1.0, abs(B.eigenvalue_tau(u, roots)))
                    assert B.eigenstate_residual(roots, u) / scale < 1e-8

    def test_singular_jacobian_stops_its_label_only(self, params,
                                                     monkeypatch):
        config = homogeneous_config(4)
        labels = [(0, 0), (1, 1)]
        x0 = B._initial_guess(2, labels, config, params)
        alone = B._newton(x0[1:], labels[1:], config, params)
        system = B._bethe_system

        def singular_first(x, *args):
            res, jac = system(x, *args)
            if len(x) == 2:     # while both labels iterate
                jac[0] = 0.0
            return res, jac

        monkeypatch.setattr(B, "_bethe_system", singular_first)
        x, iters, rnorm, errors = B._newton(x0, labels, config, params)
        assert str(errors[0]) == "singular Jacobian at iteration 0"
        assert np.array_equal(errors[0].best, x0[0]) and iters[0] == 0
        assert errors[1] is None
        assert x[1].tobytes() == alone[0][0].tobytes()
        assert iters[1] == alone[1][0] and rnorm[1] == alone[2][0]

    def test_partly_cached_column(self, params, tmp_path, monkeypatch):
        # a column missing one cache file solves that label alone and
        # serves the rest from the cache
        config = homogeneous_config(6)
        cold = B.all_ground_states(config, params)
        B.all_ground_states(config, params, cache_dir=str(tmp_path))
        gone = (1, 0)
        (tmp_path / (B._cache_key(*gone, config, params) + ".json")).unlink()
        newton = B._newton
        solved = []

        def recorded(x, labels, cfg, prm):
            solved.append(list(labels))
            return newton(x, labels, cfg, prm)

        monkeypatch.setattr(B, "_newton", recorded)
        again = B.all_ground_states(config, params, cache_dir=str(tmp_path))
        assert solved == [[gone]]
        assert list(again) == list(cold)
        for label, roots in again.items():
            assert roots.x.tobytes() == cold[label].x.tobytes()
        assert len(list(tmp_path.glob("*.json"))) == len(cold)


class TestNewtonStep:
    def test_phase_minus_half_is_the_transpose(self, monkeypatch):
        # the phase term evaluates theta1 and theta1' at eta~ + d only: a
        # pass of the N = 16 family takes 320 theta points, not 576, and
        # its residuals and Jacobians, and the roots, step counts and
        # residuals of the solve, are those of both halves, bit for bit
        params = _physical(3, 1)
        config = homogeneous_config(16)
        labels = [(k, ell) for k in (0, 1) for ell in range(2)]
        x = B._initial_guess(8, labels, config, params)
        k, ell = np.array(labels).T
        rows, ratio = B._theta_rows, B._log_ratio_odd
        points = []

        def counted(kind, z, tau, order):
            points.append(np.size(z))
            return rows(kind, z, tau, order)

        monkeypatch.setattr(B, "_theta_rows", counted)
        one = B._bethe_system(x, k, ell, config, params)
        monkeypatch.setattr(B, "_theta_rows", rows)
        gs = B.all_ground_states(config, params)
        # both halves of every term
        monkeypatch.setattr(B, "_log_ratio_odd",
                            lambda terms, tau_t, antisymmetric=():
                            ratio(terms, tau_t))
        assert points == [320]
        both = B._bethe_system(x, k, ell, config, params)
        for half, other in zip(one, both):
            assert half.tobytes() == other.tobytes()
        for key, roots in B.all_ground_states(config, params).items():
            assert np.array_equal(gs[key].x, roots.x)
            assert gs[key].newton_iters == roots.newton_iters
            assert gs[key].residual == roots.residual

    def test_theta_calls_do_not_grow_with_N(self, params, monkeypatch):
        # the log residual and its Jacobian take theta1 and theta1' from
        # one series sum at any N; bethe sums theta series only there
        assert not hasattr(B, "theta")
        rows = B._theta_rows
        calls = []

        def counted(*args):
            calls.append(1)
            return rows(*args)

        monkeypatch.setattr(B, "_theta_rows", counted)
        counts = {}
        for N in (8, 16):
            config = homogeneous_config(N)
            x = B._initial_guess(N // 2, [(0, 0)], config, params)[0]
            calls.clear()
            B._bethe_system(x, 0, 0, config, params)
            counts[N] = len(calls)
        assert counts[8] == counts[16] == 1, counts

    @pytest.mark.parametrize("N", [8, 12, 16])
    def test_theta_series_per_fresh_family(self, N, monkeypatch):
        # a fresh family solve of the converge model: one series sum at
        # the start, one per Newton trial (the slowest label takes 5 steps
        # and no halving), one in _measure for the Jacobian and one for its
        # brackets; a step takes no Jacobian pass of its own
        params = _physical(3, 1)
        calls = []

        def counted(fun):
            def wrapper(*args):
                calls.append(1)
                return fun(*args)
            return wrapper

        monkeypatch.setattr(B, "_theta_rows", counted(B._theta_rows))
        monkeypatch.setattr(E, "_theta_rows", counted(E._theta_rows))
        gs = B.all_ground_states(homogeneous_config(N), params)
        assert len(calls) == 8
        assert [roots.newton_iters for roots in gs.values()] == [4, 5, 5, 5]

    def test_derivative_on_complex_typed_real_nodes(self, params):
        # kernel_direct passes real nodes typed as complex: they are
        # reduced by their real part, with no cast to float, and the
        # derivative rows match a central difference of the values
        z, h = np.array([-0.73, -0.21, 0.0, 0.34, 1.62]), 1e-6
        for kernel, fun in (("K", C.bare_phase), ("p0prime",
                                                  C.bare_momentum)):
            got = C.kernel_direct(kernel, z.astype(complex), params)
            fd = (fun(z + h, params) - fun(z - h, params)) / (2 * h)
            if kernel == "K":
                fd = fd / (2 * math.pi)
            assert got.dtype == complex
            assert np.max(np.abs(got - fd)) < 1e-7
            assert np.array_equal(got, fun(z, params, order=1) / (
                2 * math.pi if kernel == "K" else 1))

    @pytest.mark.parametrize("ys", [(0.0,) * 8, (0.02, -0.03) * 4])
    def test_p0_one_column_per_distinct_shift(self, params, ys,
                                              monkeypatch):
        # sites with equal xi share one theta column; p0_tot is the mean of
        # one column per site, bit for bit
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
        x = B._initial_guess(4, [(0, 0), (1, 1)], config, params)
        sites = x[..., None] - B.momentum_shifts(config, params)
        rows = B._theta_rows
        points = []

        def counted(kind, z, tau, order):
            points.append(np.size(z))
            return rows(kind, z, tau, order)

        (got,) = B._log_ratio_odd([(sites, params.eta_tilde / 2.0)],
                                  params.tau_tilde)
        for order in (0, 1):
            ref = got[order].mean(axis=-1)
            assert np.array_equal(B.p0_tot(x, config, params, order), ref)
        monkeypatch.setattr(B, "_theta_rows", counted)
        B.p0_tot(x, config, params, 1)
        assert points == [2 * x.size * len(set(ys))]

    def test_stacked_terms_equal_single_terms(self, params, config4):
        # the momentum and phase terms of the residual and the Jacobian
        # share one theta call; each equals its own p0_tot / bare_phase
        # evaluation, bit for bit
        x = B._initial_guess(2, [(1, 0)], config4, params)[0]
        n, N, eta = len(x), config4.N, params.eta
        res, jac = B._bethe_system(x, 1, 0, config4, params)
        phase, dphase = (C.bare_phase(x[:, None] - x[None, :], params,
                                      order=order) for order in (0, 1))
        rhs = 2.0 * math.pi * (np.arange(1, n + 1) + 1 - (n + 1) / 2.0
                               + params.r * n / params.L
                               + 2.0 * eta * np.sum(x)
                               + eta * B.xibar(config4, params))
        assert np.array_equal(
            res, N * B.p0_tot(x, config4, params) - phase.sum(axis=-1) - rhs)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(jac[off], dphase[off] - 4.0 * math.pi * eta)
        rows = dphase.real.sum(axis=-1) + 1j * dphase.imag.sum(axis=-1)
        assert np.array_equal(
            np.diag(jac), N * B.p0_tot(x, config4, params, 1) - rows
            + np.diag(dphase) - 4.0 * math.pi * eta)


class TestEigenstates:
    def test_right_eigenstate_residuals(self, params, ground4_homog, rng):
        for roots in ground4_homog.values():
            for _ in range(3):
                u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
                assert B.eigenstate_residual(roots, u) < 1e-8

    def test_left_eigenstate_residual(self, params, ground4_homog):
        roots = ground4_homog[(1, 0)]
        assert B.eigenstate_residual(roots, 0.23 + 0.11j, side="left") < 1e-8

    def test_left_right_same_eigenvalue(self, params, ground4_homog):
        # both checks run against the same tau(u), so agreement of both
        # residuals pins the left/right eigenvalues together
        roots = ground4_homog[(0, 1)]
        u = -0.17 + 0.21j
        assert B.eigenstate_residual(roots, u) < 1e-8
        assert B.eigenstate_residual(roots, u, side="left") < 1e-8

    def test_tau_pole_cancellation(self, params, ground4_homog):
        roots = ground4_homog[(0, 0)]
        v1 = roots.v[0]
        near = B.eigenvalue_tau(v1 + 1e-6, roots)
        nearer = B.eigenvalue_tau(v1 + 1e-7, roots)
        assert abs(near - nearer) / abs(near) < 1e-4

    def test_empty_root_set_eigenvalue(self, params):
        # n = 0 sector needs N = aleph L; the transfer acts diagonally on
        # the twist-dressed reference state
        config = homogeneous_config(6)
        roots = B.BetheRootSet(x=np.zeros(0), k=0, ell=0, params=params,
                               config=config)
        assert roots.aleph == 2
        omega = 1.0  # omega^L = (-1)^{r n} = 1, take the trivial twist
        state = StateVector.reference(config, params).scale_heights(
            [omega ** 1] * params.L)
        u = 0.27 + 0.1j
        out = transfer_apply(u, state)
        tau_val = (omega   # a(u) = 1
                   + (-1) ** (params.r * roots.aleph) / omega * roots.d_fun(u))
        assert np.max(np.abs(out.amps - tau_val * state.amps)) < 1e-10

    @pytest.mark.parametrize("N", [4, 8])
    def test_phi_weights_one_bracket_call_per_vector(self, params, N,
                                                     monkeypatch):
        # the L height weights of a vector come from one bracket call at
        # n = 2 and n = 4, each equal to its scalar product, bit for bit
        config = homogeneous_config(N)
        x = B._initial_guess(N // 2, [(0, 1)], config, params)[0]
        roots = B.BetheRootSet(x=x, k=0, ell=1, params=params, config=config)
        br = params.bracket
        for dual in (False, True):
            got = B._phi_weights(roots, dual=dual)
            for a, val in enumerate(got):
                s = params.height(a)
                ref = roots.omega_pow(-s if dual else s) / math.sqrt(params.L)
                for j in range(roots.n):
                    ref *= (br(s + j) / br(1) if dual
                            else br(1) / br(s - (j + 1)))
                assert type(val) is complex and val == ref
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        # the monodromy entries make their own calls: leave them out
        monkeypatch.setattr(B, "monodromy_entry_apply",
                            lambda entry, u, state, dual=False: state)
        monkeypatch.setattr(ModelParams, "bracket", counted)
        for side in ("right", "left"):
            calls.clear()
            B.bethe_vector(roots, side=side)
            assert len(calls) == 1


class TestSiteProducts:
    ZS = (0.29 + 0.18j, -0.361 - 0.035j, 0.1 - 0.2j)

    def test_d_fun_matches_site_loop(self, params, ground4):
        roots = ground4[(1, 0)]
        br = params.bracket
        for z in self.ZS:
            ref = 1.0
            for xi in roots.config.xi:
                ref *= br(z - xi) / br(z - xi + 1)
            got = roots.d_fun(z)
            assert type(got) is complex
            assert abs(got - ref) <= 1e-15 * abs(ref)
        arr = roots.d_fun(np.array(self.ZS))
        assert arr.shape == (3,)
        assert all(a == roots.d_fun(z) for a, z in zip(arr, self.ZS))

    @pytest.mark.parametrize("eps", [1, -1])
    def test_lambda_pm_matches_site_loop(self, params, ground4, eps):
        roots = ground4[(0, 1)]
        br = params.bracket
        half = (1 - eps) // 2     # lambda_pm returns (Lambda_+, Lambda_-)
        for z in self.ZS:
            ref = eps * roots.omega ** (eps - 1)
            for xi in roots.config.xi:
                ref *= br(z - xi + (1 + eps) // 2)
            for vj in roots.v:
                ref *= br(vj - z + eps)
            got = B.lambda_pm(z, roots)[half]
            assert type(got) is complex
            assert abs(got - ref) <= 1e-15 * abs(ref)
        arr = B.lambda_pm(np.array(self.ZS), roots)[half]
        assert all(a == B.lambda_pm(z, roots)[half]
                   for a, z in zip(arr, self.ZS))

    def test_bethe_residual_matches_pair_loop(self, params, ground4):
        # roots moved off the solution, so the defect is not rounding
        solved = ground4[(1, 1)]
        roots = B.BetheRootSet(x=solved.x + [0.01, -0.02], k=1, ell=1,
                               params=params, config=solved.config)
        br, v = params.bracket, roots.v
        sgn = (-1.0) ** (params.r * roots.aleph)
        got = B.bethe_residual(roots)
        for j in range(roots.n):
            lhs = 1.0
            rhs = sgn * roots.omega ** (-2) * roots.d_fun(v[j])
            for l in range(roots.n):
                if l != j:
                    lhs *= br(v[l] - v[j] + 1) / br(v[l] - v[j])
                    rhs *= br(v[j] - v[l] + 1) / br(v[j] - v[l])
            ref = (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            assert abs(ref) > 1e-3
            assert abs(got[j] - ref) <= 1e-14 * max(1.0, abs(lhs), abs(rhs))

    def test_eigenvalue_matches_site_loop(self, params, ground4):
        roots = ground4[(0, 1)]
        br = params.bracket
        for z in self.ZS:
            ref = B.scaled_eigenvalue(z, roots)
            for xi in roots.config.xi:
                ref /= br(z - xi + 1)
            assert B.eigenvalue_tau(z, roots) == ref


def _formula_residuals(family):
    """The reference for bethe_residual: the defect of each root set of one
    family from a bracket call of its own on the four off-diagonal arrays
    [v_j - v_i + 1], [v_j - v_i], [v_i - v_j + 1], [v_i - v_j] and d's
    site brackets."""
    params, n = family[0].params, family[0].n
    v = np.array([roots.v for roots in family])
    dv = (v[:, :, None] - v[:, None, :])[:, ~np.eye(n, dtype=bool)].reshape(
        len(family), n, n - 1)
    brs, num, den = params.brackets(
        np.stack([-dv + 1, -dv, dv + 1, dv], axis=1), *family[0]._d_args(v))
    out = []
    for roots, br, nu, de in zip(family, brs, num, den):
        sgn = (-1.0) ** (params.r * roots.aleph)
        lhs = np.prod(br[0] / br[1], axis=1)
        rhs = (sgn * roots.omega ** (-2) * np.prod(nu / de, axis=-1)
               * np.prod(br[2] / br[3], axis=1))
        out.append((lhs - rhs) / np.maximum(
            1.0, np.maximum(np.abs(lhs), np.abs(rhs))))
    return out


class TestMeasure:
    """One pass per family measures what depends on the roots alone: the
    residual, d, the Gaudin matrix and the norm."""

    @pytest.mark.parametrize("L, r", [(3, 1), (5, 2), (4, 1)])
    def test_residual_equals_its_own_bracket_call(self, L, r):
        family = list(B.all_ground_states(homogeneous_config(6),
                                          _physical(L, r)).values())
        # off the solution too, so the defect is not rounding
        bumped = [B.BetheRootSet(x=roots.x + 1e-3 * np.arange(roots.n),
                                 k=roots.k, ell=roots.ell,
                                 params=roots.params, config=roots.config)
                  for roots in family]
        for sets in (family, bumped):
            for roots, ref in zip(sets, _formula_residuals(sets)):
                got = B.bethe_residual(roots)
                assert got.tobytes() == ref.tobytes()
                assert not got.flags.writeable
        # the acceptance read the same defect
        assert [roots.residual for roots in family] == [
            float(np.max(np.abs(ref))) for ref in _formula_residuals(family)]

    @pytest.mark.parametrize("L, r", [(3, 1), (5, 2)])
    def test_family_entries_equal_sets_measured_alone(self, L, r):
        config, params = homogeneous_config(6), _physical(L, r)
        family = B.all_ground_states(config, params)
        for key, roots in family.items():
            alone = B.BetheRootSet(x=roots.x.copy(), k=roots.k,
                                   ell=roots.ell, params=params,
                                   config=config)
            got, = B._measure([alone])
            assert set(roots.memo) == set(got) == B.MEASURES
            for name in sorted(B.MEASURES):
                assert np.asarray(roots.memo[name]).tobytes() == \
                    np.asarray(got[name]).tobytes(), (key, name)

    def test_cached_family_norms_from_one_pass(self, tmp_path, monkeypatch):
        # a family served by the root cache is measured once as it is
        # accepted: its norms cost no further bracket call or Jacobian
        config, params = homogeneous_config(6), _physical(5, 2)
        B.all_ground_states(config, params, cache_dir=str(tmp_path))
        bracket, system = ModelParams.bracket, B._bethe_system
        brackets, jacobians = [], []

        def counted_bracket(self, u, order=0):
            brackets.append(1)
            return bracket(self, u, order=order)

        def counted_jacobian(*args):
            jacobians.append(1)
            return system(*args)

        monkeypatch.setattr(ModelParams, "bracket", counted_bracket)
        monkeypatch.setattr(B, "_bethe_system", counted_jacobian)
        family = B.all_ground_states(config, params, cache_dir=str(tmp_path))
        norms = [S.norm_det(roots) for roots in family.values()]
        assert len(family) == 6 and all(np.isfinite(norms))
        assert (len(brackets), len(jacobians)) == (1, 1)


class TestHeightProjection:
    def test_projection_is_twist_combination(self, params, ground4_homog):
        # fixing the height at site 1 turns a Bethe state into the discrete
        # Fourier combination of the L twist-rotated Bethe-type states
        import cmath
        from csoslab.lattice import local_operator_apply
        roots = ground4_homog[(0, 1)]
        config = roots.config
        L = params.L
        rv = B.bethe_vector(roots, side="right")
        for a in (0, 2):
            s = params.height(a)
            lhs = local_operator_apply("delta", rv, i=1, a=a)
            rhs = StateVector(config, params)
            base = StateVector.reference(config, params)
            for vj in roots.v:
                base = monodromy_entry_apply("B", vj, base)
            for j in range(L):
                log_om = roots.log_omega + 2j * math.pi * j / L

                def phi(sv, lo=log_om):
                    out = cmath.exp(sv * lo) / math.sqrt(L)
                    for jj in range(1, roots.n + 1):
                        out *= params.bracket(1) / params.bracket(sv - jj)
                    return out

                rot = base.scale_heights(
                    [phi(params.height(b)) for b in range(L)])
                rhs.amps += cmath.exp(-2j * math.pi * j * s / L) / L * rot.amps
            assert np.max(np.abs(lhs.amps - rhs.amps)) < 1e-12


class TestThermoLimitDiagnostics:
    def test_sum_rule(self):
        # ordered regime: difference of root sums approaches the rational
        # prediction exponentially fast
        params = ModelParams(tau=0.2j, r=1, L=3, s0=0.41 + 0.13j)
        config = homogeneous_config(8)
        a = B.solve_ground_state(0, 0, config, params)
        b = B.solve_ground_state(1, 0, config, params)
        pred = (params.L * (a.k - b.k) + 2 * (a.ell - b.ell)) \
            / (2 * (params.L - params.r))
        assert abs(a.sum_x() - b.sum_x() - pred) < 1e-6

    def test_twist_phase_identity(self):
        params = ModelParams(tau=0.2j, r=1, L=3, s0=0.41 + 0.13j)
        config = homogeneous_config(8)
        a = B.solve_ground_state(0, 1, config, params)
        b = B.solve_ground_state(1, 0, config, params)
        lhs = np.exp(2j * math.pi * (1 - params.eta)
                     * (a.sum_x() - b.sum_x()))
        rhs = np.exp(1j * math.pi * (a.k - b.k)) * a.omega / b.omega
        assert abs(lhs - rhs) < 1e-5


class TestCache:
    def test_roundtrip(self, params, tmp_path):
        config = homogeneous_config(4)
        first = B.solve_ground_state(0, 0, config, params,
                                     cache_dir=str(tmp_path))
        assert len(list(tmp_path.glob("*.json"))) == 1
        second = B.solve_ground_state(0, 0, config, params,
                                      cache_dir=str(tmp_path))
        assert np.array_equal(first.x, second.x)
        assert second.residual == first.residual

    def _cached_file(self, params, tmp_path):
        config = homogeneous_config(4)
        first = B.solve_ground_state(0, 0, config, params,
                                     cache_dir=str(tmp_path))
        (path,) = tmp_path.glob("*.json")
        return config, first, path

    def test_stale_roots_are_resolved(self, params, tmp_path):
        config, first, path = self._cached_file(params, tmp_path)
        doc = json.loads(path.read_text())
        doc["x"] = [x + 1e-3 for x in doc["x"]]
        path.write_text(json.dumps(doc))
        again = B.solve_ground_state(0, 0, config, params,
                                     cache_dir=str(tmp_path))
        assert np.max(np.abs(again.x - first.x)) < 1e-12
        assert again.residual <= 1e-10
        # the re-solved roots replace the stale file
        assert np.allclose(json.loads(path.read_text())["x"], first.x,
                           rtol=0, atol=1e-12)

    def test_coinciding_roots_are_resolved(self, params, tmp_path):
        config, first, path = self._cached_file(params, tmp_path)
        doc = json.loads(path.read_text())
        doc["x"] = [doc["x"][0]] * len(doc["x"])
        path.write_text(json.dumps(doc))
        again = B.solve_ground_state(0, 0, config, params,
                                     cache_dir=str(tmp_path))
        assert np.max(np.abs(again.x - first.x)) < 1e-12
        assert again.residual <= 1e-10

    def test_truncated_file_is_resolved(self, params, tmp_path):
        config, first, path = self._cached_file(params, tmp_path)
        path.write_text(path.read_text()[:20])
        again = B.solve_ground_state(0, 0, config, params,
                                     cache_dir=str(tmp_path))
        assert np.max(np.abs(again.x - first.x)) < 1e-12
        assert list(tmp_path.glob("*.tmp")) == []
