"""Ground-state solver, Bethe vectors, and eigenvalue checks."""

import cmath
import json
import math

import numpy as np
import pytest

from csoslab.elliptic import ModelParams, SolverError
from csoslab.lattice import (LatticeConfig, StateVector, homogeneous_config,
                             monodromy_entry_apply, transfer_apply)
from csoslab import bethe as B


class TestBareFunctions:
    def test_momentum_odd_and_zero(self, params):
        assert abs(B.bare_momentum(0.0, params)) < 1e-14
        z = 0.27
        assert abs(B.bare_momentum(z, params)
                   + B.bare_momentum(-z, params)) < 1e-13

    def test_momentum_winding(self, params):
        # continuous branch gains 2 pi per unit shift
        lhs = B.bare_momentum(0.31 + 1.0, params)
        assert abs(lhs - B.bare_momentum(0.31, params) - 2 * math.pi) < 1e-12

    def test_phase_derivative_matches_fd(self, params):
        z, h = 0.21, 1e-6
        fd = (B.bare_phase(z + h, params) - B.bare_phase(z - h, params)) / (2 * h)
        assert abs(B.bare_phase(z, params, order=1) - fd) < 1e-7


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
        with pytest.raises(SolverError, match="coinciding"):
            B.bethe_residual(twin)

    def test_invalid_labels(self, params, config4_homog):
        with pytest.raises(ValueError):
            B.solve_ground_state(2, 0, config4_homog, params)
        with pytest.raises(ValueError):
            B.solve_ground_state(0, 5, config4_homog, params)


class TestSeed:
    @staticmethod
    def scalar_seed(n, k, ell, config, params, modes=80):
        """One 60-step bisection per root, modes summed one at a time."""
        coeffs = [complex(B.density_fourier(m, config, params))
                  for m in range(1, modes + 1)]

        def cumulative(x):
            total = (x + 0.5) / 2.0
            for m, c in enumerate(coeffs, start=1):
                term = cmath.exp(2j * math.pi * m * x) - cmath.exp(
                    -1j * math.pi * m)
                total += 2.0 * (term * c / (2j * math.pi * m)).real
            return total

        xs = []
        for j in range(1, n + 1):
            t = (j + k - (n + 1) / 2.0
                 + (params.r * n + 2.0 * ell) / params.L) / config.N + 0.25
            t = min(max(t, 0.02), 0.48)
            lo, hi = -0.5, 0.5
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if cumulative(mid) < t:
                    lo = mid
                else:
                    hi = mid
            xs.append(0.5 * (lo + hi))
        return np.sort(xs)

    @pytest.mark.parametrize("N", [8, 16, 24])
    def test_vectorised_seed_matches_scalar_bisection(self, params, N):
        ys = np.linspace(-0.05, 0.05, N)
        configs = (homogeneous_config(N),
                   LatticeConfig(N=N, xi=tuple(0.5 + 1j * y for y in ys)))
        for config in configs:
            for k in (0, 1):
                for ell in range(params.L - params.r):
                    seed = B._initial_guess(N // 2, k, ell, config, params)
                    ref = self.scalar_seed(N // 2, k, ell, config, params)
                    assert np.max(np.abs(seed - ref)) <= 1e-15

    def test_density_fourier_array_matches_scalar(self, params, config4):
        ms = np.arange(-5, 6)
        arr = B.density_fourier(ms, config4, params)
        assert arr.shape == ms.shape
        for m, val in zip(ms, arr):
            assert val == B.density_fourier(int(m), config4, params)


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
            lambda s: omega ** 1)
        u = 0.27 + 0.1j
        out = transfer_apply(u, state)
        tau_val = (omega * roots.a_fun(u)
                   + (-1) ** (params.r * roots.aleph) / omega * roots.d_fun(u))
        assert np.max(np.abs(out.amps - tau_val * state.amps)) < 1e-10

    def test_left_contract_matches_vector(self, params, ground4_homog):
        left = ground4_homog[(0, 0)]
        right = B.bethe_vector(ground4_homog[(1, 1)], side="right")
        lv = B.bethe_vector(left, side="left")
        assert abs(lv.dot(right) - B.left_contract(left, right)) < 1e-10


class TestHeightProjection:
    def test_projection_is_twist_combination(self, params, ground4_homog):
        # fixing the height at site 1 turns a Bethe state into the discrete
        # Fourier combination of the L twist-rotated Bethe-type states
        import cmath
        from csoslab.scalar import project_height
        roots = ground4_homog[(0, 1)]
        config = roots.config
        L = params.L
        rv = B.bethe_vector(roots, side="right")
        for a in (0, 2):
            s = params.height(a)
            lhs = project_height(rv, a)
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

                rot = base.scale_heights(phi)
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
