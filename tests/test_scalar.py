"""Partial scalar products: brute force against the determinant sum."""

import numpy as np
import pytest

from csoslab.elliptic import AccuracyError, ModelParams, PoleError, theta
from csoslab.lattice import homogeneous_config
from csoslab import bethe as B
from csoslab import contract as C
from csoslab import scalar as S


@pytest.fixture(scope="module")
def vsets(rng):
    return [rng.uniform(-0.3, 0.3, 2) * (1 - 0.4j) + 1j * rng.uniform(-0.1, 0.1, 2)
            for _ in range(2)]


class TestNorms:
    def test_gaudin_vs_bruteforce(self, ground4):
        for roots in ground4.values():
            lv = B.bethe_vector(roots, side="left")
            rv = B.bethe_vector(roots, side="right")
            brute = lv.dot(rv)
            det = S.norm_det(roots)
            assert abs(det - brute) / abs(brute) < 1e-8

    def test_gaudin_n1_closed_form(self, params):
        # n = 1: the off-diagonal bracket terms cancel against the t = j
        # summand, leaving a single 1x1 determinant log'(a/d)(u)
        config = homogeneous_config(2)
        roots = B.solve_ground_state(0, 0, config, params)
        u = roots.v[0]
        br = params.bracket
        phi = 0.0j
        for xi in config.xi:
            phi -= (br(u - xi, order=1) / br(u - xi)
                    - br(u - xi + 1, order=1) / br(u - xi + 1))
        pref = roots.d_fun(u) * br(1.0) / (-br(0.0, order=1))
        assert abs(S.norm_det(roots) - pref * phi) < 1e-10 * abs(pref * phi)

    @pytest.mark.parametrize("tau, r, L, N, solve", [
        (0.8j, 1, 3, 4, True), (0.45j, 2, 5, 8, True),
        (0.15 + 0.6j, 1, 3, 6, False), (-0.3 + 0.9j, 2, 5, 8, False)])
    def test_gaudin_matrix_is_the_bethe_jacobian(self, tau, r, L, N, solve):
        # independent route: central differences in v of the log ratio of
        # the two sides of the multiplicative Bethe equations (those of
        # bethe_residual, brackets at modulus tau); at complex tau on
        # roots built by hand, where the Jacobian entries are complex
        params = ModelParams(tau=tau, r=r, L=L, s0=0.41 + 0.13j)
        config = homogeneous_config(N)
        roots = (B.solve_ground_state(1, 0, config, params) if solve else
                 B.BetheRootSet(x=np.linspace(-0.3, 0.25, N // 2), k=1,
                                ell=0, params=params, config=config))
        br, n = params.bracket, roots.n
        off = ~np.eye(n, dtype=bool)

        def sides(v):
            dv = (v[:, None] - v[None, :])[off].reshape(n, n - 1)
            lhs = np.prod(br(-dv + 1) / br(-dv), axis=1)
            rhs = ((-1.0) ** (r * roots.aleph) * roots.omega ** -2
                   * roots.d_fun(v) * np.prod(br(dv + 1) / br(dv), axis=1))
            return lhs / rhs

        h = 1e-5
        jac = np.column_stack([
            np.log(sides(roots.v + h * e) / sides(roots.v - h * e)) / (2 * h)
            for e in np.eye(n)])
        phi = S.gaudin_matrix(roots)
        assert np.max(np.abs(phi - jac)) < 1e-6 * np.max(np.abs(phi))

    def test_gaudin_offdiagonal_even(self, ground4):
        mat = S.gaudin_matrix(ground4[(0, 1)])
        assert abs(mat[0, 1] - mat[1, 0]) < 1e-12

    def test_physical_norm_real_positive(self, params_phys):
        # real rescaled roots and unimodular twist: the norm is real and
        # positive once the exact twist phase omega^{2n} is rotated away
        config = homogeneous_config(4)
        gs = B.all_ground_states(config, params_phys)
        for roots in gs.values():
            val = S.norm_det(roots) * roots.omega_pow(-2 * roots.n)
            assert abs(val.imag) < 1e-8 * abs(val)
            assert val.real > 0

    def test_norm_out_of_range_refused(self, params_phys):
        # the bracket products of 24 roots leave the double range; the norm
        # is refused instead of returned as NaN, with no floating-point fault
        roots = B.solve_ground_state(0, 0, homogeneous_config(48),
                                     params_phys)
        with pytest.raises(AccuracyError, match="24 roots"):
            S.norm_det(roots)


@pytest.fixture(scope="module")
def ground_l5(config4):
    """(0, 0) ground state of a second model, L = 5 and r = 2."""
    params = ModelParams(tau=0.8j, r=2, L=5, s0=0.41 + 0.13j)
    return B.solve_ground_state(0, 0, config4, params)


class TestPartialScalar:
    def test_det_vs_bruteforce_all_heights(self, ground4, ground_l5, config4,
                                           vsets):
        # the L-sector stack at L = 3 and at L = 5
        for u00 in (ground4[(0, 0)], ground_l5):
            params = u00.params
            for v in vsets:
                for a in range(params.L):
                    pb = C.partial_scalar_bruteforce(u00, v, a)
                    pd = C.partial_scalar_det(u00, v, a)
                    assert abs(pb - pd) / max(1e-30, abs(pb)) < 1e-8

    def test_gamma_independence(self, ground4, vsets):
        u00 = ground4[(0, 0)]
        p1 = C.partial_scalar_det(u00, vsets[0], 1,
                                  gamma=S.default_gamma(u00.params))
        p2 = C.partial_scalar_det(u00, vsets[0], 1, gamma=0.3123 + 0.19j)
        assert abs(p1 - p2) / abs(p1) < 1e-9

    def test_zero_root_contraction(self, params, config4):
        from csoslab.lattice import StateVector, local_operator_apply
        ref = StateVector.reference(config4, params)
        for a in range(params.L):
            val = local_operator_apply("delta", ref, i=1,
                                       a=a).bra_contract_reference()
            assert val == 1.0  # one height class survives per projection

    def test_scalarproduct_height_sum(self, ground4):
        # sum over heights of weighted partial scalars = full pairing
        u00, v11 = ground4[(0, 0)], ground4[(1, 1)]
        lhs = C.scalar_product_bruteforce(u00, v11)
        lv = B.bethe_vector(u00, side="left")
        rv = B.bethe_vector(v11, side="right")
        assert abs(lhs - lv.dot(rv)) < 1e-9

    def test_orthogonality(self, ground4):
        u00, v11 = ground4[(0, 0)], ground4[(1, 1)]
        sp = C.scalar_product_bruteforce(u00, v11)
        scale = np.sqrt(abs(S.norm_det(u00)) * abs(S.norm_det(v11)))
        assert abs(sp) < 1e-9 * scale

    def test_pole_redraw_advice(self, ground4):
        u00 = ground4[(0, 0)]
        with pytest.raises(PoleError):
            C.partial_scalar_det(u00, u00.v, 0)  # colliding parameter sets


class TestTwistWeights:
    @pytest.mark.parametrize("tau, r, L", [(0.8j, 1, 3), (0.8j, 2, 5),
                                           (0.6j, 1, 4)])
    def test_equals_scalar_sector_products(self, tau, r, L):
        # q^{nu s} a_nu(gamma), one sector at a time in Python complex
        # arithmetic; the array rounds alike
        params = ModelParams(tau=tau, r=r, L=L, s0=0.41 + 0.13j)
        eta, s0 = params.eta, params.s0
        for gamma in (S.default_gamma(params), 0.3123 + 0.19j):
            for a in range(L):
                s = params.height(a)
                got = S.twist_weights(s, gamma, params)
                assert got.shape == (L,)
                for nu in range(L):
                    a_nu = (eta * theta(1, r * s0 + eta * gamma + nu * tau,
                                        L * tau)
                            * theta(1, 0, L * tau, order=1)
                            / (theta(1, r * s0, L * tau)
                               * theta(1, eta * gamma + nu * tau, L * tau)))
                    assert got[nu] == params.qpow(nu * s) * a_nu

    def test_pole(self, params):
        # gamma = 0 puts sector nu = 0 on the zero of theta1
        with pytest.raises(PoleError, match="a_nu factor"):
            S.twist_weights(params.s0, 0.0, params)


class TestConditionCheck:
    def test_stack_warns_on_worst_sector(self):
        stack = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-14]]])
        with pytest.warns(RuntimeWarning, match="kernel condition"):
            kappa = B._check_kappa(stack, "test kernel")
        assert kappa == np.max(np.linalg.cond(stack)) > B.COND_WARN


class TestGammaRetry:
    def test_redraw_on_pole(self, params):
        from csoslab.elliptic import PoleError
        from csoslab.scalar import default_gamma, gamma_retry
        seen = []

        def fun(g):
            seen.append(g)
            if len(seen) < 3:
                raise PoleError("synthetic pole")
            return 42.0

        assert gamma_retry(fun, params, None) == 42.0
        assert seen[0] == default_gamma(params)
        assert len(set(seen)) == 3

    def test_explicit_gamma_not_redrawn(self, params):
        from csoslab.elliptic import PoleError
        from csoslab.scalar import gamma_retry

        def fun(g):
            raise PoleError("synthetic pole")

        with pytest.raises(PoleError):
            gamma_retry(fun, params, 0.3 + 0.1j)


class TestFormFactor:
    def test_delta_form_factor_routes(self, ground4):
        u00, v11 = ground4[(0, 0)], ground4[(1, 1)]
        ff_det = C.delta_form_factor(u00, v11, 2, route="det")
        ff_brt = C.delta_form_factor(u00, v11, 2, route="brute")
        assert abs(ff_det - ff_brt) / abs(ff_brt) < 1e-10
