"""Theta functions, the model bracket, and the identity catalogue."""

import cmath
import math

import numpy as np
import pytest

from csoslab.elliptic import (SERIES_BLOCK, SERIES_RTOL, EllipticDomainError,
                              ModelParams, PoleError, _term_table, bracket,
                              identity_residual, theta, theta_log)


def direct_theta3(z, tau, terms=50):
    """Independent high-truncation summation of the defining series."""
    return sum(cmath.exp(1j * math.pi * tau * k * k)
               * cmath.exp(2j * math.pi * k * z)
               for k in range(-terms, terms + 1))


class TestThetaSeries:
    def test_theta1_odd_zero(self):
        assert abs(theta(1, 0.0, 0.9j)) < 1e-15

    def test_theta3_against_direct_summation(self):
        val = theta(3, 0.2, 0.9j)
        ref = direct_theta3(0.2, 0.9j)
        assert abs(val - ref) < 1e-14

    def test_plus_one_period(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2))
            assert abs(theta(1, z + 1, tau) + theta(1, z, tau)) < 1e-12

    def test_quasi_periodicity(self, rng):
        worst = 0.0
        for _ in range(200):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.5, 1.1))
            fac = cmath.exp(-1j * math.pi * tau) * cmath.exp(-2j * math.pi * z)
            gap = abs(theta(1, z + tau, tau) + fac * theta(1, z, tau))
            worst = max(worst, gap / max(1.0, abs(theta(1, z, tau))))
        assert worst < 1e-12

    def test_parity(self, rng):
        for _ in range(30):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            tau = 0.3 + 0.8j
            assert abs(theta(1, -z, tau) + theta(1, z, tau)) < 1e-13
            for kind in (2, 3, 4):
                assert abs(theta(kind, -z, tau) - theta(kind, z, tau)) < 1e-13

    def test_derivative_finite_difference(self):
        h = 1e-5
        for kind in (1, 2, 3, 4):
            z, tau = 0.31 + 0.21j, 0.13 + 0.77j
            fd = (theta(kind, z + h, tau) - theta(kind, z - h, tau)) / (2 * h)
            assert abs(theta(kind, z, tau, order=1) - fd) < 1e-7

    def test_second_derivative(self):
        h = 1e-4
        z, tau = 0.17 - 0.08j, 0.9j
        fd = (theta(1, z + h, tau) - 2 * theta(1, z, tau)
              + theta(1, z - h, tau)) / h ** 2
        assert abs(theta(1, z, tau, order=2) - fd) < 1e-5

    def test_vectorized_matches_scalar(self, rng):
        zs = rng.uniform(-2, 2, 9) + 1j * rng.uniform(-1, 1, 9)
        batch = theta(2, zs, 0.7j)
        single = np.array([theta(2, complex(z), 0.7j) for z in zs])
        assert np.max(np.abs(batch - single)) == 0.0

    def test_domain_error(self):
        with pytest.raises(EllipticDomainError):
            theta(1, 0.3, -0.5j)

    def test_argument_reduction_large(self):
        # large real and imaginary parts reduce without precision loss;
        # reference assembled from the small-argument series and the exact
        # quasi-period factor theta3(z + m tau) = e^{-i pi tau m^2 - 2 pi i m z} theta3(z)
        tau = 0.85j
        z0 = 0.3 + 0.11j
        m = 4
        z = z0 + 7.0 + m * tau
        ref = (cmath.exp(-1j * math.pi * tau * m * m
                         - 2j * math.pi * m * z0)
               * direct_theta3(z0, tau, terms=60))
        assert abs(theta(3, z, tau) - ref) / abs(ref) < 1e-11


class TestSeriesTruncation:
    """The precomputed term table, against mpmath and its own bound."""

    @pytest.mark.parametrize("tau", [0.45j, 0.8j, 0.1 + 0.3j, 2j])
    def test_against_mpmath(self, tau):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        mpmath.mp.dps = 30
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        zs = (rng.uniform(-1.5, 1.5, 6)
              + 1j * tau.imag * rng.uniform(-1.5, 1.5, 6))
        for kind in (1, 2, 3, 4):
            for order in (0, 1, 2):
                for z in zs:
                    # mpmath's theta_n(x, q) takes x = pi z
                    ref = complex(mpmath.pi ** order * mpmath.jtheta(
                        kind, mpmath.pi * mpmath.mpc(z), q, order))
                    val = theta(kind, complex(z), tau, order=order)
                    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    def test_first_omitted_term_below_cutoff(self, kind):
        # term of index a at Im z = c Im(tau): exp(-pi Im(tau) (a^2 + 2 a c));
        # after reduction |c| <= 1/2, so that is the range to cover
        cs = np.linspace(-0.5, 0.5, 101)[:, None]
        for im in np.geomspace(0.05, 5.0, 40):
            for re in (0.0, 0.3):
                terms = _term_table(kind, complex(re, im))
                a = terms.fac[1].imag / (2 * math.pi)
                top = np.max(np.abs(a))
                assert np.allclose(np.sort(a), np.sort(-a))

                def size(idx):
                    return np.exp(-math.pi * im * (idx * idx + 2 * idx * cs))

                largest = np.max(size(a[None, :]), axis=1)
                omitted = np.maximum(size(top + 1), size(-top - 1))[:, 0]
                assert np.all(omitted <= SERIES_RTOL * largest)
                # and at most one pair more than the worst case needs
                if len(a) > 2:
                    inner = np.maximum(size(top - 1), size(1 - top))[:, 0]
                    assert np.max(inner / largest) > SERIES_RTOL

    def test_scalar_path_equals_array_path(self):
        rng = np.random.default_rng(32)
        for tau in (0.45j, 0.8j, 0.1 + 0.3j, 2j, 2.2 + 0.03j):
            # more points than one broadcast block holds, large arguments
            # included so the argument reduction is exercised too
            n = SERIES_BLOCK // len(_term_table(1, complex(tau)).sign) + 300
            zs = rng.uniform(-3, 3, n) + 1j * rng.uniform(-2, 2, n)
            pick = rng.choice(n, 40, replace=False)
            for kind in (1, 2, 3, 4):
                for order in (0, 1, 2):
                    batch = theta(kind, zs, tau, order=order)
                    single = [theta(kind, complex(zs[i]), tau, order=order)
                              for i in pick]
                    assert np.array_equal(batch[pick], np.array(single))
                    # a one-point array sums in the same order
                    one = theta(kind, zs[pick[:1]], tau, order=order)
                    assert one[0] == single[0]

    def test_shape_preserved(self):
        z = np.array([[0.1, 0.2 + 0.1j, -0.3], [1.7, 0.0, 0.4j]])
        out = theta(3, z, 0.6j, order=1)
        assert out.shape == z.shape
        assert out[1, 2] == theta(3, 0.4j, 0.6j, order=1)

    def test_too_small_modulus_raises(self):
        # the series would need more than SERIES_MAX_TERMS index pairs
        with pytest.raises(EllipticDomainError):
            theta(1, 0.1, 1e-8j)
        with pytest.raises(EllipticDomainError):
            theta(3, np.array([0.1, 0.2]), 1e-8j)


class TestThetaLog:
    def test_matches_plain_theta(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
            tau = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.3, 1.2))
            for kind in (1, 2, 3, 4):
                val = cmath.exp(theta_log(kind, z, tau))
                ref = theta(kind, z, tau)
                assert abs(val - ref) < 1e-11 * max(1.0, abs(ref))

    def test_small_modulus_regime(self):
        # tiny Im(tau): the plain series is hopeless, the log form is exact
        tau = 0.004j
        z = 0.23
        lg = theta_log(3, z, tau)
        # Jacobi-transformed reference assembled by hand
        ref = (-0.5 * cmath.log(-1j * tau)
               - 1j * math.pi * z * z / tau
               + cmath.log(theta(3, -z / tau, -1.0 / tau)))
        assert abs(cmath.exp(lg - ref) - 1.0) < 1e-10
        # deep in the ordered regime one lattice term dominates:
        # Re log theta3(z; i eps) = -ln(eps)/2 - pi z^2/eps and
        # Re log theta1(z; i eps) = -ln(eps)/2 - pi (z - 1/2)^2/eps
        for z in (0.1, 0.3):
            for eps in (1e-3, 1e-4, 1e-5, 1e-6):
                for kind, shift in ((3, 0.0), (1, 0.5)):
                    ref = -0.5 * math.log(eps) - math.pi * (z - shift) ** 2 / eps
                    lg = theta_log(kind, z, 1j * eps)
                    assert abs(lg.real - ref) <= 1e-12 * abs(ref)


class TestBracket:
    def test_zero(self, params):
        assert abs(bracket(0.0, params)) < 1e-15

    def test_periodicity_L_over_r(self):
        params = ModelParams(tau=0.8j, r=2, L=5, s0=0.37 + 0.11j)
        u = 0.31 + 0.09j
        lhs = bracket(u + params.L / params.r, params)
        assert abs(lhs - (-1) ** params.L * bracket(u, params)) < 1e-10

    def test_composition(self):
        params = ModelParams(tau=0.8j, r=2, L=5, s0=0.37 + 0.11j)
        assert abs(bracket(1.0, params) - theta(1, 0.4, 0.8j)) < 1e-14

    def test_derivative(self, params):
        h = 1e-6
        u = 0.27 + 0.12j
        fd = (bracket(u + h, params) - bracket(u - h, params)) / (2 * h)
        assert abs(bracket(u, params, order=1) - fd) < 1e-8


class TestModelParams:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            ModelParams(tau=0.8j, r=2, L=4, s0=0.3)

    def test_rejects_bad_tau(self):
        with pytest.raises(EllipticDomainError):
            ModelParams(tau=0.5, r=1, L=3, s0=0.3)

    def test_rejects_vanishing_bracket(self):
        # s0 = 0 puts a height on the zero of the bracket
        with pytest.raises(EllipticDomainError):
            ModelParams(tau=0.8j, r=1, L=3, s0=0.0)

    def test_derived_quantities(self, params):
        assert abs(params.eta - 1.0 / 3.0) < 1e-15
        assert abs(params.tau_tilde - (-1.0 / TAU_VAL)) < 1e-15
        assert abs(params.eta_tilde + params.eta / TAU_VAL) < 1e-15
        assert abs(params.s0_tilde - (params.s0 + 1 / (2 * params.eta_tilde))) \
            < 1e-14


TAU_VAL = 0.8j


class TestIdentities:
    def test_jacobi_all_kinds(self, rng):
        worst = 0.0
        for _ in range(100):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2))
            for kind in (1, 2, 3, 4):
                worst = max(worst, identity_residual(
                    "jacobi", dict(kind=kind, z=z, tau=tau)))
        assert worst < 1e-11

    def test_schroter(self, rng):
        for (L, r) in ((3, 1), (5, 2)):
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            res = identity_residual("schroter",
                                    dict(x=x, y=y, tau=0.7j, r=r, L=L))
            assert res < 1e-12

    def test_summation_identities(self, rng):
        x = 0.31 + 0.2j
        y = 0.17 - 0.1j
        assert identity_residual(
            "id_sum1", dict(n=4, k=1, x=x, y=y, tau=0.6 + 0.5j)) < 1e-12
        assert identity_residual(
            "id_sum2", dict(n=4, x=x, y=y, tau=0.6 + 0.5j)) < 1e-12

    def test_frobenius_n1_degenerate(self):
        res = identity_residual("frobenius", dict(
            xs=[0.21 + 0.05j], ys=[-0.13 + 0.02j], t=0.3 + 0.2j, tau=0.8j))
        assert res < 1e-13

    def test_frobenius_n3(self, rng):
        xs = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.2, 0.2, 3)
        ys = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.2, 0.2, 3)
        res = identity_residual("frobenius",
                                dict(xs=xs, ys=ys, t=0.3 + 0.21j, tau=0.8j))
        assert res < 1e-12

    def test_pole_error(self):
        with pytest.raises(PoleError):
            identity_residual("frobenius", dict(
                xs=[0.2], ys=[0.2], t=0.3, tau=0.8j))

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            identity_residual("not-an-identity", {})
