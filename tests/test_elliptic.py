"""Theta functions, the model bracket, and the identity catalogue."""

import cmath
import itertools
import math

import numpy as np
import pytest

from csoslab.contract import (frobenius_residual, id_sum1_residual,
                              id_sum2_residual, jacobi_residual,
                              schroter_residual)
from csoslab.elliptic import (DUAL_MODULUS_IM, SERIES_BLOCK, SERIES_RTOL,
                              EllipticDomainError, ModelParams, PoleError,
                              _cdiv, _term_table, stacked, theta,
                              theta3_log_outer, theta_log)
from csoslab.lattice import LatticeConfig
from csoslab import matel as M
from csoslab import thermo as T


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

    def test_scalar_goes_through_the_series_sum(self, monkeypatch):
        # one series body: a 0-d z is summed as a one-point array and comes
        # back as a Python complex
        import csoslab.elliptic as E
        series = E._series_sum
        sizes = []

        def counted(kind, z, tau, order, scale=0.0):
            sizes.append(np.size(z))
            return series(kind, z, tau, order, scale)

        monkeypatch.setattr(E, "_series_sum", counted)
        for z in (0.3 + 0.1j, 0.25, np.complex128(-1.7 + 0.4j),
                  np.array(0.1j), float("nan")):
            for order in (0, 1, 2):
                assert type(theta(1, z, 0.45j, order=order)) is complex
        assert sizes == [1] * 15

    def test_rows_from_one_sum_equal_theta(self):
        # theta and its derivatives from one series sum, bit for bit as
        # theta gives each order
        import csoslab.elliptic as E
        rng = np.random.default_rng(33)
        zs = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-2, 2, 50)
        for tau in (0.45j, 0.1 + 0.3j):
            for kind in (1, 2, 3, 4):
                for order in (0, 1, 2):
                    rows = E._theta_rows(kind, zs, tau, order)
                    assert len(rows) == order + 1
                    for d, row in enumerate(rows):
                        ref = theta(kind, zs, tau, order=d)
                        assert np.array_equal(row.view(float),
                                              ref.view(float))

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

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2, 4)])
    def test_empty_input(self, shape, monkeypatch, params):
        # an empty z returns an empty complex array of its shape without
        # reducing or summing anything
        import csoslab.elliptic as E

        def refuse(*args, **kwargs):
            raise AssertionError("series or reduction ran on empty input")

        monkeypatch.setattr(E, "_series_sum", refuse)
        monkeypatch.setattr(E, "_reduce", refuse)
        z = np.empty(shape)
        for kind in (1, 2, 3, 4):
            for order in (0, 1, 2):
                out = theta(kind, z, 0.45j, order=order)
                assert out.shape == shape and out.dtype == complex
        for order in (0, 1):
            out = params.bracket(z, order=order)
            assert out.shape == shape and out.dtype == complex

    def test_empty_input_still_checked(self):
        z = np.empty(0)
        with pytest.raises(ValueError):
            theta(5, z, 0.45j)
        with pytest.raises(ValueError):
            theta(1, z, 0.45j, order=3)
        with pytest.raises(EllipticDomainError):
            theta(1, z, -0.45j)


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


def _outer_calls(monkeypatch, run):
    """The (base, offsets, z, tau) of each theta3_log_outer call that run()
    makes through the one-point factor."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return theta3_log_outer(*args)

    monkeypatch.setattr(T, "theta3_log_outer", recorded)
    run()
    monkeypatch.setattr(T, "theta3_log_outer", theta3_log_outer)
    return calls


def _one_point_records(params, Z, monkeypatch):
    """The kernel calls of one one-point call on every record (a, eps, t)
    of the model's table at the node sums Z."""
    a, eps, t = np.array(list(itertools.product(
        range(params.L), (0, 1), range(params.L - params.r)))).T
    return _outer_calls(monkeypatch, lambda: T.one_point_barP(
        a, Z, eps, t, params))


def _physical(L, r, tau):
    return ModelParams(tau=tau, r=r, L=L, s0=tau * L / (2 * r))


class TestTheta3LogOuter:
    """The outer-sum kernel of the one-point factor's theta3 series."""

    Z = np.linspace(-1.0, 1.0, 41) - 0.07j

    @pytest.mark.parametrize("L, r", [(3, 1), (4, 1)])
    def test_matches_theta_log_on_the_outer_sum(self, monkeypatch, L, r):
        # odd L sums at tau / (4 r (L - r)), even L at tau / (r (L - r));
        # near a zero of theta3 the relative gap grows, so the largest gap
        # is taken against the largest value
        [(base, offsets, z, tau)] = _one_point_records(
            _physical(L, r, 0.45j), self.Z, monkeypatch)
        assert tau.imag >= DUAL_MODULUS_IM
        got = theta3_log_outer(base, offsets, z, tau)
        want = theta_log(3, (base + offsets)[:, None] + z, tau)
        assert got.shape == (len(offsets), len(z))
        assert np.median(np.abs(np.exp(got - want) - 1.0)) <= 1e-14
        assert (np.max(np.abs(np.exp(got) - np.exp(want)))
                <= 1e-14 * np.max(np.abs(np.exp(want))))

    def test_dual_branch_below_the_dual_modulus(self, monkeypatch):
        # tau / 8 = 0.0375i: theta_log on the outer sum, bit for bit
        [(base, offsets, z, tau)] = _one_point_records(
            _physical(3, 1, 0.3j), self.Z, monkeypatch)
        assert tau.imag < DUAL_MODULUS_IM
        assert np.array_equal(
            theta3_log_outer(base, offsets, z, tau),
            theta_log(3, (base + offsets)[:, None] + z, tau))

    @pytest.mark.parametrize("tau", [0.45j, 0.3j])
    def test_record_array_equals_per_record_calls(self, monkeypatch, tau):
        # each value depends on its own offset and point only, whatever the
        # other offsets and points of the call
        [(base, offsets, z, tau)] = _one_point_records(
            _physical(3, 1, tau), self.Z, monkeypatch)
        full = theta3_log_outer(base, offsets, z, tau)
        for j, c in enumerate(offsets):
            assert np.array_equal(
                full[j], theta3_log_outer(base, [c], z, tau)[0])
        for k, point in enumerate(z):
            j = k % len(offsets)
            assert np.array_equal(
                full[:, k], theta3_log_outer(base, offsets, point, tau))
            assert full[j, k] == theta3_log_outer(base, offsets[j:j + 1],
                                                  point, tau)[0]

    def test_against_mpmath_on_the_benchmark_tables(self, monkeypatch):
        # the one-point arguments of the benchmark's m = 2 tables (model
        # tau = 0.45i, L = 3, r = 1, physical s0; 12 records; resolution 32)
        # on an 8-site column, every 8th point: the kernel's median and
        # largest relative error are at most twice theta_log's, against
        # theta3 at the exact sum of the inputs
        mpmath = pytest.importorskip("mpmath")
        params = _physical(3, 1, 0.45j)
        ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
        labels = [(eps, t) for eps in (0, 1) for t in range(2)]
        calls = _outer_calls(monkeypatch, lambda: [
            T.lhp_table(M.vertical_path(heights), labels, range(3), config,
                        params, 32) for heights in ((0, 1, 2), (0, 1, 0))])
        points = [(base, c, point, tau) for base, offsets, z, tau in calls
                  for c in offsets for point in np.ravel(z)][::8]
        assert len(points) == 480
        mpmath.mp.dps = 30
        errors = []
        for base, c, point, tau in points:
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            ref = mpmath.jtheta(3, mpmath.pi * (
                mpmath.mpc(base) + mpmath.mpf(c) + mpmath.mpc(point)), q)
            errors.append([
                float(abs(mpmath.exp(mpmath.mpc(lg)) / ref - 1))
                for lg in (theta3_log_outer(base, [c], point, tau)[0],
                           theta_log(3, base + c + point, tau))])
        kernel, plain = np.array(errors).T
        assert np.median(kernel) <= 2.0 * np.median(plain)
        assert np.max(kernel) <= 2.0 * np.max(plain)


class TestBracket:
    def test_zero(self, params):
        assert abs(params.bracket(0.0)) < 1e-15

    def test_periodicity_L_over_r(self):
        params = ModelParams(tau=0.8j, r=2, L=5, s0=0.37 + 0.11j)
        u = 0.31 + 0.09j
        lhs = params.bracket(u + params.L / params.r)
        assert abs(lhs - (-1) ** params.L * params.bracket(u)) < 1e-10

    def test_composition(self):
        params = ModelParams(tau=0.8j, r=2, L=5, s0=0.37 + 0.11j)
        assert abs(params.bracket(1.0) - theta(1, 0.4, 0.8j)) < 1e-14

    def test_derivative(self, params):
        h = 1e-6
        u = 0.27 + 0.12j
        fd = (params.bracket(u + h) - params.bracket(u - h)) / (2 * h)
        assert abs(params.bracket(u, order=1) - fd) < 1e-8

    @pytest.mark.parametrize("order", [0, 1])
    def test_stacked_brackets_equal_single_calls(self, params, order):
        # one call on stacked arguments gives each argument's own call, bit
        # for bit (signs of zeros included) and of the same type and shape
        rng = np.random.default_rng(5)
        args = [0.0, -0.0, 2, 0.37 - 0.2j, np.complex128(0.1 + 0.4j),
                np.array(0.2 - 0.3j), np.empty((0, 3)),
                rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)),
                rng.uniform(-3, 3, (2, 5)), np.array([[-0.0, 0.0, 3.0]]),
                np.array([1.5, -2.5])]
        got = (params.brackets(*args) if order == 0 else
               stacked(lambda u: params.bracket(u, order=1), *args))
        assert len(got) == len(args)
        for arg, val in zip(args, got):
            ref = params.bracket(arg, order=order)
            assert type(val) is type(ref)
            assert np.shape(val) == np.shape(ref)
            a = np.atleast_1d(np.asarray(val)).view(float)
            b = np.atleast_1d(np.asarray(ref)).view(float)
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_bracket_prime0_is_the_derivative_at_zero(self, params):
        assert params.bracket_prime0 == params.bracket(0.0, order=1)

    def test_bracket_prime1_is_the_derivative_at_one(self, params):
        assert params.bracket_prime1 == params.bracket(1.0, order=1)


class TestComplexDivision:
    def test_cdiv_rounds_as_python(self):
        # both branches of Smith's method: |Re b| >= |Im b| and below
        rng = np.random.default_rng(11)
        a = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        b = rng.standard_normal(400) * np.exp(1j * rng.uniform(0, 7, 400))
        got = _cdiv(a, b)
        assert got.shape == (400,)
        assert all(g == complex(x) / complex(y) for g, x, y in zip(got, a, b))
        assert _cdiv(1.0, b[:3]).tolist() == [1.0 / complex(y) for y in b[:3]]


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

    @pytest.mark.parametrize("tau, s0, height", [
        (0.8j, 2.4j, 0),                # eta s0 = tau
        (0.3 + 0.6j, 1.9 + 1.8j, 2)])   # eta (s0 + 2) = 1 + tau, tilted
    def test_rejects_lattice_points(self, tau, s0, height):
        with pytest.raises(EllipticDomainError,
                           match=rf"height s0\+{height};"):
            ModelParams(tau=tau, r=1, L=3, s0=s0)

    def test_accepts_small_modulus_off_the_lattice(self):
        # eta s0 = 0.1 + 0.005i lies about 0.1 from every lattice point,
        # though |[s0]| is 5e-16 at this tau
        params = ModelParams(tau=0.01j, r=1, L=3, s0=0.3 + 1.5 * 0.01j)
        assert params.height(2) == 2.3 + 0.015j

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
                worst = max(worst, jacobi_residual(kind, z, tau))
        assert worst < 1e-11

    def test_schroter(self, rng):
        for (L, r) in ((3, 1), (5, 2)):
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            res = schroter_residual(x, y, 0.7j, r, L)
            assert res < 1e-12

    def test_summation_identities(self, rng):
        x = 0.31 + 0.2j
        y = 0.17 - 0.1j
        assert id_sum1_residual(4, 1, x, y, 0.6 + 0.5j) < 1e-12
        assert id_sum2_residual(4, x, y, 0.6 + 0.5j) < 1e-12

    def test_frobenius_n1_degenerate(self):
        res = frobenius_residual([0.21 + 0.05j], [-0.13 + 0.02j], 0.3 + 0.2j,
                                 0.8j)
        assert res < 1e-13

    def test_frobenius_n3(self, rng):
        xs = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.2, 0.2, 3)
        ys = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.2, 0.2, 3)
        res = frobenius_residual(xs, ys, 0.3 + 0.21j, 0.8j)
        assert res < 1e-12

    def test_pole_error(self):
        with pytest.raises(PoleError):
            frobenius_residual([0.2], [0.2], 0.3, 0.8j)
