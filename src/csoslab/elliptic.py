"""Jacobi theta functions, the model bracket, and global model parameters.

Conventions
-----------
theta1(z; tau) = -i sum_k (-1)^k e^{i pi tau (k+1/2)^2} e^{2 i pi (k+1/2) z},
with Im(tau) > 0.  theta2(z) = theta1(z + 1/2),
theta3(z) = sum_k e^{i pi tau k^2} e^{2 i pi k z}, theta4(z) = theta3(z + 1/2).

Periodicity in z used for argument reduction:
  theta1(z+1) = -theta1(z),  theta1(z+tau) = -e^{-i pi tau} e^{-2 i pi z} theta1(z),
and analogous factors for the other kinds.

The model bracket is [u] = theta1(eta*u; tau) with eta = r/L the crossing
parameter.  All heights live on the circle s0 + Z/LZ; the bracket is not
L-periodic in s ([s+L] = (-1)^r [s]) but every face weight built from it is.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SERIES_RTOL = 1e-18     # omitted terms lie below this times the largest term
SERIES_MAX_TERMS = 10_000   # more index pairs than this: Im(tau) too small
SERIES_BLOCK = 1 << 16  # terms x points evaluated per broadcast block


class EllipticDomainError(ValueError):
    """Parameter outside the admissible domain (e.g. Im(tau) <= 0)."""


class PoleError(ZeroDivisionError):
    """Evaluation hit (or came numerically too close to) a pole."""


class DegenerateConfigError(ValueError):
    """Coinciding spectral parameters where distinct ones are required."""


class SizeGuardError(ValueError):
    """Requested dense operation exceeds the desk-scale size guard."""


class SolverError(RuntimeError):
    """Iterative solver failed to converge; carries the best iterate."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class AccuracyError(RuntimeError):
    """Quadrature/truncation did not reach the requested accuracy."""


class _Terms(NamedTuple):
    """Truncated theta series for one (kind, tau), terms in summation order.

    `expo` is i pi tau a^2 and `fac` stacks w^0, w^1, w^2 with w = 2 pi i a,
    the factor of one z-derivative; `scalar` holds (expo, w, w^2, sign) as
    Python numbers for the pure-cmath path.
    """

    sign: np.ndarray
    expo: np.ndarray
    fac: np.ndarray
    scalar: tuple


@functools.lru_cache(maxsize=256)
def _term_table(kind, tau):
    """Series terms whose size may exceed SERIES_RTOL x the largest term.

    After argument reduction |Im z| <= Im(tau)/2, so the term of index a is
    at most exp(-pi Im(tau) ((|a| - 1/2)^2 - 1/4)) times the largest term;
    indices with (|a| - 1/2)^2 >= 1/4 + ln(1/SERIES_RTOL)/(pi Im tau) are
    dropped (cf. Deconinck et al., Math. Comp. 73 (2004)).  Kinds 1 and 2
    sum a in Z + 1/2, kinds 3 and 4 sum a in Z; the pairs +-a are
    interleaved by increasing |a|.
    """
    bound = 0.5 + math.sqrt(
        0.25 + math.log(1.0 / SERIES_RTOL) / (math.pi * tau.imag))
    half = kind in (1, 2)
    count = math.ceil(bound - 0.5) if half else math.ceil(bound) - 1
    if count > SERIES_MAX_TERMS:
        raise EllipticDomainError(
            f"theta series needs {count} index pairs at Im(tau) = "
            f"{tau.imag:.3g}, more than {SERIES_MAX_TERMS}; use theta_log")
    terms = []
    if half:
        for j in range(count):
            a = j + 0.5
            if kind == 1:
                # k = -j-1 term: (-1)^{-j-1} = -(-1)^j
                terms += [(a, -1j * (-1) ** j), (-a, 1j * (-1) ** j)]
            else:
                terms += [(a, 1.0), (-a, 1.0)]
    else:
        sgn = -1 if kind == 4 else 1
        terms.append((0.0, 1.0))
        for j in range(1, count + 1):
            terms += [(float(j), sgn ** j), (-float(j), sgn ** j)]
    ipt = 1j * math.pi * tau
    scalar = []
    for a, sign in terms:
        w = 2j * math.pi * a
        scalar.append((ipt * a * a, w, w * w, complex(sign)))
    expo, w, w2, sign = (np.array(col) for col in zip(*scalar))
    out = _Terms(sign, expo, np.stack([np.ones_like(w), w, w2]),
                 tuple(scalar))
    for arr in out[:3]:
        arr.flags.writeable = False     # shared by every cached caller
    return out


def _series_scalar(kind, z, tau, order):
    """[g, g', g''] of the reduced series at one complex z, in pure cmath."""
    g0 = g1 = g2 = 0j
    exp = cmath.exp
    if order == 0:  # the common case, a sixth faster without the factors
        for expo, w, _, sign in _term_table(kind, tau).scalar:
            g0 += sign * exp(expo + w * z)
        return g0, g1, g2
    for expo, w, w2, sign in _term_table(kind, tau).scalar:
        ph = sign * exp(expo + w * z)
        g0 += ph
        g1 += ph * w
        g2 += ph * w2
    return g0, g1, g2


def _series_sum(kind, z, tau, order, scale=0.0):
    """Two-sided theta series at reduced argument; z is an ndarray.

    Each term's exponent i pi tau a^2 + 2 pi i a z is assembled before
    exponentiating (minus `scale`, an elementwise real offset), so huge
    coefficient/phase pairs with a moderate product stay in range.  Points
    go through in blocks of at most SERIES_BLOCK terms x points, each one
    broadcast; the sum over terms runs elementwise in term order (no BLAS).
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()
    scale = np.broadcast_to(scale, shape).ravel()
    t = _term_table(kind, tau)
    out = np.empty((order + 1, z.size), dtype=complex)
    w = t.fac[1][:, None]
    step = max(1, SERIES_BLOCK // len(w))
    for lo in range(0, z.size, step):
        blk = slice(lo, lo + step)
        ph = t.sign[:, None] * np.exp(t.expo[:, None] + w * z[blk]
                                      - scale[blk])
        # running sums, in term order for any number of points (sum(axis=0)
        # goes pairwise on a one-point block); ph itself is summed last
        for d in range(order, -1, -1):
            terms = t.fac[d][:, None] * ph if d else ph
            out[d, blk] = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return out.reshape((order + 1,) + shape)


def _cmul(a, b):
    """a * b spelled out in real arithmetic, so that numpy arrays and Python
    complex numbers round alike (numpy's complex multiply may fuse)."""
    if isinstance(a, complex):
        return complex(a.real * b.real - a.imag * b.imag,
                       a.real * b.imag + a.imag * b.real)
    out = np.empty(np.shape(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _reduce(z, tau):
    """z = z_red + k + m tau with |Re z_red| <= 1/2, |Im z_red| <= Im(tau)/2."""
    if isinstance(z, complex):
        m = float(round(z.imag / tau.imag))
        zr = z - m * tau
        k = float(round(zr.real))
        return zr - k, k, m
    m = np.round(z.imag / tau.imag)
    zr = z - m * tau
    k = np.round(zr.real)
    return zr - k, k, m


def theta(kind, z, tau, order=0):
    """Theta function theta_kind^{(order)}(z; tau), derivative taken in z.

    Parameters
    ----------
    kind : int in {1, 2, 3, 4}
    z : complex scalar or ndarray
    tau : complex with Im(tau) > 0
    order : int in {0, 1, 2}, derivative order

    Real and imaginary parts of z are reduced modulo the quasi-periods
    before summation, so large arguments stay accurate.  A scalar z is
    evaluated in pure cmath, an array in broadcast blocks; both round
    alike, so theta(kind, zs)[i] == theta(kind, zs[i]).
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"theta kind must be 1..4, got {kind}")
    if not 0 <= order <= 2:
        raise ValueError(f"derivative order must be 0..2, got {order}")
    tau = complex(tau)
    if tau.imag <= 0:
        raise EllipticDomainError(f"Im(tau) must be positive, got tau={tau}")
    scalar = np.ndim(z) == 0
    if scalar and cmath.isfinite(complex(z)):
        zr, k, m = _reduce(complex(z), tau)
        g = _series_scalar(kind, zr, tau, order)
        exp = cmath.exp
    else:
        zr, k, m = _reduce(np.atleast_1d(np.asarray(z, dtype=complex)), tau)
        g = _series_sum(kind, zr, tau, order)
        exp = np.exp

    # theta(z) = sign * e^{-i pi tau m^2} e^{-2 i pi m z_red} * theta(z_red)
    sign = (-1.0) ** (k + m if kind == 1 else k if kind == 2
                      else m if kind == 4 else 0.0 * k)
    phi = sign * exp(-1j * math.pi * tau * m * m - 2j * math.pi * m * zr)
    c1 = -2j * math.pi * m
    if order == 0:
        res = _cmul(phi, g[0])
    elif order == 1:
        res = _cmul(phi, c1 * g[0] + g[1])
    else:
        res = _cmul(phi, c1 * c1 * g[0] + 2.0 * c1 * g[1] + g[2])
    if scalar and isinstance(res, np.ndarray):  # a non-finite scalar z
        return complex(res[0])
    return res


_JACOBI_PARTNER = {1: 1, 2: 4, 3: 3, 4: 2}


def theta_log(kind, z, tau, small_im=0.05):
    """log(theta_kind(z; tau)), stable over the full double range.

    For Im(tau) below `small_im` the imaginary Jacobi transformation moves
    the evaluation to the dual modulus -1/tau, with the (potentially huge)
    Gaussian prefactor kept in the exponent.  Individual logs carry an
    arbitrary 2 pi i branch; only exponentiated sums are meaningful.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise EllipticDomainError(f"Im(tau) must be positive, got tau={tau}")
    zarr = np.asarray(z, dtype=complex)
    scalar = zarr.ndim == 0
    zarr = np.atleast_1d(zarr)
    if tau.imag < small_im:
        part = _JACOBI_PARTNER[kind]
        base = theta_log(part, -zarr / tau, -1.0 / tau, small_im=small_im)
        pref = -0.5 * np.log(-1j * tau) - 1j * math.pi * zarr * zarr / tau
        if kind == 1:
            pref = pref + cmath.log(-1j)
        out = base + pref
        return complex(out[0]) if scalar else out

    zr, k, m = _reduce(zarr, tau)
    # subtract the real exponent of the largest lattice term, so that this
    # term is 1 and the reduced series stays in range for large dual moduli:
    # index 0 for kinds 3 and 4, the +-1/2 nearer -Im z/Im tau for 1 and 2
    a = 0.0 if kind in (3, 4) else np.where(zr.imag > 0, -0.5, 0.5)
    scale = -math.pi * a * (a * tau.imag + 2.0 * zr.imag)
    g = _series_sum(kind, zr, tau, 0, scale=scale)[0]
    if kind == 1:
        sign_log = 1j * math.pi * (k + m)
    elif kind == 2:
        sign_log = 1j * math.pi * k
    elif kind == 3:
        sign_log = np.zeros_like(k) * 1j
    else:
        sign_log = 1j * math.pi * m
    out = (np.log(g) + scale + sign_log
           - 1j * math.pi * tau * m * m - 2j * math.pi * m * zr)
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class ModelParams:
    """Global parameters of the cyclic SOS model.

    tau : elliptic modulus, Im(tau) > 0
    r, L : coprime integers, 0 < r < L; crossing parameter eta = r/L
    s0 : global shift of the dynamical parameter (heights live on s0 + Z/LZ)

    Derived quantities: q = e^{2 pi i eta}, eta_tilde = -eta/tau,
    tau_tilde = -1/tau, s0_tilde = s0 + 1/(2 eta_tilde) = s0 - tau/(2 eta).
    """

    tau: complex
    r: int
    L: int
    s0: complex
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if tau.imag <= 0:
            raise EllipticDomainError(f"Im(tau) must be positive, got {tau}")
        if not (0 < self.r < self.L):
            raise ValueError(f"need 0 < r < L, got r={self.r}, L={self.L}")
        if math.gcd(self.r, self.L) != 1:
            raise ValueError(f"r={self.r} and L={self.L} must be coprime")
        if self.validate:
            scale = abs(theta(1, 0.3 + 0.1j, tau))
            for j in range(self.L):
                if abs(self.bracket(self.s0 + j)) < 1e-12 * max(scale, 1.0):
                    raise EllipticDomainError(
                        f"bracket vanishes at height s0+{j}; shift s0")

    @property
    def eta(self):
        return self.r / self.L

    @property
    def q(self):
        return cmath.exp(2j * math.pi * self.eta)

    @property
    def tau_tilde(self):
        return -1.0 / complex(self.tau)

    @property
    def eta_tilde(self):
        return -self.eta / complex(self.tau)

    @property
    def s0_tilde(self):
        return self.s0 + 1.0 / (2.0 * self.eta_tilde)

    def qpow(self, z):
        """q^z = e^{2 pi i eta z} on the fixed branch."""
        return np.exp(2j * math.pi * self.eta * np.asarray(z)) if np.ndim(z) \
            else cmath.exp(2j * math.pi * self.eta * z)

    def bracket(self, u, order=0):
        """[u] = theta1(eta*u; tau); order 1 gives d[u]/du = eta*theta1'."""
        val = theta(1, self.eta * np.asarray(u) if np.ndim(u) else self.eta * u,
                    self.tau, order=order)
        return val * self.eta ** order

    def height(self, a):
        """Height value s0 + a for an integer class label a."""
        return self.s0 + a


def bracket(u, params, order=0):
    """Model bracket [u] (order 0) or its u-derivative [u]' (order 1)."""
    if not 0 <= order <= 1:
        raise ValueError("bracket supports order 0 or 1")
    return params.bracket(u, order=order)


# ---------------------------------------------------------------------------
# identity catalogue
# ---------------------------------------------------------------------------

def _jacobi_residual(kind, z, tau):
    """Imaginary transformation tau -> -1/tau for the four kinds."""
    pref = (-1j * tau) ** (-0.5) * cmath.exp(-1j * math.pi * z * z / tau)
    lhs = theta(kind, z, tau)
    rhs = pref * theta(_JACOBI_PARTNER[kind], -z / tau, -1.0 / tau)
    if kind == 1:
        rhs = -1j * rhs
    return abs(lhs - rhs)


def _periods_residual(z, tau):
    r1 = abs(theta(1, z + 1.0, tau) + theta(1, z, tau))
    f = -cmath.exp(-1j * math.pi * tau) * cmath.exp(-2j * math.pi * z)
    r2 = abs(theta(1, z + tau, tau) - f * theta(1, z, tau))
    return max(r1, r2)


def _schroter_residual(x, y, tau, r, L):
    lhs = theta(3, x, r * tau / L) * theta(3, y, (L - r) * tau / L)
    rhs = 0.0
    for k in range(L):
        rhs += (cmath.exp(1j * math.pi * r * tau / L * k * k)
                * cmath.exp(2j * math.pi * k * x)
                * theta(3, x - y + r * k * tau / L, tau)
                * theta(3, (L - r) * x + r * y + r * (L - r) * k * tau / L,
                        r * (L - r) * tau))
    return abs(lhs - rhs)


def _id_sum1_residual(n, k, x, y, tau):
    tot = 0.0
    for nu in range(n):
        den = theta(1, x, tau) * theta(1, y + nu / n, tau)
        if abs(den) < 1e-13:
            raise PoleError("id-sum1 summand hits a pole")
        tot += (cmath.exp(-2j * math.pi * k * nu / n)
                * theta(1, x + y + nu / n, tau) * theta(1, 0, tau, order=1) / den)
    lhs = tot / n
    den = theta(1, x + k * tau, n * tau) * theta(1, n * y, n * tau)
    if abs(den) < 1e-13:
        raise PoleError("id-sum1 closed form hits a pole")
    rhs = (cmath.exp(2j * math.pi * k * y)
           * theta(1, x + n * y + k * tau, n * tau)
           * theta(1, 0, n * tau, order=1) / den)
    return abs(lhs - rhs)


def _id_sum2_residual(n, x, y, tau):
    tot = 0.0
    for nu in range(n):
        den = theta(1, x, tau) * theta(1, y + nu * tau / n, tau)
        if abs(den) < 1e-13:
            raise PoleError("id-sum2 summand hits a pole")
        tot += (cmath.exp(2j * math.pi * nu * x / n)
                * theta(1, x + y + nu * tau / n, tau)
                * theta(1, 0, tau, order=1) / den)
    den = theta(1, x / n, tau / n) * theta(1, y, tau / n)
    if abs(den) < 1e-13:
        raise PoleError("id-sum2 closed form hits a pole")
    rhs = theta(1, x / n + y, tau / n) * theta(1, 0, tau / n, order=1) / den
    return abs(tot - rhs)


def _frobenius_residual(xs, ys, t, tau):
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    n = len(xs)
    th_t = theta(1, t, tau)
    diff = xs[:, None] - ys[None, :]
    th_diff = theta(1, diff, tau)
    if abs(th_t) < 1e-13 or np.min(np.abs(th_diff)) < 1e-13:
        raise PoleError("Frobenius matrix hits a pole")
    mat = theta(1, diff + t, tau) / (th_diff * th_t)
    lhs = np.linalg.det(mat)
    num = theta(1, np.sum(xs - ys) + t, tau) / th_t
    for i in range(n):
        for j in range(i + 1, n):
            num *= theta(1, xs[i] - xs[j], tau) * theta(1, ys[j] - ys[i], tau)
    rhs = num / np.prod(th_diff)
    return abs(lhs - rhs)


IDENTITY_IDS = ("jacobi", "periods", "schroter", "id_sum1", "id_sum2", "frobenius")


def identity_residual(identity_id, inputs):
    """|LHS - RHS| of one catalogued theta identity.

    `inputs` is a dict supplying the identity's free variables:
      jacobi    : kind, z, tau
      periods   : z, tau
      schroter  : x, y, tau, r, L
      id_sum1   : n, k, x, y, tau
      id_sum2   : n, x, y, tau
      frobenius : xs, ys, t, tau
    """
    if identity_id == "jacobi":
        return _jacobi_residual(inputs["kind"], inputs["z"], inputs["tau"])
    if identity_id == "periods":
        return _periods_residual(inputs["z"], inputs["tau"])
    if identity_id == "schroter":
        return _schroter_residual(inputs["x"], inputs["y"], inputs["tau"],
                                  inputs["r"], inputs["L"])
    if identity_id == "id_sum1":
        return _id_sum1_residual(inputs["n"], inputs["k"], inputs["x"],
                                 inputs["y"], inputs["tau"])
    if identity_id == "id_sum2":
        return _id_sum2_residual(inputs["n"], inputs["x"], inputs["y"],
                                 inputs["tau"])
    if identity_id == "frobenius":
        return _frobenius_residual(inputs["xs"], inputs["ys"], inputs["t"],
                                   inputs["tau"])
    raise ValueError(f"unknown identity {identity_id!r}; known: {IDENTITY_IDS}")
