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
DUAL_MODULUS_IM = 0.05  # theta_log moves to -1/tau below this Im(tau)


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
    the factor of one z-derivative.
    """

    sign: np.ndarray
    expo: np.ndarray
    fac: np.ndarray


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
    rows = []
    for a, sign in terms:
        w = 2j * math.pi * a
        rows.append((ipt * a * a, w, w * w, complex(sign)))
    expo, w, w2, sign = (np.array(col) for col in zip(*rows))
    out = _Terms(sign, expo, np.stack([np.ones_like(w), w, w2]))
    for arr in out:
        arr.flags.writeable = False     # shared by every cached caller
    return out


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
    """a * b of complex arrays spelled out in real arithmetic, so that it
    rounds as CPython multiplies (numpy's complex multiply may fuse)."""
    out = np.empty(np.shape(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cdiv(a, b):
    """a / b spelled out in real arithmetic as CPython divides (Smith's
    method), so that numpy arrays and Python complex numbers round alike."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    flip = np.abs(b.imag) > np.abs(b.real)   # divide through by b.imag
    ar, ai = np.where(flip, a.imag, a.real), np.where(flip, a.real, a.imag)
    br, bi = np.where(flip, b.imag, b.real), np.where(flip, b.real, b.imag)
    ratio = bi / br
    den = br + bi * ratio
    out = np.empty(np.shape(den), dtype=complex)
    out.real = (ar + ai * ratio) / den
    out.imag = np.where(flip, -1.0, 1.0) * (ai - ar * ratio) / den
    return out


def _reduce(z, tau):
    """z = z_red + k + m tau with |Re z_red| <= 1/2, |Im z_red| <= Im(tau)/2;
    z is an ndarray."""
    m = np.round(z.imag / tau.imag)
    zr = z - m * tau
    k = np.round(zr.real)
    return zr - k, k, m


def _theta_rows(kind, z, tau, order):
    """theta_kind and its z-derivatives up to `order` at the array z, from
    one series sum: the rows [theta, theta', ...], each as theta gives it.
    kind, order and tau (a complex) are taken as checked by theta."""
    zr, k, m = _reduce(z, tau)
    g = _series_sum(kind, zr, tau, order)
    # theta(z) = sign * e^{-i pi tau m^2} e^{-2 i pi m z_red} * theta(z_red)
    sign = (-1.0) ** (k + m if kind == 1 else k if kind == 2
                      else m if kind == 4 else 0.0 * k)
    phi = sign * np.exp(-1j * math.pi * tau * m * m - 2j * math.pi * m * zr)
    c1 = -2j * math.pi * m
    rows = [g[0]]
    if order >= 1:
        rows.append(c1 * g[0] + g[1])
    if order == 2:
        rows.append(c1 * c1 * g[0] + 2.0 * c1 * g[1] + g[2])
    return [_cmul(phi, row) for row in rows]


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
    summed as a one-point array and comes back as a Python complex; each
    point sums on its own, so theta(kind, zs)[i] == theta(kind, zs[i]).
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"theta kind must be 1..4, got {kind}")
    if not 0 <= order <= 2:
        raise ValueError(f"derivative order must be 0..2, got {order}")
    tau = complex(tau)
    if tau.imag <= 0:
        raise EllipticDomainError(f"Im(tau) must be positive, got tau={tau}")
    if np.size(z) == 0:     # nothing to reduce or sum
        return np.empty(np.shape(z), dtype=complex)
    res = _theta_rows(kind, np.atleast_1d(np.asarray(z, dtype=complex)), tau,
                      order)[order]
    return complex(res[0]) if np.ndim(z) == 0 else res


def stacked(fun, *args):
    """fun on all arguments at once, one value per argument.

    The arguments are raveled and concatenated, fun runs once on the whole
    array, and each value comes back in its argument's shape; a 0-d
    argument comes back as a Python complex, as theta returns it for a
    scalar.  fun must act elementwise, as theta and the bracket do, so the
    values are those of one call per argument, bit for bit.  When fun
    returns a list of such arrays (the rows of `_theta_rows`), one list of
    values comes back per row.
    """
    arrs = [np.asarray(a) for a in args]
    vals = fun(np.concatenate([a.ravel() for a in arrs]))
    ends = np.cumsum([a.size for a in arrs]).tolist()

    def split(row):
        pieces = (row[end - a.size:end].reshape(a.shape)
                  for a, end in zip(arrs, ends))
        return [complex(p) if p.ndim == 0 else p for p in pieces]

    return ([split(row) for row in vals] if isinstance(vals, list)
            else split(vals))


_JACOBI_PARTNER = {1: 1, 2: 4, 3: 3, 4: 2}


def theta_log(kind, z, tau):
    """log(theta_kind(z; tau)), stable over the full double range.

    For Im(tau) below DUAL_MODULUS_IM the imaginary Jacobi transformation
    moves the evaluation to the dual modulus -1/tau, with the (potentially
    huge) Gaussian prefactor kept in the exponent.  Individual logs carry an
    arbitrary 2 pi i branch; only exponentiated sums are meaningful.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise EllipticDomainError(f"Im(tau) must be positive, got tau={tau}")
    zarr = np.asarray(z, dtype=complex)
    scalar = zarr.ndim == 0
    zarr = np.atleast_1d(zarr)
    if tau.imag < DUAL_MODULUS_IM:
        part = _JACOBI_PARTNER[kind]
        base = theta_log(part, -zarr / tau, -1.0 / tau)
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


def theta3_log_outer(base, offsets, z, tau):
    """log(theta3(base + offsets[j] + z[k]; tau)) on the outer sum of the
    real offsets (a 1-d array of J) and the points z: shape (J,) + z.shape,
    branches as for theta_log.

    A real offset leaves the imaginary part alone, so the argument is
    reduced once per point, y_k = base + z_k, and each offset modulo the
    period 1.  Each series term then factors as e^{2 pi i a c_j} times
    e^{i pi tau a^2 + 2 pi i a y_k}: one exp per term and point and one per
    term and offset.  The products are summed elementwise in term order
    (no BLAS), so the value at (j, k) depends only on offsets[j] and z[k].
    Below DUAL_MODULUS_IM, where the offsets turn imaginary, it is
    theta_log on the outer sum.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise EllipticDomainError(f"Im(tau) must be positive, got tau={tau}")
    offsets = np.asarray(offsets, dtype=float)
    z = np.asarray(z, dtype=complex)
    if tau.imag < DUAL_MODULUS_IM:
        return theta_log(3, (base + offsets).reshape(
            (-1,) + (1,) * z.ndim) + z, tau)
    y, _, m = _reduce(np.ravel(base + z), tau)
    c = offsets - np.round(offsets)     # theta3 has period 1
    t = _term_table(3, tau)
    rec = np.exp(t.fac[1][:, None] * c)
    node = t.sign[:, None] * np.exp(t.expo[:, None] + t.fac[1][:, None] * y)
    # numpy's complex multiply fuses on some operand layouts and not on
    # others: each product is taken on distinct contiguous operands of one
    # shape, so every point goes through the same loop
    shape = (c.size, y.size)
    g = np.zeros(shape, dtype=complex)
    a, b, term = (np.empty(shape, dtype=complex) for _ in range(3))
    for rec_a, node_a in zip(rec, node):
        a[...], b[...] = rec_a[:, None], node_a
        g += np.multiply(a, b, out=term)
    out = (np.log(g) - 1j * math.pi * tau * m * m
           - 2j * math.pi * m * (c[:, None] + y))
    return out.reshape(c.shape + z.shape)


@dataclass(frozen=True)
class ModelParams:
    """Global parameters of the cyclic SOS model.

    tau : elliptic modulus, Im(tau) > 0
    r, L : coprime integers, 0 < r < L; crossing parameter eta = r/L
    s0 : global shift of the dynamical parameter (heights live on s0 + Z/LZ)

    Derived quantities: q = e^{2 pi i eta}, eta_tilde = -eta/tau,
    tau_tilde = -1/tau, s0_tilde = s0 + 1/(2 eta_tilde) = s0 - tau/(2 eta);
    bracket_prime0 = [0]' and bracket_prime1 = [1]' are evaluated once,
    when the model is made.
    """

    tau: complex
    r: int
    L: int
    s0: complex
    bracket_prime0: complex = field(init=False, repr=False, compare=False)
    bracket_prime1: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if tau.imag <= 0:
            raise EllipticDomainError(f"Im(tau) must be positive, got {tau}")
        if not (0 < self.r < self.L):
            raise ValueError(f"need 0 < r < L, got r={self.r}, L={self.L}")
        if math.gcd(self.r, self.L) != 1:
            raise ValueError(f"r={self.r} and L={self.L} must be coprime")
        object.__setattr__(self, "bracket_prime0", self.bracket(0.0, order=1))
        object.__setattr__(self, "bracket_prime1", self.bracket(1.0, order=1))
        # [s] vanishes where eta s is a lattice point m + n tau: the reduced
        # argument of each height lies within 1e-12 of 0
        zr = _reduce(self.eta * (self.s0 + np.arange(self.L)), tau)[0]
        hits = np.nonzero(np.abs(zr) < 1e-12)[0]
        if hits.size:
            raise EllipticDomainError(
                f"bracket vanishes at height s0+{hits[0]}; shift s0")

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

    def brackets(self, *args):
        """[a], [b], ... from one bracket call on the stacked arguments;
        see `stacked`."""
        return stacked(self.bracket, *args)

    def height(self, a):
        """Height value s0 + a for an integer class label a."""
        return self.s0 + a
