"""Thermodynamic limit: densities, Fredholm determinants, and multi-point
local height probabilities as multiple integrals.

Unless a modulus is written explicitly, theta functions in this module use
the rotated quasi-period tau_tilde = -1/tau; the kernel family lives at
modulus eta_tilde, and the closed one-point formulas mix moduli built from
(r, L) as indicated at each site.

The multi-point integrals run each variable over the period [-1/2, 1/2]
plus small circles around the path arguments: a lambda attached to a
descending step also encircles the shifted points xi~ - eta~ (index +1),
one attached to an ascending step encircles the xi~ (index -1).  The
integrand has simple poles there and the circle parts reduce to residues,
evaluated exactly; the segment part is a periodic trapezoid sum.
"""

import cmath
import itertools
import math

import numpy as np

from .elliptic import (AccuracyError, EllipticDomainError, PoleError, theta,
                       theta_log)
from .bethe import (bare_momentum, bare_phase, density_fourier,
                    momentum_shifts, p0_tot)
from .scalar import a_nu_factor, default_gamma, gamma_retry
from .matel import flat_basis_phases, slot_positions

FOURIER_MODES = 400


# ---------------------------------------------------------------------------
# density and Lieb equation
# ---------------------------------------------------------------------------

def rho_homogeneous(z, params):
    """Root density of the homogeneous model (theta closed form)."""
    et = params.eta_tilde
    num = theta(1, 0, et, order=1) * theta(3, np.asarray(z), et)
    den = theta(2, 0, et) * theta(4, np.asarray(z), et)
    return num / den / (2.0 * math.pi)


def density(z, config, params):
    """rho_tot(z): inhomogeneity-averaged root density."""
    sh = momentum_shifts(config, params)
    vals = rho_homogeneous(np.asarray(z)[..., None] - sh, params)
    return vals.mean(axis=-1)


def lieb_residual(z, config, params, modes=FOURIER_MODES):
    """Defect of the integral equation rho + K*rho = p0'/(2 pi) at z."""
    z = np.asarray(z, dtype=float)
    ms = np.arange(-modes, modes + 1)
    rho = density_fourier(ms, config, params)
    conv = np.zeros(z.shape, dtype=complex)
    for m, rho_m in zip(ms, rho):
        conv += (kernel_fourier("K", m, params) * rho_m
                 * np.exp(2j * math.pi * m * z))
    lhs = density(z, config, params) + conv
    rhs = p0_tot(z, config, params, order=1) / (2.0 * math.pi)
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# kernel family and Fourier coefficients
# ---------------------------------------------------------------------------

def _strip_check(t, tau):
    if not 0 < complex(t).imag < complex(tau).imag:
        raise EllipticDomainError(
            f"parameter {t} outside the strip 0 < Im t < Im tau = {tau}")


def _exp_ratio(a, z):
    """e^{2 pi i a} / (1 - e^{2 pi i z}), stable for Im(z) of either sign."""
    if complex(z).imag >= 0.0:
        den = 1.0 - cmath.exp(2j * math.pi * z)
        if abs(den) < 1e-14:
            raise PoleError("vanishing denominator in Fourier coefficient")
        return cmath.exp(2j * math.pi * a) / den
    den = 1.0 - cmath.exp(-2j * math.pi * z)
    if abs(den) < 1e-14:
        raise PoleError("vanishing denominator in Fourier coefficient")
    return -cmath.exp(2j * math.pi * (a - z)) / den


def kernel_fourier(kernel_id, m, params, **kw):
    """Closed-form Fourier coefficient of one of the 1-periodic kernels.

    kernel_id in {'theta0', 'theta_Xt', 'p0prime', 'K', 'K_XY', 't_XY'};
    keyword arguments supply t, X, Y, zeta as needed.
    """
    tt = params.tau_tilde
    et = params.eta_tilde
    if kernel_id == "theta0":
        t = kw["t"]
        tau = kw.get("tau", tt)
        _strip_check(t, tau)
        if m == 0:
            return 0.5
        return _exp_ratio(m * t, m * tau)
    if kernel_id == "theta_Xt":
        t, X = kw["t"], kw["X"]
        tau = kw.get("tau", tt)
        _strip_check(t, tau)
        return _exp_ratio(m * t, X + m * tau)
    if kernel_id == "p0prime":
        if m == 0:
            return 2.0 * math.pi
        am = abs(m)
        return (2.0 * math.pi * np.exp(1j * math.pi * am * et)
                * (1 - np.exp(2j * math.pi * am * (tt - et)))
                / (1 - np.exp(2j * math.pi * am * tt)))
    if kernel_id == "K":
        if m == 0:
            return 1.0
        am = abs(m)
        return (np.exp(2j * math.pi * am * et)
                * (1 - np.exp(2j * math.pi * am * (tt - 2 * et)))
                / (1 - np.exp(2j * math.pi * am * tt)))
    if kernel_id == "K_XY":
        X, Y = kw["X"], kw["Y"]
        return (_exp_ratio(Y + m * et, X + m * tt)
                + _exp_ratio(-Y - m * et, -X - m * tt))
    if kernel_id == "t_XY":
        X, Y, zeta = kw["X"], kw["Y"], kw["zeta"]
        return (_exp_ratio(Y + m * et - m * zeta, X + m * tt)
                + _exp_ratio(-m * zeta, -X - m * tt))
    raise ValueError(f"unknown kernel id {kernel_id!r}")


def kernel_direct(kernel_id, z, params, **kw):
    """Direct theta-function evaluation of the same kernels (oracle side)."""
    tt = params.tau_tilde
    et = params.eta_tilde
    z = np.asarray(z, dtype=complex)
    if kernel_id == "K":
        return bare_phase(z, params, order=1) / (2.0 * math.pi)
    if kernel_id == "p0prime":
        return bare_momentum(z, params, order=1)
    if kernel_id == "theta0":
        t = kw["t"]
        tau = kw.get("tau", tt)
        return (1j / (2 * math.pi)) * theta(1, z + t, tau, order=1) / theta(1, z + t, tau)
    if kernel_id == "theta_Xt":
        t, X = kw["t"], kw["X"]
        tau = kw.get("tau", tt)
        return ((1j / (2 * math.pi)) * theta(1, 0, tau, order=1)
                * theta(1, z + X + t, tau)
                / (theta(1, X, tau) * theta(1, z + t, tau)))
    if kernel_id == "K_XY":
        X, Y = kw["X"], kw["Y"]
        pref = (1j / (2 * math.pi)) * theta(1, 0, tt, order=1) / theta(1, X, tt)
        return pref * (np.exp(2j * math.pi * Y) * theta(1, z + X + et, tt)
                       / theta(1, z + et, tt)
                       - np.exp(-2j * math.pi * Y) * theta(1, z + X - et, tt)
                       / theta(1, z - et, tt))
    if kernel_id == "t_XY":
        X, Y, zeta = kw["X"], kw["Y"], kw["zeta"]
        pref = (1j / (2 * math.pi)) * theta(1, 0, tt, order=1) / theta(1, X, tt)
        return pref * (np.exp(2j * math.pi * Y)
                       * theta(1, z - zeta + X + et, tt)
                       / theta(1, z - zeta + et, tt)
                       - theta(1, z - zeta + X, tt) / theta(1, z - zeta, tt))
    raise ValueError(f"unknown kernel id {kernel_id!r}")


# ---------------------------------------------------------------------------
# Fredholm determinants
# ---------------------------------------------------------------------------

def _nome_products(params, M):
    tt, et = params.tau_tilde, params.eta_tilde
    qt = np.exp(2j * math.pi * tt * np.arange(1, M + 1))
    qe = np.exp(2j * math.pi * et * np.arange(1, M + 1))
    qte = np.exp(2j * math.pi * (tt - et) * np.arange(1, M + 1))
    return qt, qe, qte


def fredholm_det(which, mode="closed", params=None, X=None, Y=None, modes=200):
    """Fredholm determinants of the convolution kernels on [-1/2, 1/2].

    which: 'base' (1 + K - V0), 'XY' (1 + K_X^(Y)), or 'ratio'.
    mode: 'closed' evaluates the theta/product expressions (tail truncated
    at `modes`); 'truncated' multiplies eigenvalues 1 + c_m for |m| <= modes.
    """
    eta = params.eta
    tt, et = params.tau_tilde, params.eta_tilde
    if which == "base":
        if mode == "truncated":
            out = 2.0 * (1.0 - eta)
            for m in range(1, modes + 1):
                lam = 1.0 + kernel_fourier("K", m, params)
                if lam == 0.0:
                    raise PoleError("singular integral operator: 1 + K_m = 0")
                out *= lam ** 2
            return out
        qt, qe, qte = _nome_products(params, modes)
        return 2.0 * (1.0 - eta) * np.prod((1 + qe) ** 2 * (1 - qte) ** 2
                                           / (1 - qt) ** 2)
    if which == "XY":
        if mode == "truncated":
            out = 1.0 + 0.0j
            for m in range(-modes, modes + 1):
                lam = 1.0 + kernel_fourier("K_XY", m, params, X=X, Y=Y)
                if lam == 0.0:
                    raise PoleError("singular integral operator: 1 + c_m = 0")
                out *= lam
            return out
        qt, qe, qte = _nome_products(params, modes)
        pref = (theta(1, X - Y, tt - et) * theta(2, Y, et) / theta(1, X, tt))
        return pref * np.prod((1 - qt) / ((1 - qe) * (1 - qte)))
    if which == "ratio":
        if mode == "truncated":
            return (fredholm_det("XY", "truncated", params, X=X, Y=Y, modes=modes)
                    / fredholm_det("base", "truncated", params, modes=modes))
        return (theta(1, X - Y, tt - et) / theta(1, 0, tt - et, order=1)
                * theta(1, 0, tt, order=1) / theta(1, X, tt)
                * theta(2, Y, et) / theta(2, 0, et) / (1.0 - eta))
    raise ValueError(f"unknown determinant {which!r}")


def fredholm_tail_bound(which, params, modes=200):
    """Geometric bound on the neglected log-tail of the product forms."""
    tt, et = params.tau_tilde, params.eta_tilde
    terms = []
    for q in (np.exp(2j * math.pi * tt), np.exp(2j * math.pi * et),
              np.exp(2j * math.pi * (tt - et))):
        a = abs(q) ** (modes + 1)
        terms.append(2 * a / (1 - abs(q)))
    return 2.0 * sum(terms)


def resolvent_S(Y, z, params):
    """Resolvent kernel S^(Y)(z) at modulus eta_tilde."""
    et = params.eta_tilde
    den = theta(2, Y, et) * theta(1, np.asarray(z), et)
    if np.min(np.abs(den)) < 1e-14:
        raise PoleError(f"resolvent pole at z={z}")
    return (theta(1, 0, et, order=1) * theta(2, np.asarray(z) + Y, et)
            / (2j * math.pi * den))


def resolvent_equation_residual(Y, X, zeta, params, modes=300, points=7):
    """Defect of S + K_XY * S = t_XY at a few sample points (Fourier synth)."""
    ys = np.linspace(-0.45, 0.45, points)
    worst = 0.0
    for y in ys:
        conv = 0.0j
        for m in range(-modes, modes + 1):
            sm = (kernel_fourier("t_XY", m, params, X=X, Y=Y, zeta=zeta)
                  / (1.0 + kernel_fourier("K_XY", m, params, X=X, Y=Y)))
            conv += (kernel_fourier("K_XY", m, params, X=X, Y=Y) * sm
                     * np.exp(2j * math.pi * m * y))
        lhs = resolvent_S(Y, y - zeta, params) + conv
        rhs = kernel_direct("t_XY", y, params, X=X, Y=Y, zeta=zeta)
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# (modified) one-point local height probability
# ---------------------------------------------------------------------------

def _pbar_bethe_pair(s, Z, kk, ll, params, gamma):
    """Dressing factor P(s, Z; k, l) between two ground-state labels.

    Twist-sum representation; gamma is the untilded free parameter, the
    tilded one is gamma_t = eta_tilde * gamma.
    """
    L, r, eta = params.L, params.r, params.eta
    Lr = L - r
    tt, et = params.tau_tilde, params.eta_tilde
    gt = et * gamma
    D = (L * kk + 2.0 * ll) / (2.0 * Lr)
    den = theta(1, Z - D + gt + et * s, tt)
    if abs(den) < 1e-13:
        raise PoleError("one-point prefactor pole; redraw gamma")
    pref = (np.exp(-1j * math.pi * s * (-(r * kk + 2.0 * ll) / Lr
                                        + 2.0 * eta * gt))
            * theta(1, et * s, tt) / (et * den))
    tot = 0.0j
    for nu in range(L):
        tot += (params.qpow(nu * s) * a_nu_factor(nu, gamma, params)
                * theta(1, (1 - eta) * gt + eta * nu, tt - et)
                / theta(1, 0, tt - et, order=1)
                * theta(2, Z - D + eta * (gt - nu), et)
                / theta(2, 0, et))
    return pref * tot / Lr


def _pbar_bethe_pair_fred(s, Z, kk, ll, params, gamma, modes=200):
    """Same quantity with the explicit Fredholm-determinant ratio."""
    L, r, eta = params.L, params.r, params.eta
    Lr = L - r
    tt, et = params.tau_tilde, params.eta_tilde
    gt = et * gamma
    D = (L * kk + 2.0 * ll) / (2.0 * Lr)
    pref = (np.exp(-1j * math.pi * s * (kk - (L * kk + 2.0 * ll) / Lr
                                        + 2.0 * eta * gt))
            * theta(1, et * s, tt) * theta(1, -D + gt, tt)
            / (et * theta(1, 0, tt, order=1)
               * theta(1, Z - D + gt + et * s, tt)))
    tot = 0.0j
    for nu in range(L):
        ratio = fredholm_det("ratio", "closed", params,
                             X=gt - D, Y=eta * (gt - nu) - D, modes=modes)
        tot += (params.qpow(nu * s) * a_nu_factor(nu, gamma, params) * ratio
                * theta(2, Z - D + eta * (gt - nu), et)
                / theta(2, -D + eta * (gt - nu), et))
    return pref * tot / L


def _pbar_bethe_pair_alt(s, Z, kk, ll, params, gamma, jmax=None):
    """Summation-swapped representation (series over the dual index j)."""
    L, r, eta = params.L, params.r, params.eta
    Lr = L - r
    tt, et = params.tau_tilde, params.eta_tilde
    gt = et * gamma
    D = (L * kk + 2.0 * ll) / (2.0 * Lr)
    if jmax is None:
        jmax = max(12, int(7.0 / math.sqrt(complex(et).imag)))
    pref = np.exp(1j * math.pi * s * (r * kk + 2.0 * ll) / Lr) / Lr
    tot = 0.0j
    for j in range(-jmax, jmax + 1):
        tot += (np.exp(1j * math.pi * et * j * j)
                * np.exp(2j * math.pi * j * (Z - D))
                * theta(1, et * s, tt) * theta(1, gt - D + Z + et * j, tt)
                / (theta(1, Z - D + gt + et * s, tt)
                   * theta(1, 0, tt - et, order=1) * theta(2, 0, et))
                * theta(1, gt + et * (s - j), tt) * theta(1, 0, tt, order=1)
                / (theta(1, et * (s - j), tt) * theta(1, gt, tt)))
    return pref * tot


def one_point_barP(a, Z, eps, t_label, params, mode="closed", gamma=None):
    """(Modified) one-point local height probability P(s0+a, Z; eps, t).

    mode: 'closed' (parity-split theta formulas in the original modulus),
    'closed_tilde' (rotated-modulus form), 'nu_sum' (twist sum over the
    ground-state pairs), 'nu_sum_fred' (ditto, explicit Fredholm ratio) or
    'alt' (dual series form).
    """
    L, r, eta = params.L, params.r, params.eta
    Lr = L - r
    s = params.height(a)
    if mode in ("nu_sum", "nu_sum_fred", "alt"):
        fun = {"nu_sum": _pbar_bethe_pair,
               "nu_sum_fred": _pbar_bethe_pair_fred,
               "alt": _pbar_bethe_pair_alt}[mode]
        phases = flat_basis_phases(eps, t_label, params)

        def run(g):
            tot = 0.0j
            for (kk, ll), phase in phases.items():
                tot += phase * fun(s, Z, kk, ll, params, g)
            return tot

        return gamma_retry(run, params, gamma)

    tau = complex(params.tau)
    tt, et = params.tau_tilde, params.eta_tilde
    st = s + 1.0 / (2.0 * et)
    st0 = params.s0 + 1.0 / (2.0 * et)
    Z = np.asarray(Z, dtype=complex)
    if mode == "closed":
        # assembled in log space: the individual theta factors run over the
        # whole double range at small |tau| while the probability is O(1)
        if L % 2 == 0 and (eps + t_label - a) % 2 != 0:
            return (np.zeros(Z.shape, dtype=complex) if Z.ndim else 0.0 + 0.0j)
        lg = (1j * math.pi * (2.0 * r / L * st * Z + (L - r) / r * Z * Z * tau)
              + theta_log(4, r * st / L, tau)
              - math.log(L)
              - theta_log(4, 0, L * tau / r)
              - theta_log(4, r * (st0 + t_label) / Lr, L * tau / Lr))
        if L % 2 == 0:
            lg = lg + math.log(2.0) + theta_log(
                3, (st0 + t_label) / Lr - st / L + Z * tau / r, tau / (r * Lr))
        else:
            lg = lg + theta_log(
                3, (0.5 - 0.5 / L) * st - (0.5 - 0.5 / Lr) * (st0 + t_label)
                - eps / 2.0 + Z * tau / (2.0 * r), tau / (4.0 * r * Lr))
        return _exp_clamped(lg)
    if mode == "closed_tilde":
        lg = (1j * math.pi * et * (t_label + st0 - st) ** 2
              - 2j * math.pi * (t_label + st0 - st) * Z
              + theta_log(2, et * st, tt)
              - theta_log(2, 0, et)
              - theta_log(2, et * (st0 + t_label), tt - et)
              + math.log(2.0))
        if L % 2 == 0:
            if (eps + t_label - a) % 2 != 0:
                return (np.zeros(Z.shape, dtype=complex) if Z.ndim
                        else 0.0 + 0.0j)
            lg = lg + theta_log(3, r * et * st - Lr * Z
                                + r * (t_label + st0 - st) * tt, r * Lr * tt)
            return _exp_clamped(lg)
        w = eps + t_label + st0 - st
        lg = lg + (1j * math.pi * r * Lr * tt * w * w
                   - 2j * math.pi * w * (r * et * st
                                         + r * (t_label + st0 - st) * tt
                                         - Lr * Z)
                   + theta_log(3, 2 * r * et * st - 2 * Lr * Z
                               + 2 * r * (t_label + st0 - st) * tt
                               - 2 * r * w * Lr * tt, 4 * r * Lr * tt))
        return _exp_clamped(lg)
    raise ValueError(f"unknown mode {mode!r}")


def _exp_clamped(logval):
    """exp with underflow to exact zero and loud overflow."""
    logval = np.asarray(logval)
    re = np.real(logval)
    if np.any(re > 700.0):
        raise AccuracyError("closed-form evaluation overflows; check regime")
    out = np.where(re < -700.0, 0.0, np.exp(np.where(re < -700.0, 0.0, logval)))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# multi-point local height probabilities (multiple integrals)
# ---------------------------------------------------------------------------

def algebraic_factor_Gtilde(lams, s1, alphas, mus, params):
    """G~(s_1; {lambda}, {mu}) of the thermodynamic representation.

    lams has shape (m, K); returns shape (K,).
    """
    tt, et = params.tau_tilde, params.eta_tilde
    m = len(alphas)
    ipos, n_minus = slot_positions(alphas)
    out = np.full(lams.shape[1], (-1.0) ** (m - n_minus), dtype=complex)
    for p in range(m):
        ip = ipos[p]
        part = sum(alphas[:ip - 1])
        out *= (theta(1, et * (s1 + part) + lams[p] - mus[ip - 1], tt)
                / theta(1, et * (s1 + part), tt))
    for j in range(m):
        for k in range(j + 1, m):
            out /= theta(1, mus[k] - mus[j], tt)
            out /= theta(1, lams[j] - lams[k] + et, tt)
    for p in range(m):
        ip = ipos[p]
        for k in range(1, ip):
            out *= theta(1, mus[k - 1] - lams[p], tt)
        for k in range(ip + 1, m + 1):
            out *= theta(1, mus[k - 1] - lams[p] + et * alphas[ip - 1], tt)
    return out


def cauchy_factor_S(lams, mus, params, frozen):
    """S-bar: the Cauchy-type determinant core at modulus eta_tilde.

    Each frozen lambda drops its own singular factor and one power of
    theta1'(0)/(2 pi i) (its residue has already been extracted).
    """
    et = params.eta_tilde
    m = len(mus)
    t1p = theta(1, 0, et, order=1)
    nfree = m - sum(frozen)
    out = np.full(lams.shape[1], (t1p / (2j * math.pi)) ** nfree, dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            out *= theta(1, lams[i] - lams[j], et)
            out *= theta(1, mus[j] - mus[i], et)
    for i in range(m):
        for j in range(m):
            if frozen[i] and abs(complex(lams[i, 0]) - complex(mus[j])) < 1e-14:
                continue
            out /= theta(1, lams[i] - mus[j], et)
    return out


def _classify_zetas(path, config, params):
    """Split the path arguments into the unshifted/shifted inhomogeneity
    families (in the tilde variables).

    Coinciding arguments, where the integrand is singular, raise
    DegenerateConfigError.
    """
    et = params.eta_tilde
    zt = [et * z for z in path.check_zetas(config, params)]
    xt = [et * x for x in config.xi]
    fam = []
    for z in zt:
        if any(abs(z - x) < 1e-9 for x in xt):
            fam.append("plain")
        elif any(abs(z - (x - et)) < 1e-9 for x in xt):
            fam.append("shifted")
        else:
            raise ValueError(
                "path argument outside the (possibly shifted) inhomogeneity "
                "family required by the thermodynamic representation")
    return zt, fam


def multipoint_lhp(path, eps, t_label, config, params, resolution=512,
                   perturb_degenerate=False, tolerance=None):
    """Multi-point LHP at adjacent sites in the flat ground-state basis.

    Returns (value, error_estimate); the estimate compares the quadrature
    with its half-resolution subgrid, and with `tolerance` set an estimate
    above it raises AccuracyError carrying the achieved value.  Degenerate
    argument pairs {xi~, xi~ - eta~} are refused unless perturb_degenerate
    is set, in which case a Richardson extrapolation over two small
    offsets is used.
    """
    m = path.m
    if m > 3:
        raise ValueError("multiple integrals supported for m <= 3 only")
    et = params.eta_tilde
    if m == 0:
        return one_point_barP(path.heights[0], 0.0, eps, t_label, params), 0.0
    zt, fam = _classify_zetas(path, config, params)
    for i in range(m):
        for j in range(m):
            if abs(zt[i] - zt[j] - et) < 1e-9:
                if not perturb_degenerate:
                    raise PoleError(
                        "degenerate argument pair {xi~, xi~ - eta~}; enable "
                        "perturb_degenerate to extrapolate")
                return _lhp_perturbed(path, eps, t_label, config, params,
                                      resolution)
    val_full = _lhp_contour_sum(path, eps, t_label, zt, fam, params,
                                resolution)
    val_half = _lhp_contour_sum(path, eps, t_label, zt, fam, params,
                                resolution // 2)
    estimate = abs(val_full - val_half)
    if tolerance is not None and not estimate <= tolerance:
        raise AccuracyError(
            f"quadrature estimate {estimate:.2e} above tolerance "
            f"{tolerance:.2e} at resolution {resolution}")
    return val_full, estimate


def _lhp_perturbed(path, eps, t_label, config, params, resolution):
    """Richardson extrapolation over a perturbed degenerate argument pair.

    The member of each offending pair {xi~, xi~ - eta~} sitting in the
    shifted family is moved by a small real delta; the limit delta -> 0 is
    then taken linearly from two offsets.
    """
    zt0, fam = _classify_zetas(path, config, params)
    et = params.eta_tilde
    deltas = (1e-4, 5e-5)
    vals = []
    for d in deltas:
        zt = list(zt0)
        for i in range(len(zt)):
            for j in range(len(zt)):
                if i != j and abs(zt[i] - zt[j] + et) < 1e-9:
                    # zt[i] = zt[j] - eta~: shift the shifted-family member
                    zt[i] = zt[i] + d
        vals.append(_lhp_contour_sum(path, eps, t_label, zt, fam, params,
                                     resolution))
    v1, v2 = vals
    extrap = v2 + (v2 - v1) * deltas[1] / (deltas[0] - deltas[1])
    return extrap, abs(v2 - v1)


def _lhp_contour_sum(path, eps, t_label, zt, fam, params, resolution):
    m = path.m
    alphas = path.alphas
    s1o = path.heights[0]
    ipos, n_minus = slot_positions(alphas)
    mus = np.asarray(zt, dtype=complex)

    # admissible residue targets per integration slot
    choices = []
    for p in range(m):
        opts = [("seg", None)]
        want = "shifted" if p < n_minus else "plain"
        weight = 1.0 if p < n_minus else -1.0
        for kk in range(m):
            if fam[kk] == want:
                opts.append((weight, zt[kk]))
        choices.append(opts)

    nodes = -0.5 + np.arange(resolution) / resolution
    total = 0.0j
    for combo in itertools.product(*choices):
        frozen = [c[0] != "seg" for c in combo]
        weight = 1.0
        for c in combo:
            if c[0] != "seg":
                weight *= c[0]
        free = [p for p in range(m) if not frozen[p]]
        # frozen lambdas landing on the same point vanish via the Cauchy core
        pts = [c[1] for c in combo if c[0] != "seg"]
        if len(pts) != len(set(pts)):
            continue

        def eval_block(node_blocks):
            grids = np.meshgrid(*node_blocks, indexing="ij")
            K = grids[0].size if grids else 1
            lams = np.empty((m, max(K, 1)), dtype=complex)
            for idx, p in enumerate(free):
                lams[p] = grids[idx].reshape(-1)
            for p in range(m):
                if frozen[p]:
                    lams[p] = combo[p][1]
            gt = algebraic_factor_Gtilde(lams, params.height(s1o), alphas,
                                         mus, params)
            sc = cauchy_factor_S(lams, mus, params, frozen)
            Z = lams.sum(axis=0) - mus.sum()
            pb = one_point_barP(s1o, Z, eps, t_label, params, mode="closed")
            return np.sum(gt * sc * pb)

        if len(free) <= 2:
            block = eval_block([nodes] * len(free))
        else:
            # slab the leading axis so the dense grid stays in memory
            slab = max(1, (1 << 21) // resolution ** (len(free) - 1))
            block = 0.0j
            for start in range(0, resolution, slab):
                block += eval_block([nodes[start:start + slab]]
                                    + [nodes] * (len(free) - 1))
        total += weight * block / (resolution ** len(free))
    return total


# ---------------------------------------------------------------------------
# finite-size products against their thermodynamic values
# ---------------------------------------------------------------------------

def ground_products(which, x_set, y_set, t=None):
    """Finite-N product and its thermodynamic value, as a pair.

    which: 'phi_t' (needs t), 'phi_zero' (returns arrays over j), 'id_om'.
    """
    params, config = x_set.params, x_set.config
    tt = params.tau_tilde
    x = np.asarray(x_set.x, dtype=float)
    y = np.asarray(y_set.x, dtype=float)
    dx = float(np.sum(x) - np.sum(y))
    if which == "phi_t":
        kt = 0
        while not 0 < complex(t + kt * tt).imag < complex(tt).imag:
            kt += 1 if complex(t + kt * tt).imag <= 0 else -1
        fin = np.prod(theta(1, x + t, tt) / theta(1, y + t, tt))
        thermo = cmath.exp(1j * math.pi * (2 * kt - 1) * dx)
        return fin, thermo
    if which == "phi_zero":
        N = config.N
        fin = np.empty(len(y), dtype=complex)
        for j in range(len(y)):
            fin[j] = (np.prod(theta(1, y[j] - x, tt))
                      / np.prod(theta(1, y[j] - np.delete(y, j), tt)))
        dens = density(y, config, params).real
        thermo = (-theta(1, 0, tt, order=1) * math.sin(math.pi * dx)
                  / (N * math.pi * dens))
        return fin, thermo
    if which == "id_om":
        fin = cmath.exp(2j * math.pi * (1 - params.eta) * dx)
        thermo = (cmath.exp(1j * math.pi * (x_set.k - y_set.k))
                  * x_set.omega / y_set.omega)
        return fin, thermo
    raise ValueError(f"unknown product id {which!r}")
