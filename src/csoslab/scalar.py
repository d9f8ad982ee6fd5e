"""Partial scalar products and Bethe-state norms.

The partial scalar product

    S_n({u}; {v}; s) = <<0| prod_j C_hat(u_j) delta_s prod_j B_hat(v_j) |0>>

is evaluated two independent ways: by explicit operator application on the
finite space (the oracle; delta_s is the site-1 height projection
`local_operator_apply("delta", ..., i=1)`), and by the cyclic-model
determinant formula, a sum of L determinants with twist factors q^{nu s}.
The set {u} must solve the Bethe equations with twist omega_u; {v} is
arbitrary.

The squared norm of a Bethe eigenstate has the single-determinant (Gaudin)
form with the usual diagonal log-derivative of a/d.
"""

import functools
import warnings

import numpy as np

from .elliptic import PoleError, _cdiv, _cmul, stacked, theta
from .lattice import StateVector, local_operator_apply, monodromy_entry_apply
from .bethe import _phi_weights

COND_WARN = 1e12


def default_gamma(params, redraw=0):
    """Reproducible generic gamma; `redraw` nudges it away from a pole."""
    g = 0.2131 + 0.1711 * (complex(params.tau) / params.eta)
    if redraw:
        g += redraw * (0.0173 + 0.0119 * (complex(params.tau) / params.eta))
    return g


def gamma_retry(fun, params, gamma):
    """Run fun(gamma); on a pole with the defaulted gamma, redraw and retry,
    four draws in all."""
    if gamma is not None:
        return fun(gamma)
    last = None
    for redraw in range(4):
        try:
            return fun(default_gamma(params, redraw=redraw))
        except PoleError as exc:
            last = exc
    raise last


def _check_kappa(mat, label):
    kappa = np.max(np.linalg.cond(mat))
    if kappa > COND_WARN:
        warnings.warn(f"{label} condition number {kappa:.2e}", RuntimeWarning)
    return kappa


def partial_scalar_bruteforce(u_set, v_list, a):
    """S_n({u}; {v}; s0+a) by explicit operator application."""
    st = StateVector.reference(u_set.config, u_set.params)
    for vj in v_list:
        st = monodromy_entry_apply("B", vj, st)
    st = local_operator_apply("delta", st, i=1, a=a)
    for uj in u_set.v:
        st = monodromy_entry_apply("C", uj, st)
    return st.bra_contract_reference()


@functools.lru_cache(maxsize=256)
def twist_weights(s, gamma, params):
    """The L twist-sector weights q^{nu s} a_nu(gamma), a_nu built from
    theta functions at modulus L*tau; each rounds as one sector's scalars.

    Computed once per (s, gamma, params); the array is read-only."""
    tau, L, r, eta = params.tau, params.L, params.r, params.eta
    nu = np.arange(L)
    den = _cmul(theta(1, eta * gamma + nu * tau, L * tau),
                theta(1, r * params.s0, L * tau))
    if np.min(np.abs(den)) < 1e-13:
        raise PoleError("a_nu factor hits a pole; redraw gamma")
    num = _cmul(eta * theta(1, r * params.s0 + eta * gamma + nu * tau,
                            L * tau), theta(1, 0, L * tau, order=1))
    out = _cmul(params.qpow(nu * s), _cdiv(num, den))
    out.flags.writeable = False
    return out


def _sector_q_powers(params):
    """q^{-nu} and q^{nu}, nu = 0..L-1, as (L, 1) columns."""
    qp = params.q ** np.arange(params.L)[:, None]
    return _cdiv(1.0, qp), qp


def _q_beta(gamma, u, v, zetas, bet, params):
    """Untransformed appendix-B kernel, a column per argument in zetas.  Each
    coefficient in bet holds one value per column on its last axis; a leading
    axis stacks the twist sectors.  At zetas = v it is the H_alpha block."""
    br = params.bracket
    b1, b2, b3, b4 = (np.expand_dims(b, -2) for b in bet)
    uz = u[:, None] - zetas[None, :]
    vz = v[:, None] - zetas[None, :]
    buzp, buzm = br(uz + 1), br(uz - 1)
    pp = np.prod(buzp, axis=0) / np.prod(br(vz + 1), axis=0)
    pm = np.prod(buzm, axis=0) / np.prod(br(vz - 1), axis=0)
    ratio = br(uz + gamma) / br(uz)
    return ((b1 * ratio - b2 * br(uz + gamma + 1) / buzp) * pp
            - (b3 * ratio - b4 * br(uz + gamma - 1) / buzm) * pm) / br(gamma)


def partial_scalar_det(u_set, v_list, a, gamma=None):
    """S_n({u}; {v}; s0+a) as the L-term sum of determinants.

    The L sector kernels are one (L, n, n) stack of _q_beta at zetas = v.
    With gamma unset, the reproducible default is redrawn automatically if
    it happens to sit on a pole of the prefactors.
    """
    params = u_set.params
    if gamma is None:
        return gamma_retry(
            lambda g: partial_scalar_det(u_set, v_list, a, gamma=g),
            params, None)
    u = np.asarray(u_set.v, dtype=complex)
    v = np.asarray(v_list, dtype=complex)
    n = len(u)
    if len(v) != n:
        raise ValueError("u and v sets must have equal length")
    s = params.height(a)
    br = params.bracket
    b0p = params.bracket_prime0
    bg = br(gamma)
    den = br(np.sum(u) - np.sum(v) + gamma + s)
    if min(abs(bg), abs(den)) < 1e-13:
        raise PoleError("prefactor pole; redraw gamma")
    if np.min(np.abs(br(u[:, None] - v[None, :]))) < 1e-12:
        raise PoleError("u and v parameters collide")
    pref = bg * br(s) / (b0p * den)
    j = np.arange(1, n + 1)
    pref *= np.prod(br(s - j) / br(s + j - 1)) * np.prod(_own_d(u_set))
    j, k = np.triu_indices(n, 1)
    pref /= np.prod(br(u[j] - u[k]) * br(v[k] - v[j]))
    # kernel coefficients (sgn Dp, sgn q^-nu Dp, -w^-2 d(v) Dm,
    # -w^-2 d(v) q^nu Dm), Dp_j = prod_t [v_t - v_j + 1], Dm likewise with -1
    vv = v[:, None] - v[None, :]
    dp = (-1.0) ** (params.r * u_set.aleph) * np.prod(br(vv + 1), axis=0)
    dm = -u_set.omega ** (-2) * u_set.d_fun(v) * np.prod(br(vv - 1), axis=0)
    qm, qp = _sector_q_powers(params)
    mats = _q_beta(gamma, u, v, v, (dp, qm * dp, dm, qp * dm), params)
    _check_kappa(mats, "partial-scalar kernel")
    return pref * np.sum(twist_weights(s, gamma, params) * np.linalg.det(mats))


def _own_d(u_set):
    """d at the set's own roots, kept in the memo and returned read-only."""
    out = u_set.memo.get("d")
    if out is None:
        out = u_set.d_fun(u_set.v)
        out.flags.writeable = False
        u_set.memo["d"] = out
    return out


def _gaudin_kernel(u_set):
    """Diagonal vector and off-diagonal kernel of the Gaudin matrix.

    off[j, l] = dlog[u_j - u_l - 1] - dlog[u_j - u_l + 1] and diag[j] =
    -dlog(a/d)(u_j) + sum_l off[j, l], with dlog[x] = [x]'/[x].  The
    mean-value kernel of the matrix elements shares the diagonal vector.
    Both depend on the roots only: kept in the memo, returned read-only.
    """
    if "gaudin" in u_set.memo:
        return u_set.memo["gaudin"]
    u = np.asarray(u_set.v, dtype=complex)
    uxi = u[:, None] - np.array(u_set.config.xi)
    du = u[:, None] - u[None, :]
    # dlog[x] = [x]'/[x]: [x] and [x]' of all four tables from one series sum
    vals, primes = stacked(u_set.params._bracket_rows,
                           uxi, uxi + 1, du - 1, du + 1)
    dlog = [d / f for d, f in zip(primes, vals)]
    logprime_ad = np.zeros(len(u), dtype=complex)
    for col in (dlog[0] - dlog[1]).T:   # site by site, as summed
        logprime_ad -= col
    off = dlog[2] - dlog[3]
    out = (logprime_ad + np.sum(off, axis=1), off)
    for arr in out:
        arr.flags.writeable = False
    u_set.memo["gaudin"] = out
    return out


def gaudin_matrix(u_set):
    """Jacobian-style matrix whose determinant gives the squared norm."""
    diag, off = _gaudin_kernel(u_set)
    return np.diag(diag) - off


def norm_det(u_set):
    """<{u}, omega | {u}, omega> via the single-determinant representation."""
    params = u_set.params
    u = np.asarray(u_set.v, dtype=complex)
    n = len(u)
    pref = ((-1.0) ** (n * params.r * u_set.aleph)
            / (-params.bracket_prime0) ** n)
    pref *= np.prod(_own_d(u_set))   # a(u_j) = 1
    du = u[:, None] - u[None, :]
    bdup, bdu = params.brackets(du + 1, du)
    pref *= np.prod(bdup)
    offdiag = bdu[~np.eye(n, dtype=bool)]
    pref /= np.prod(offdiag)
    mat = gaudin_matrix(u_set)
    _check_kappa(mat, "Gaudin matrix")
    return pref * np.linalg.det(mat)


def scalar_product_bruteforce(u_set, v_set):
    """<{u}, omega_u | {v}, omega_v> summed over the height circle."""
    tot = 0.0j
    for a, (wu, wv) in enumerate(zip(_phi_weights(u_set, dual=True),
                                     _phi_weights(v_set))):
        sn = partial_scalar_bruteforce(u_set, v_set.v, a)
        tot += wu * wv * sn
    return tot


def delta_form_factor(u_set, v_set, a, route="det"):
    """<{u}| delta_{s0+a}(s_hat) |{v}> = phi~_u(s) phi_v(s) S_n({u};{v};s)."""
    if route == "det":
        sn = partial_scalar_det(u_set, v_set.v, a)
    else:
        sn = partial_scalar_bruteforce(u_set, v_set.v, a)
    a %= u_set.params.L     # phi and its dual are L-periodic in s
    return _phi_weights(u_set, dual=True)[a] * _phi_weights(v_set)[a] * sn
