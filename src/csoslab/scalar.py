"""Partial scalar products and Bethe-state norms.

The partial scalar product

    S_n({u}; {v}; s) = <<0| prod_j C_hat(u_j) delta_s prod_j B_hat(v_j) |0>>

is evaluated two independent ways: by explicit operator application on the
finite space (the oracle), and by the cyclic-model determinant formula, a
sum of L determinants with twist factors q^{nu s}.  The set {u} must solve
the Bethe equations with twist omega_u; {v} is arbitrary.

The squared norm of a Bethe eigenstate has the single-determinant (Gaudin)
form with the usual diagonal log-derivative of a/d.
"""

import warnings

import numpy as np

from .elliptic import PoleError, theta
from .lattice import StateVector, monodromy_entry_apply
from .bethe import _phi_weight

COND_WARN = 1e12


def default_gamma(params, redraw=0):
    """Reproducible generic gamma; `redraw` nudges it away from a pole."""
    g = 0.2131 + 0.1711 * (complex(params.tau) / params.eta)
    if redraw:
        g += redraw * (0.0173 + 0.0119 * (complex(params.tau) / params.eta))
    return g


def gamma_retry(fun, params, gamma, attempts=4):
    """Run fun(gamma); on a pole with the defaulted gamma, redraw and retry."""
    if gamma is not None:
        return fun(gamma)
    last = None
    for redraw in range(attempts):
        try:
            return fun(default_gamma(params, redraw=redraw))
        except PoleError as exc:
            last = exc
    raise last


def _check_kappa(mat, label):
    kappa = np.linalg.cond(mat)
    if kappa > COND_WARN:
        warnings.warn(f"{label} condition number {kappa:.2e}", RuntimeWarning)
    return kappa


def project_height(state, a):
    """delta_s(s_hat) with s = s0 + a: keep only the height class a."""
    out = StateVector(state.config, state.params)
    out.amps[a % state.params.L] = state.amps[a % state.params.L]
    return out


def partial_scalar_bruteforce(u_set, v_list, a, config, params):
    """S_n({u}; {v}; s0+a) by explicit operator application."""
    st = StateVector.reference(config, params)
    for vj in v_list:
        st = monodromy_entry_apply("B", vj, st)
    st = project_height(st, a)
    for uj in np.atleast_1d(u_set.v if hasattr(u_set, "v") else u_set):
        st = monodromy_entry_apply("C", uj, st)
    return st.bra_contract_reference()


def a_nu_factor(nu, gamma, params):
    """Twist-sector weight built from theta functions at modulus L*tau."""
    tau, L, r, eta = params.tau, params.L, params.r, params.eta
    den = theta(1, r * params.s0, L * tau) * theta(1, eta * gamma + nu * tau, L * tau)
    if abs(den) < 1e-13:
        raise PoleError("a_nu factor hits a pole; redraw gamma")
    return (eta * theta(1, r * params.s0 + eta * gamma + nu * tau, L * tau)
            * theta(1, 0, L * tau, order=1) / den)


def omega_matrix(nu, gamma, u_set, v_list, params):
    """The n x n twisted kernel matrix of the L-term determinant sum."""
    u = np.asarray(u_set.v, dtype=complex)
    v = np.asarray(v_list, dtype=complex)
    q = params.q
    br = params.bracket
    bg = br(gamma)
    if abs(bg) < 1e-13:
        raise PoleError("[gamma] vanishes; redraw gamma")
    du = u[:, None] - v[None, :]
    if np.min(np.abs(br(du))) < 1e-12:
        raise PoleError("u and v parameters collide")
    prod_p = np.prod(br(u[:, None] - v[None, :] + 1), axis=0)   # prod_t [u_t - v_j + 1]
    prod_m = np.prod(br(u[:, None] - v[None, :] - 1), axis=0)
    dv = u_set.d_fun(v)
    sgn = (-1.0) ** (params.r * u_set.aleph)
    term_a = (br(du + gamma) / br(du)
              - q ** (-nu) * br(du + gamma + 1) / br(du + 1))
    term_d = (br(du + gamma) / br(du)
              - q ** nu * br(du + gamma - 1) / br(du - 1))
    mat = (sgn / bg * term_a * prod_p[None, :]
           + 1.0 / bg * term_d * u_set.omega ** (-2) * dv[None, :] * prod_m[None, :])
    return mat


def partial_scalar_det(u_set, v_list, a, gamma=None):
    """S_n({u}; {v}; s0+a) as the L-term sum of determinants.

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
    b0p = br(0.0, order=1)
    den = br(np.sum(u) - np.sum(v) + gamma + s)
    if min(abs(br(gamma)), abs(den)) < 1e-13:
        raise PoleError("prefactor pole; redraw gamma")
    pref = br(gamma) * br(s) / (b0p * den)
    for j in range(1, n + 1):
        pref *= br(s - j) / br(s + j - 1)
    pref *= np.prod(u_set.d_fun(u))
    for j in range(n):
        for k in range(j + 1, n):
            pref /= br(u[j] - u[k]) * br(v[k] - v[j])
    tot = 0.0j
    for nu in range(params.L):
        mat = omega_matrix(nu, gamma, u_set, v, params)
        _check_kappa(mat, "partial-scalar kernel")
        tot += params.qpow(nu * s) * a_nu_factor(nu, gamma, params) * np.linalg.det(mat)
    return pref * tot


def _gaudin_kernel(u_set):
    """Diagonal vector and off-diagonal kernel of the Gaudin matrix.

    off[j, l] = dlog[u_j - u_l - 1] - dlog[u_j - u_l + 1] and diag[j] =
    -dlog(a/d)(u_j) + sum_l off[j, l], with dlog[x] = [x]'/[x].  The
    mean-value kernel of the matrix elements shares the diagonal vector.
    Both depend on the roots only: kept in the memo, returned read-only.
    """
    if "gaudin" in u_set.memo:
        return u_set.memo["gaudin"]
    br = u_set.params.bracket
    u = np.asarray(u_set.v, dtype=complex)

    def dlog(x):
        return br(x, order=1) / br(x)

    uxi = u[:, None] - np.array(u_set.config.xi)
    logprime_ad = np.zeros(len(u), dtype=complex)
    for col in (dlog(uxi) - dlog(uxi + 1)).T:   # site by site, as summed
        logprime_ad -= col
    du = u[:, None] - u[None, :]
    off = dlog(du - 1) - dlog(du + 1)
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
    br = params.bracket
    pref = (-1.0) ** (n * params.r * u_set.aleph) / (-br(0.0, order=1)) ** n
    pref *= np.prod(u_set.a_fun(u) * u_set.d_fun(u))
    du = u[:, None] - u[None, :]
    pref *= np.prod(br(du + 1))
    offdiag = br(du)[~np.eye(n, dtype=bool)]
    pref /= np.prod(offdiag)
    mat = gaudin_matrix(u_set)
    _check_kappa(mat, "Gaudin matrix")
    return pref * np.linalg.det(mat)


def scalar_product_bruteforce(u_set, v_set):
    """<{u}, omega_u | {v}, omega_v> summed over the height circle."""
    params, config = u_set.params, u_set.config
    tot = 0.0j
    for a in range(params.L):
        s = params.height(a)
        sn = partial_scalar_bruteforce(u_set, v_set.v, a, config, params)
        tot += _phi_weight(u_set, s, dual=True) * _phi_weight(v_set, s) * sn
    return tot


def delta_form_factor(u_set, v_set, a, gamma=None, route="det"):
    """<{u}| delta_{s0+a}(s_hat) |{v}> = phi~_u(s) phi_v(s) S_n({u};{v};s)."""
    params = u_set.params
    s = params.height(a)
    if route == "det":
        sn = partial_scalar_det(u_set, v_set.v, a, gamma=gamma)
    else:
        sn = partial_scalar_bruteforce(u_set, v_set.v, a, u_set.config, params)
    return _phi_weight(u_set, s, dual=True) * _phi_weight(v_set, s) * sn
