"""Bethe-state norms, and the twist weights and gamma draws that the
determinant formulas share.

The squared norm of a Bethe eigenstate has the single-determinant (Gaudin)
form, whose matrix is the Jacobian of the logarithmic Bethe equations.  The
partial scalar product S_n({u}; {v}; s) = <<0| prod_j C_hat(u_j) delta_s
prod_j B_hat(v_j) |0>> is a sum of L determinants with twist factors
q^{nu s}; no production route takes it, so it lives in `csoslab.contract`
with its oracle.
"""

import functools
import warnings

import numpy as np

from .elliptic import AccuracyError, PoleError, _cdiv, _cmul, theta
from .bethe import _log_bethe_jacobian

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


def _memo_rows(u_sets, key, compute):
    """The memo entry `key` of each state, for states of one family (one
    config and params); the missing ones come from one call compute(states)
    on the states that lack it, one value per state, and are kept in the
    memo."""
    vals = [u_set.memo.get(key) for u_set in u_sets]
    todo = [k for k, val in enumerate(vals) if val is None]
    if todo:
        for k, val in zip(todo, compute([u_sets[k] for k in todo])):
            u_sets[k].memo[key] = vals[k] = val
    return vals


def _own_d(u_set):
    """d at the set's own roots: the one-state case of _family_d."""
    return _family_d([u_set])[0]


def _family_d(u_sets):
    """d at each state's own roots, read-only, from one d_fun call on the
    stacked roots of the states that lack it; each row is that of the
    state's own call, bit for bit."""
    def compute(sets):
        out = sets[0].d_fun(np.array([u_set.v for u_set in sets]))
        out.flags.writeable = False
        return out

    return _memo_rows(u_sets, "d", compute)


def gaudin_matrix(u_set):
    """The Gaudin matrix, whose determinant gives the squared norm: (eta~/i)
    times the complex Jacobian of the logarithmic Bethe equations at the
    set's roots (the Gaudin-Korepin theorem; Korepin, Commun. Math. Phys.
    86 (1982) 391).  It depends on the roots only: kept in the memo,
    returned read-only.  The one-state case of _family_gaudin.
    """
    return _family_gaudin([u_set])[0]


def _family_gaudin(u_sets):
    """The Gaudin matrix of each state, read-only, from one
    _log_bethe_jacobian call on the stacked roots of the states that lack
    it.  Each new matrix's condition number is checked here, once per
    state, and kept with it in the memo under "kappa"."""
    def compute(sets):
        first = sets[0]
        out = (first.params.eta_tilde / 1j) * _log_bethe_jacobian(
            np.array([u_set.x for u_set in sets]), first.config, first.params)
        out.flags.writeable = False
        for u_set, mat in zip(sets, out):
            u_set.memo["kappa"] = _check_kappa(mat, "Gaudin matrix")
        return out

    return _memo_rows(u_sets, "gaudin", compute)


def norm_det(u_set):
    """<{u}, omega | {u}, omega> via the single-determinant representation:
    the one-state case of _family_norms."""
    return _family_norms([u_set])[0]


def _family_norms(u_sets):
    """The squared norm of each state, for the states that lack it from
    one _family_d and one _family_gaudin pass and one bracket call for the
    pair products.  A norm that leaves the double range is refused."""
    def compute(sets):
        params, n = sets[0].params, sets[0].n
        u = np.array([u_set.v for u_set in sets])
        du = u[:, :, None] - u[:, None, :]
        bdup, bdu = params.brackets(du + 1, du)
        off = ~np.eye(n, dtype=bool)
        out = []
        for u_set, d, det, bp, bm in zip(sets, _family_d(sets),
                                         np.linalg.det(_family_gaudin(sets)),
                                         bdup, bdu):
            pref = ((-1.0) ** (n * params.r * u_set.aleph)
                    / (-params.bracket_prime0) ** n)
            pref *= np.prod(d)   # a(u_j) = 1
            # the bracket products leave the double range near n = 22 at
            # tau = 0.45i; a value that does is refused, not returned
            with np.errstate(over="ignore", invalid="ignore"):
                val = pref * np.prod(bp) / np.prod(bm[off]) * det
            if not np.isfinite(val):
                raise AccuracyError(
                    f"the norm of {n} roots leaves the double range")
            out.append(val)
        return out

    return _memo_rows(u_sets, "norm", compute)
