"""Readers of the Bethe-state norms, and the twist weights and gamma draws
that the determinant formulas share.

The squared norm of a Bethe eigenstate has the single-determinant (Gaudin)
form, whose matrix is the Jacobian of the logarithmic Bethe equations;
bethe._measure takes both, and d at the roots, with the roots.  The
partial scalar product S_n({u}; {v}; s) = <<0| prod_j C_hat(u_j) delta_s
prod_j B_hat(v_j) |0>> is a sum of L determinants with twist factors
q^{nu s}; no production route takes it, so it lives in `csoslab.contract`
with its oracle.
"""

import functools

import numpy as np

from .elliptic import AccuracyError, PoleError, _cdiv, _cmul, theta
from .bethe import _measure


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


def _own_d(u_set):
    """d at the set's own roots, read-only: one of its measures
    (bethe._measure)."""
    return _measure([u_set])[0]["d"]


def gaudin_matrix(u_set):
    """The Gaudin matrix, whose determinant gives the squared norm: one of
    the set's measures (bethe._measure), read-only."""
    return _measure([u_set])[0]["gaudin"]


def norm_det(u_set):
    """<{u}, omega | {u}, omega> via the single-determinant representation,
    one of the set's measures (bethe._measure).  A norm that leaves the
    double range is refused, not returned."""
    val = _measure([u_set])[0]["norm"]
    if not np.isfinite(val):
        raise AccuracyError(
            f"the norm of {u_set.n} roots leaves the double range")
    return val
