"""Bethe equations, ground-state root solver, and Bethe eigenvectors.

The n = N/2 ground states are labelled by quantum numbers k in {0, 1} and
ell in {0, ..., L-r-1}, with twist omega = e^{i pi (r n + 2 ell)/L} and
counting integers n_j = j + k.  Roots are solved in the rescaled variables
x_j = eta_tilde * v_j, which are real on the admissible inhomogeneity line,
from the logarithmic equations

  N p0_tot(x_j) - sum_l theta(x_j - x_l)
      = 2 pi (n_j - (n+1)/2 + (r n + 2 ell)/L + 2 eta sum_l x_l + eta xibar).

Bare momentum and phase use theta functions of modulus tau_tilde = -1/tau;
both are taken odd and continuous on the real axis (value 0 at 0, slope
2 pi per unit period).

The 2(L-r) labels of one lattice and model form a family.  Its labels
that the root cache does not hold are seeded together (quantiles of the
root density on the winding line, from one inverse FFT) and solved
together: one damped-Newton loop runs on the stack of their root rows,
and each row keeps its own line search and stop rule, so it comes out as
it would from a solve of its own.  solve_ground_state is the one-label
case.  Every trial point of the loop takes one theta-series pass for all
rows tried (_bethe_system): theta1 and theta1' at eta~/2 +- d and eta~ +
d, d the roots or their differences reduced modulo the period, give the
log residual and its Jacobian together.

What depends on a root set alone (its label's log residual and the
multiplicative one, which _accept reads, d, the Gaudin matrix and the
norm) is measured once per family by _measure, the one memo writer.
"""

import cmath
import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from .elliptic import ModelParams, SolverError, _cmul, _theta_rows, stacked
from .lattice import LatticeConfig, StateVector, _entries_apply, \
    monodromy_product_apply, transfer_apply

CACHE_ENV = "CSOSLAB_CACHE_DIR"
COND_WARN = 1e12
# the entries _measure keeps in a root set's memo
MEASURES = {"log_residual", "residual", "d", "gaudin", "kappa", "det", "norm"}


def _log_ratio_odd(terms, tau_t, antisymmetric=()):
    """i*log(theta1(shift+z)/theta1(shift-z)) and its z-derivative, a
    (value, derivative) pair for each (z, shift) in terms, from one series
    sum of theta1 and theta1' at shift +- d, d = z - round(Re z).

    The log is continuous and odd in z (real z): principal value on the
    fundamental interval plus 2 pi per full period.  theta1'/theta1 has
    period 1, so the derivative at d is that at z, real or complex.  A term
    whose index is in `antisymmetric` has z antisymmetric in its last two
    axes, so theta1 and theta1' at shift - d are the transposes of those at
    shift + d bit for bit, and only the latter are evaluated.
    """
    zs = [np.asarray(z) for z, _ in terms]
    winds = [np.round(np.real(z)) for z in zs]
    # round(-z) = -round(z), so the reduced z stays antisymmetric
    reduced = [(z - wind, shift) for z, wind, (_, shift) in zip(zs, winds,
                                                                terms)]
    f, df = stacked(lambda a: _theta_rows(1, a, tau_t, 1),
                    *(shift + d for d, shift in reduced),
                    *(shift - d for i, (d, shift) in enumerate(reduced)
                      if i not in antisymmetric))
    minus = iter(zip(f[len(terms):], df[len(terms):]))
    out = []
    for i, (plus, dplus, wind) in enumerate(zip(f, df, winds)):
        fm, dfm = ((np.swapaxes(plus, -1, -2), np.swapaxes(dplus, -1, -2))
                   if i in antisymmetric else next(minus))
        out.append((np.real(1j * np.log(plus / fm)) + 2.0 * math.pi * wind,
                    1j * (dplus / plus + dfm / fm)))
    return out


def momentum_shifts(config, params):
    """Real shifts c_k with p0_tot(z) = (1/N) sum p0(z - c_k)."""
    et = params.eta_tilde
    return np.array([(et * x - et / 2.0).real for x in config.xi])


def _p0_term(z, config, params):
    """The (z, shift) term of p0_tot for _log_ratio_odd, a column per
    distinct momentum shift (sites with equal xi share one, so a
    homogeneous lattice evaluates one), and each site's column."""
    shifts, site = np.unique(momentum_shifts(config, params),
                             return_inverse=True)
    z = np.asarray(z, dtype=float)
    return (z[..., None] - shifts, params.eta_tilde / 2.0), site


def _site_mean(vals, site):
    """The mean over sites of p0 values held a column per distinct shift,
    taken over a C-ordered copy with one column per site, so that it sums
    as the mean of a column per site does."""
    return np.ascontiguousarray(vals[..., site]).mean(axis=-1)


def p0_tot(z, config, params, order=0):
    """p0_tot(z), or its derivative (order 1): a reader of one
    _log_ratio_odd pass."""
    term, site = _p0_term(z, config, params)
    rows, = _log_ratio_odd([term], params.tau_tilde)
    return _site_mean(rows[order], site)


def xibar(config, params):
    """sum_l (eta~/2 - xi~_l); real on the admissible inhomogeneity line."""
    et = params.eta_tilde
    return complex(sum(et / 2.0 - et * x for x in config.xi)).real


@dataclass
class BetheRootSet:
    """A solved set of Bethe roots for one ground-state label (k, ell)."""

    x: np.ndarray                 # real rescaled roots, sorted increasingly
    k: int
    ell: int
    params: ModelParams
    config: LatticeConfig
    residual: float = 0.0
    newton_iters: int = 0
    # what depends on the roots alone, kept by _measure (MEASURES)
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def n(self):
        return len(self.x)

    @property
    def aleph(self):
        return (self.config.N - 2 * self.n) // self.params.L

    @property
    def v(self):
        """Original spectral parameters v_j = x_j / eta_tilde."""
        return np.asarray(self.x, dtype=complex) / self.params.eta_tilde

    @property
    def log_omega(self):
        return 1j * math.pi * (self.params.r * self.n + 2 * self.ell) / self.params.L

    @property
    def omega(self):
        return cmath.exp(self.log_omega)

    def omega_pow(self, z):
        """omega^z on the fixed branch log(omega) = i pi (r n + 2 ell)/L."""
        return np.exp(np.asarray(z) * self.log_omega) if np.ndim(z) \
            else cmath.exp(z * self.log_omega)

    def _d_args(self, u):
        """The bracket arguments (u - xi_k, u - xi_k + 1) of d_fun, a column
        per site."""
        uk = np.asarray(u)[..., None] - np.array(self.config.xi)
        return uk, uk + 1

    def d_fun(self, u):
        """prod_k [u - xi_k]/[u - xi_k + 1], one bracket array per factor."""
        num, den = self.params.brackets(*self._d_args(u))
        out = np.prod(num / den, axis=-1)
        return out if np.ndim(u) else complex(out)

    def sum_x(self):
        return float(np.sum(self.x))


def _bethe_system(x, k, ell, config, params):
    """LHS - RHS of the logarithmic Bethe equations at real roots x, and
    their complex Jacobian, from one _log_ratio_odd pass: p0_tot and the
    phase matrix theta(x_j - x_l) with their derivatives.

    Leading axes of x stack root sets (one row of n roots per label, one
    matrix each), with k and ell one per row; each row's values are those
    of its own call.  Newton takes the Jacobian's real part, and (eta~/i)
    times it is the Gaudin matrix.  The real and imaginary parts of the
    phase derivative rows are summed apart, so the real part has the bits
    of a sum over the real entries.
    """
    x = np.asarray(x, dtype=float)
    k, ell = np.asarray(k)[..., None], np.asarray(ell)[..., None]
    n = x.shape[-1]
    term, site = _p0_term(x, config, params)
    (p0, dp0), (phase, dphase) = _log_ratio_odd(
        [term, (x[..., :, None] - x[..., None, :], params.eta_tilde)],
        params.tau_tilde, (1,))
    nj = np.arange(1, n + 1) + k
    lhs = config.N * _site_mean(p0, site) - np.sum(phase, axis=-1)
    rhs = 2.0 * math.pi * (nj - (n + 1) / 2.0
                           + (params.r * n + 2.0 * ell) / params.L
                           + 2.0 * params.eta * np.sum(x, axis=-1,
                                                       keepdims=True)
                           + params.eta * xibar(config, params))
    rows = np.sum(dphase.real, axis=-1) + 1j * np.sum(dphase.imag, axis=-1)
    diag = np.zeros_like(dphase)
    idx = np.arange(n)
    diag[..., idx, idx] = config.N * _site_mean(dp0, site) - rows
    return lhs - rhs, diag + dphase - 4.0 * math.pi * params.eta


def log_bethe_residual(x, k, ell, config, params):
    """LHS - RHS of the logarithmic Bethe equations at real roots x, the
    residual half of _bethe_system (leading axes of x stack root sets)."""
    return _bethe_system(x, k, ell, config, params)[0]


def _coinciding(x):
    """Whether two roots of x coincide modulo the real period."""
    n = len(x)
    if n < 2:
        return False
    xd = x[:, None] - x[None, :] + 0.37 * np.eye(n)
    return np.min(np.abs(xd - np.round(xd))) < 1e-10


def bethe_residual(roots):
    """Multiplicative Bethe-equation defect, one complex number per root,
    divided by max(1, |LHS|, |RHS|), which keeps the solver acceptance
    meaningful at larger N where the bracket products grow exponentially.
    One of the set's measures (_measure), read-only."""
    res = _measure([roots])[0]["residual"]
    if res is None:
        raise SolverError("coinciding Bethe roots")
    return res


def _check_kappa(mat, label):
    kappa = np.max(np.linalg.cond(mat))
    if kappa > COND_WARN:
        warnings.warn(f"{label} condition number {kappa:.2e}", RuntimeWarning)
    return kappa


def _measure(family):
    """What depends on the roots alone, a dict per root set of one family
    (one config and params): the max |log residual| of its own (k, ell),
    bethe_residual's defect (None where roots coincide), d at the roots,
    the Gaudin matrix, (eta~/i) times the complex Jacobian of the
    logarithmic Bethe equations (the Gaudin-Korepin theorem; Korepin,
    Commun. Math. Phys. 86 (1982) 391), with its condition number and
    determinant, and the squared norm, not finite where the bracket
    products leave the double range (near n = 22 at tau = 0.45i).

    A set whose memo holds them is read from it.  The others are measured
    together from one bracket call ([v_i - v_j + 1] and [v_i - v_j] on the
    n x n grid, d's [v - xi_k] and [v - xi_k + 1]) and one _bethe_system
    pass, each value read-only and that of the set measured alone, bit for
    bit, and kept in its memo, which no other function writes.
    """
    out = [roots.memo for roots in family]
    todo = [pos for pos, got in enumerate(out) if not MEASURES <= got.keys()]
    if not todo:
        return out
    first = family[todo[0]]
    params, n = first.params, first.n
    v = np.array([family[pos].v for pos in todo])
    dv = v[:, :, None] - v[:, None, :]
    plus, minus, num, den = params.brackets(dv + 1, dv, *first._d_args(v))
    d = np.prod(num / den, axis=-1)
    logres, jac = _bethe_system(
        np.array([family[pos].x for pos in todo]),
        [family[pos].k for pos in todo], [family[pos].ell for pos in todo],
        first.config, params)
    gaudin = (params.eta_tilde / 1j) * jac
    d.flags.writeable = gaudin.flags.writeable = False
    off = ~np.eye(n, dtype=bool)
    for pos, bp, bm, d_row, mat, det, lres in zip(
            todo, plus, minus, d, gaudin, np.linalg.det(gaudin), logres):
        roots, res = family[pos], None
        if not _coinciding(roots.x):
            # [v_j - v_i + 1] and [v_j - v_i] are the transposes, bit for
            # bit; each product runs over one set's (n, n - 1) array
            pair = [br[off].reshape(n, n - 1) for br in (bp.T, bm.T, bp, bm)]
            lhs = np.prod(pair[0] / pair[1], axis=1)   # a(v_j) = 1
            rhs = ((-1.0) ** (params.r * roots.aleph) * roots.omega ** (-2)
                   * d_row * np.prod(pair[2] / pair[3], axis=1))
            res = (lhs - rhs) / np.maximum(
                1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            res.flags.writeable = False
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            norm = ((-1.0) ** (n * params.r * roots.aleph)   # a(u_j) = 1
                    / (-params.bracket_prime0) ** n * np.prod(d_row)
                    * np.prod(bp) / np.prod(bm[off]) * det)
        out[pos] = {"log_residual": float(np.max(np.abs(lres))),
                    "residual": res, "d": d_row, "gaudin": mat,
                    "kappa": _check_kappa(mat, "Gaudin matrix"), "det": det,
                    "norm": norm}
        for key, val in out[pos].items():
            roots.memo[key] = val
    return out


def density_fourier(m, config, params):
    """Fourier coefficient(s) of rho_tot at the integer mode(s) m.

    Where cosh(i pi m eta~) overflows, at small Im(tau) and high modes,
    the mode's factor 1/(2 cosh) lies below the double range and is 0."""
    sh = momentum_shifts(config, params)
    m = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):
        base = 1.0 / (2.0 * np.cosh(1j * math.pi * m * params.eta_tilde))
    base = np.where(np.isfinite(base), base, 0.0)
    return base * np.mean(np.exp(-2j * math.pi * m[..., None] * sh), axis=-1)


def _cumulative_grid(config, params):
    """The integral F of rho_tot from -1/2 to x_g = -1/2 + g/512, at
    g = 0, ..., 512, from one inverse FFT of its first 80 Fourier modes
    rho_m:

      F(x_g) = g/1024 + 2 Re sum_m a_m (e^{2 pi i m g/512} - 1),
      a_m = (-1)^m rho_m / (2 pi i m).
    """
    m = np.arange(1, 81)
    a = (-1.0) ** m * density_fourier(m, config, params) / (2j * math.pi * m)
    waves = 512 * np.fft.irfft(np.concatenate([[0.0], a]), 512)
    return np.arange(513) / 1024 + np.append(waves, waves[0]) - waves[0]


def _initial_guess(n, labels, config, params):
    """Quantiles of the root density seed the Newton iteration, one row of
    n roots per label (k, ell).

    A target t splits as t0 + w/2 with w = floor(2 t): the density has
    mean 1/2, so its integral F from -1/2 obeys F(x + 1) = F(x) + 1/2, and
    the seed is F^-1(t0) + w, on the winding line.  F^-1 interpolates
    _cumulative_grid linearly; the quantiles are only a Newton start, and
    their interpolation error lies far below the seed's own finite-size
    error.  From Im tau = 2 on, the 80-mode sum ripples by up to about
    1e-8 where the density all but vanishes, so a target there reads some
    point of that nearly empty stretch.  Each row is computed as it would
    be alone.
    """
    N = config.N
    targets = np.array([(np.arange(1, n + 1) + k - (n + 1) / 2.0
                         + (params.r * n + 2.0 * ell) / params.L) / N + 0.25
                        for k, ell in labels])
    wind = np.floor(2.0 * targets)
    return np.interp(targets - wind / 2.0, _cumulative_grid(config, params),
                     np.arange(513) / 512 - 0.5) + wind


def _newton(x, labels, config, params):
    """Damped Newton on the logarithmic Bethe equations for a stack of
    labels at once, from x, one row of roots per label.  Returns the last
    iterates and per row the step count, the log residual and the
    SolverError of a singular Jacobian (else None).

    Each trial point, the start included, takes one _bethe_system pass for
    all rows tried at once, which gives its residual and its Jacobian; an
    accepted trial carries its Jacobian into the row's next step, so a
    step makes one batched linear solve and no other theta pass.  Each row
    keeps its own step scale and stop rule, as if solved alone: it stops
    at log residual 1e-13, after 200 steps, or at the round-off floor,
    where no halving of its step lowers the residual; then it leaves the
    stack.
    """
    x = np.array(x, dtype=float)
    k, ell = np.array(labels).T
    res, jac = _bethe_system(x, k, ell, config, params)
    jac = jac.real
    rnorm = np.max(np.abs(res), axis=-1)
    iters = np.zeros(len(labels), dtype=int)
    errors = [None] * len(labels)
    live = np.flatnonzero(rnorm > 1e-13)
    while live.size:
        try:
            step = np.linalg.solve(jac[live], res[live][..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.zeros(x[live].shape)
            for pos, row in enumerate(live):
                try:
                    step[pos] = np.linalg.solve(jac[row], res[row])
                except np.linalg.LinAlgError:
                    errors[row] = SolverError(
                        f"singular Jacobian at iteration {iters[row]}",
                        best=x[row].copy(), residual=float(rnorm[row]))
        ok = np.array([errors[row] is None for row in live])
        searching = ok.copy()
        scale = np.ones(live.size)
        for _ in range(20):
            if not searching.any():
                break
            pos = np.flatnonzero(searching)
            rows = live[pos]
            trial = x[rows] - scale[pos, None] * step[pos]
            tres, tjac = _bethe_system(trial, k[rows], ell[rows], config,
                                       params)
            tnorm = np.max(np.abs(tres), axis=-1)
            better = tnorm < rnorm[rows]
            done = rows[better]
            x[done], res[done], rnorm[done], jac[done] = \
                trial[better], tres[better], tnorm[better], tjac.real[better]
            iters[done] += 1
            searching[pos[better]] = False
            scale[pos[~better]] *= 0.5
        # a row still searching is at the round-off floor
        live = live[ok & ~searching & (rnorm[live] > 1e-13)
                    & (iters[live] < 200)]
    return x, iters, rnorm, errors


def _accept(family):
    """The one gate of every root set, cached or solved: per set of one
    family (measured in one _measure pass) the SolverError that refuses it,
    else None.  It refuses a log residual of the set's own label above
    1e-10, coinciding roots, and a multiplicative residual above 1e-10 (kept
    in roots.residual), which alone cannot tell k = 0 from k = 1."""
    errors = []
    for roots, got in zip(family, _measure(family)):
        if not got["log_residual"] <= 1e-10:
            errors.append(SolverError(
                f"no convergence after {roots.newton_iters} iterations",
                best=roots.x, residual=got["log_residual"]))
        elif got["residual"] is None:
            errors.append(SolverError("coinciding Bethe roots"))
        else:
            roots.residual = float(np.max(np.abs(got["residual"])))
            errors.append(None if roots.residual <= 1e-10 else SolverError(
                f"multiplicative residual {roots.residual:.2e} above 1e-10",
                best=roots.x, residual=roots.residual))
    return errors


def _solve_family(labels, config, params, cache_dir):
    """The root sets of labels of one family (one config and params), keyed
    by label.  The labels the cache does not serve (see _accept) are seeded
    together and solved in one Newton loop; the first refused label, in
    the order given, raises its SolverError, _newton's or _accept's, after
    the labels before it are cached."""
    cached = [_cache_load(*label, config, params, cache_dir) for label in labels]
    cached = [roots for roots in cached if roots is not None]
    out = {(roots.k, roots.ell): roots
           for roots, err in zip(cached, _accept(cached)) if err is None}
    todo = [label for label in labels if label not in out]
    if todo:
        x = _initial_guess(config.N // 2, todo, config, params)
        x, iters, _, errors = _newton(x, todo, config, params)
        found = [BetheRootSet(x=np.sort(row), k=k, ell=ell, params=params,
                              config=config, newton_iters=int(it))
                 for row, (k, ell), it in zip(x, todo, iters)]
        for label, roots, singular, refused in zip(todo, found, errors,
                                                   _accept(found)):
            if singular or refused:
                raise singular or refused
            _cache_store(roots, cache_dir)
            out[label] = roots
    return {label: out[label] for label in labels}


def solve_ground_state(k, ell, config, params, cache_dir=None):
    """Damped-Newton solution of the logarithmic Bethe equations for one
    label, the one-label case of the family solve of all_ground_states.

    Iterates until the log residual is at most 1e-13, for at most 200
    steps.  Returns a BetheRootSet that _accept accepts (log and
    multiplicative residuals at most 1e-10), from the root cache when it
    holds one; raises SolverError (carrying the best iterate) on failure.
    """
    config.validate(params)
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if not 0 <= ell < params.L - params.r:
        raise ValueError(f"ell must lie in 0..{params.L - params.r - 1}")
    return _solve_family([(k, ell)], config, params, cache_dir)[(k, ell)]


def all_ground_states(config, params, cache_dir=None):
    """The 2(L-r) ground-state root sets, keyed by (k, ell).

    The labels the root cache does not serve are seeded together and
    solved as one stack in one damped-Newton loop (see _newton), each
    with the roots, step count and residuals of its own solve_ground_state
    call, bit for bit; a fully cached column runs neither.  A failure
    raises the SolverError of the first failing label in label order.
    """
    config.validate(params)
    labels = [(k, ell) for k in (0, 1) for ell in range(params.L - params.r)]
    return _solve_family(labels, config, params, cache_dir)


# ---------------------------------------------------------------------------
# Bethe vectors and eigenvalues
# ---------------------------------------------------------------------------

def _phi_weights(roots, dual=False):
    """phi_omega(s) = omega^s/sqrt(L) prod_{j=1..n} [1]/[s - j] (dual:
    omega^-s/sqrt(L) prod_{j=0..n-1} [s + j]/[1]) at the L heights
    s = s0 + a, a list over a, from one bracket call."""
    params = roots.params
    heights = [params.height(a) for a in range(params.L)]
    col = np.array(heights)[:, None]
    b1, table = params.brackets(1, col + np.arange(roots.n) if dual
                                else col - np.arange(1, roots.n + 1))
    out = []
    for s, row in zip(heights, table.tolist()):   # factor by factor
        val = roots.omega_pow(-s if dual else s) / math.sqrt(params.L)
        for br in row:
            val *= br / b1 if dual else b1 / br
        out.append(val)
    return out


def bethe_vector(roots, side="right"):
    """|{v}, omega> = phi_omega prod_j B_hat(v_j) |0>> (or the dual covector
    through the transposed C), from two bracket calls for any n: one for
    the face weights of all n applications, one for phi.

    The left vector is returned as a StateVector holding covector
    components r with r . psi = <{v}, omega | psi>.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    ref = StateVector.reference(roots.config, roots.params)
    if side == "right":
        st = monodromy_product_apply("B", roots.v, ref)
    else:
        st = monodromy_product_apply("C", roots.v[::-1], ref, dual=True)
    return st.scale_heights(_phi_weights(roots, dual=side == "left"))


def lambda_pm(zeta, roots):
    """(Lambda_+, Lambda_-)(z; {v}, omega), the eigenvalue halves built on
    one sector each: the one-state case of _lambda_pm_rows."""
    out = tuple(half[0] for half in _lambda_pm_rows(zeta, [roots]))
    return out if np.ndim(zeta) else tuple(complex(val) for val in out)


def _lambda_pm_rows(zeta, family):
    """lambda_pm(zeta, roots) for each root set of one family (one config
    and params), stacked on a leading axis, from one bracket call: the site
    factors [z - xi_k + 1] and [z - xi_k] once, the root factors
    [v_j - z +- 1] once per set.  Each row is that of its own call, bit for
    bit."""
    z = np.asarray(zeta)[..., None]
    xi = np.array(family[0].config.xi)
    lead = (len(family),) + (1,) * np.ndim(zeta)
    v = np.array([roots.v for roots in family]).reshape(lead + (-1,))
    brs = family[0].params.brackets(z - xi + 1, v - z + 1, z - xi, v - z - 1)
    out = []
    for eps, site, root in zip((1, -1), brs[::2], brs[1::2]):
        site = np.broadcast_to(site, root.shape[:-1] + site.shape[-1:])
        twist = np.array([eps * roots.omega ** (eps - 1) for roots in family])
        # the twist factor multiplies through _cmul, so that an array of
        # arguments rounds as each argument alone
        out.append(_cmul(np.prod(np.concatenate([site, root], axis=-1),
                                 axis=-1), twist.reshape(lead)))
    return tuple(out)


def scaled_eigenvalue(u, roots):
    """tau(u) prod_k [u - xi_k + 1], the eigenvalue in the scaled gauge;
    finite at u = xi_k - 1."""
    sgn = (-1.0) ** (roots.params.r * roots.aleph)
    lam_p, lam_m = lambda_pm(u, roots)
    out = roots.omega * (lam_p - sgn * lam_m)
    for den in roots.params.bracket(roots.v - u).tolist():   # root by root
        out /= den
    return out


def eigenvalue_tau(u, roots):
    """Transfer-matrix eigenvalue tau(u; {v}, omega)."""
    out = scaled_eigenvalue(u, roots)
    uk = u - np.array(roots.config.xi) + 1
    for den in roots.params.bracket(uk).tolist():   # site by site
        out /= den
    return out


def eigenstate_residual(roots, u, side="right"):
    """|| t_hat(u) |v> - tau(u) |v> || / || |v> || (or the left analogue).

    The gap is divided by ||v|| only, not by |tau(u)|.  Its rounding error
    grows with |tau(u)|, which reaches about 2e6 near the face-weight pole
    u = xi - 1 at N = 8; compare against a tolerance scaled by
    max(1, |tau(u)|) there.
    """
    vec = bethe_vector(roots, side=side)
    tau = eigenvalue_tau(u, roots)
    if side == "right":
        out = transfer_apply(u, vec)
    else:
        out = _entries_apply(("A", "D"), u, vec, dual=True)
    gap = out.amps - tau * vec.amps
    return float(np.linalg.norm(gap) / np.linalg.norm(vec.amps))


# ---------------------------------------------------------------------------
# root cache
# ---------------------------------------------------------------------------

def _cache_key(k, ell, config, params):
    payload = json.dumps({
        "tau": [params.tau.real if isinstance(params.tau, complex) else params.tau,
                complex(params.tau).imag],
        "r": params.r, "L": params.L,
        "s0": [complex(params.s0).real, complex(params.s0).imag],
        "N": config.N,
        "xi": [[x.real, x.imag] for x in config.xi],
        "k": k, "ell": ell,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _cache_dir(cache_dir):
    return cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV)


def _cache_load(k, ell, config, params, cache_dir):
    """Cached roots of the right shape, or None when absent or unreadable.

    The roots are not trusted: _accept checks them against the equations
    of this label, so a stale, edited or mislabelled file is solved afresh.
    """
    root = _cache_dir(cache_dir)
    if not root:
        return None
    path = os.path.join(root, _cache_key(k, ell, config, params) + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        x = np.array(doc["x"], dtype=float)
        if x.shape != (config.N // 2,):
            return None
        return BetheRootSet(x=x, k=k, ell=ell, params=params, config=config,
                            newton_iters=int(doc["newton_iters"]))
    except (ValueError, KeyError, TypeError):
        return None


def _cache_store(roots, cache_dir):
    root = _cache_dir(cache_dir)
    if not root:
        return
    os.makedirs(root, exist_ok=True)
    key = _cache_key(roots.k, roots.ell, roots.config, roots.params)
    doc = {
        "x": list(map(float, roots.x)),
        "omega": [roots.omega.real, roots.omega.imag],
        "residual": roots.residual,
        "newton_iters": roots.newton_iters,
        "solver": "damped-newton",
    }
    # write-then-rename, so a reader never sees a partly written file
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        os.replace(tmp, os.path.join(root, key + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise
