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
"""

import cmath
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .elliptic import ModelParams, SolverError, theta
from .lattice import LatticeConfig, StateVector, monodromy_entry_apply, \
    transfer_apply

CACHE_ENV = "CSOSLAB_CACHE_DIR"


def _log_ratio_odd(z, shift, tau_t, order):
    """i*log(theta1(shift+z)/theta1(shift-z)), or its z-derivative (order 1).

    The log is continuous and odd in z (real z): principal value on the
    fundamental interval plus 2 pi per full period.
    """
    if order == 1:
        zp = np.asarray(z) + shift
        zm = np.asarray(z) - shift
        return 1j * (theta(1, zp, tau_t, order=1) / theta(1, zp, tau_t)
                     - theta(1, zm, tau_t, order=1) / theta(1, zm, tau_t))
    z = np.asarray(z, dtype=float)
    wind = np.round(z)
    w = z - wind
    ratio = theta(1, shift + w, tau_t) / theta(1, shift - w, tau_t)
    val = 1j * np.log(ratio)
    return np.real(val) + 2.0 * math.pi * wind


def bare_momentum(z, params, order=0):
    """p0(z) (continuous odd branch) or p0'(z)."""
    return _log_ratio_odd(z, params.eta_tilde / 2.0, params.tau_tilde, order)


def bare_phase(z, params, order=0):
    """theta(z) = i log(theta1(eta~+z)/theta1(eta~-z)), or its derivative."""
    return _log_ratio_odd(z, params.eta_tilde, params.tau_tilde, order)


def momentum_shifts(config, params):
    """Real shifts c_k with p0_tot(z) = (1/N) sum p0(z - c_k)."""
    et = params.eta_tilde
    return np.array([(et * x - et / 2.0).real for x in config.xi])


def p0_tot(z, config, params, order=0):
    shifts = momentum_shifts(config, params)
    z = np.asarray(z, dtype=float)
    vals = bare_momentum(z[..., None] - shifts, params, order=order)
    return np.real(vals).mean(axis=-1) if order == 0 else vals.mean(axis=-1)


def xibar(config, params):
    """sum_l (eta~/2 - xi~_l); real on the admissible inhomogeneity line."""
    return complex(config.xibar_tilde(params)).real


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
    # results that depend on the roots only (the state norm), filled lazily
    # and shared by copies carrying the same roots
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

    def a_fun(self, u):
        return np.ones_like(np.asarray(u, dtype=complex)) if np.ndim(u) else 1.0

    def d_fun(self, u):
        out = np.ones_like(np.asarray(u, dtype=complex)) if np.ndim(u) else 1.0
        for xi in self.config.xi:
            out = out * (self.params.bracket(np.asarray(u) - xi)
                         / self.params.bracket(np.asarray(u) - xi + 1))
        return out

    def sum_x(self):
        return float(np.sum(self.x))


def log_bethe_residual(x, k, ell, config, params):
    """LHS - RHS of the logarithmic Bethe equations at real roots x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    N = config.N
    nj = np.arange(1, n + 1) + k
    lhs = N * p0_tot(x, config, params)
    lhs = lhs - np.sum(bare_phase(x[:, None] - x[None, :], params), axis=1)
    rhs = 2.0 * math.pi * (nj - (n + 1) / 2.0
                           + (params.r * n + 2.0 * ell) / params.L
                           + 2.0 * params.eta * np.sum(x)
                           + params.eta * xibar(config, params))
    return lhs - rhs


def _log_bethe_jacobian(x, config, params):
    x = np.asarray(x, dtype=float)
    n = len(x)
    N = config.N
    diag = N * np.real(p0_tot(x, config, params, order=1))
    kern = np.real(bare_phase(x[:, None] - x[None, :], params, order=1))
    jac = np.diag(diag - np.sum(kern, axis=1)) + kern
    jac = jac - 4.0 * math.pi * params.eta
    return jac


def bethe_residual(roots, relative=False):
    """Multiplicative Bethe-equation defect, one complex number per root.

    With relative=True each defect is divided by max(1, |LHS|, |RHS|),
    which keeps the solver acceptance meaningful at larger N where the
    bracket products grow exponentially.
    """
    v = roots.v
    n = roots.n
    params = roots.params
    if n > 1:
        xd = roots.x[:, None] - roots.x[None, :] + 0.37 * np.eye(n)
        if np.min(np.abs(xd - np.round(xd))) < 1e-10:
            raise SolverError("coinciding Bethe roots")
    out = np.zeros(n, dtype=complex)
    sgn = (-1.0) ** (params.r * roots.aleph)
    for j in range(n):
        lhs = roots.a_fun(v[j])
        rhs = sgn * roots.omega ** (-2) * roots.d_fun(v[j])
        for l in range(n):
            if l == j:
                continue
            lhs *= params.bracket(v[l] - v[j] + 1) / params.bracket(v[l] - v[j])
            rhs *= params.bracket(v[j] - v[l] + 1) / params.bracket(v[j] - v[l])
        out[j] = lhs - rhs
        if relative:
            out[j] /= max(1.0, abs(lhs), abs(rhs))
    return out


def density_fourier(m, config, params):
    """Fourier coefficient(s) of rho_tot at the integer mode(s) m."""
    sh = momentum_shifts(config, params)
    m = np.asarray(m)
    base = 1.0 / (2.0 * np.cosh(1j * math.pi * m * params.eta_tilde))
    return base * np.mean(np.exp(-2j * math.pi * m[..., None] * sh), axis=-1)


def _cumulative_density(x, coeffs):
    """N-independent integral of rho_tot from -1/2 to x (x real).

    coeffs holds density_fourier at the modes 1, 2, ..., len(coeffs).
    """
    x = np.asarray(x, dtype=float)
    m = np.arange(1, len(coeffs) + 1)
    term = np.exp(2j * math.pi * m * x[..., None]) - np.exp(-1j * math.pi * m)
    return (x + 0.5) / 2.0 + np.sum(
        2.0 * np.real(term * coeffs / (2j * math.pi * m)), axis=-1)


def _initial_guess(n, k, ell, config, params, modes=80):
    """Quantiles of the root density seed the Newton iteration.

    All n targets are bisected together, 60 halvings of [-1/2, 1/2].
    """
    N = config.N
    targets = (np.arange(1, n + 1) + k - (n + 1) / 2.0
               + (params.r * n + 2.0 * ell) / params.L) / N + 0.25
    targets = np.clip(targets, 0.02, 0.48)
    coeffs = density_fourier(np.arange(1, modes + 1), config, params)
    lo, hi = np.full(n, -0.5), np.full(n, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _cumulative_density(mid, coeffs) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sort(0.5 * (lo + hi))


def solve_ground_state(k, ell, config, params, tol=1e-13, max_iters=200,
                       cache_dir=None):
    """Damped-Newton solution of the logarithmic Bethe equations.

    Returns a BetheRootSet with multiplicative residual below 1e-10; raises
    SolverError (carrying the best iterate) on failure.
    """
    config.validate(params)
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if not 0 <= ell < params.L - params.r:
        raise ValueError(f"ell must lie in 0..{params.L - params.r - 1}")
    n = config.N // 2

    cached = _cache_load(k, ell, config, params, cache_dir)
    if cached is not None:
        return cached

    x = _initial_guess(n, k, ell, config, params)
    res = log_bethe_residual(x, k, ell, config, params)
    rnorm = float(np.max(np.abs(res)))
    iters = 0
    while rnorm > tol and iters < max_iters:
        jac = _log_bethe_jacobian(x, config, params)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at iteration {iters}",
                              best=x, residual=rnorm) from exc
        scale = 1.0
        improved = False
        for _ in range(20):
            trial = x - scale * step
            tres = log_bethe_residual(trial, k, ell, config, params)
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm:
                improved = True
                break
            scale *= 0.5
        if not improved:
            break  # at the round-off floor; acceptance below decides
        x, res, rnorm = trial, tres, tnorm
        iters += 1
    if rnorm > 1e-10:
        raise SolverError(f"no convergence after {iters} iterations",
                          best=x, residual=rnorm)
    roots = BetheRootSet(x=np.sort(x), k=k, ell=ell, params=params,
                         config=config, newton_iters=iters)
    roots.residual = float(np.max(np.abs(bethe_residual(roots, relative=True))))
    if roots.residual > 1e-10:
        raise SolverError(
            f"multiplicative residual {roots.residual:.2e} above 1e-10",
            best=x, residual=roots.residual)
    _cache_store(roots, cache_dir)
    return roots


def all_ground_states(config, params, cache_dir=None):
    """The 2(L-r) ground-state root sets, keyed by (k, ell)."""
    out = {}
    for k in (0, 1):
        for ell in range(params.L - params.r):
            out[(k, ell)] = solve_ground_state(k, ell, config, params,
                                               cache_dir=cache_dir)
    return out


# ---------------------------------------------------------------------------
# Bethe vectors and eigenvalues
# ---------------------------------------------------------------------------

def _phi_weight(roots, s, dual=False):
    params = roots.params
    n = roots.n
    if not dual:
        out = roots.omega_pow(s) / math.sqrt(params.L)
        for j in range(1, n + 1):
            out *= params.bracket(1) / params.bracket(s - j)
        return out
    out = roots.omega_pow(-s) / math.sqrt(params.L)
    for j in range(0, n):
        out *= params.bracket(s + j) / params.bracket(1)
    return out


def bethe_vector(roots, side="right"):
    """|{v}, omega> = phi_omega prod_j B_hat(v_j) |0>> (or the dual covector).

    The left vector is returned as a StateVector holding covector
    components r with r . psi = <{v}, omega | psi>.
    """
    config, params = roots.config, roots.params
    if side == "right":
        st = StateVector.reference(config, params)
        for vj in roots.v:
            st = monodromy_entry_apply("B", vj, st)
        return st.scale_heights(lambda s: _phi_weight(roots, s))
    if side != "left":
        raise ValueError("side must be 'right' or 'left'")
    row = StateVector.reference(config, params)
    for vj in roots.v[::-1]:
        row = monodromy_entry_apply("C", vj, row, dual=True)
    return row.scale_heights(lambda s: _phi_weight(roots, s, dual=True))


def left_contract(roots, state):
    """<{u}, omega_u | state> without materializing the covector."""
    work = state.scale_heights(lambda s: _phi_weight(roots, s, dual=True))
    for vj in roots.v:
        work = monodromy_entry_apply("C", vj, work)
    return work.bra_contract_reference()


def lambda_pm(eps, zeta, roots):
    """Lambda_eps(z; {v}, omega): the eigenvalue half built on one sector."""
    params = roots.params
    br = params.bracket
    out = eps * roots.omega ** (eps - 1)
    for xi in roots.config.xi:
        out *= br(zeta - xi + (1 + eps) // 2)
    for vj in roots.v:
        out *= br(vj - zeta + eps)
    return out


def scaled_eigenvalue(u, roots):
    """tau(u) prod_k [u - xi_k + 1], the eigenvalue in the scaled gauge;
    finite at u = xi_k - 1."""
    sgn = (-1.0) ** (roots.params.r * roots.aleph)
    out = roots.omega * (lambda_pm(1, u, roots) - sgn * lambda_pm(-1, u, roots))
    for vj in roots.v:
        out /= roots.params.bracket(vj - u)
    return out


def eigenvalue_tau(u, roots):
    """Transfer-matrix eigenvalue tau(u; {v}, omega)."""
    out = scaled_eigenvalue(u, roots)
    for xi in roots.config.xi:
        out /= roots.params.bracket(u - xi + 1)
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
        out = monodromy_entry_apply("A", u, vec, dual=True)
        out.amps += monodromy_entry_apply("D", u, vec, dual=True).amps
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
    """Cached roots, or None when absent, unreadable or not a solution.

    The Bethe equations are checked again on load, so a stale or edited
    file is solved afresh instead of being trusted.
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
        roots = BetheRootSet(x=x, k=k, ell=ell, params=params, config=config,
                             newton_iters=int(doc["newton_iters"]))
        roots.residual = float(np.max(np.abs(
            bethe_residual(roots, relative=True))))
    except (ValueError, KeyError, TypeError, SolverError):
        return None
    if not roots.residual <= 1e-10:
        return None
    return roots


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
