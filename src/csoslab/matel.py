"""Finite-size multi-point matrix elements of height and bond operators.

A lattice path of m+1 adjacent vertices with prescribed heights maps to the
normalized matrix element

  P(s; a_1..a_m) = <u| delta_s(s_hat) T_{a1 a1}(z_1) ... T_{am am}(z_m)
                       prod_k t_hat^{-1}(z_k) |v> / (||u|| ||v||),

with spin steps a_k = s_{k+1} - s_k and spectral arguments z_k read off the
step directions.  Three routes are implemented and cross-checked:

  * dense operator application (oracle),
  * the commutation-relation sum over m-tuples (coefficients F_b) against
    partial scalar products,
  * the determinant form: algebraic factors G_b times a twist sum of
    ratios det(H) / det(Phi), with an optional m x m reduction.

The sums over tuples b = (b_1..b_m) run over b_p in {1..n+m+1-i_p},
pairwise distinct, where the slot ordering lists the a=-1 positions
ascending followed by the a=+1 positions descending, and the extended
parameter list is v_{n+j} = z_{m+1-j}.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import DegenerateConfigError, PoleError
from .lattice import monodromy_entry_apply
from .bethe import (bethe_vector, left_contract, eigenvalue_tau, lambda_pm,
                    scaled_eigenvalue)
from .scalar import (a_nu_factor, default_gamma, gamma_retry,
                     gaudin_matrix, norm_det,
                     partial_scalar_bruteforce, partial_scalar_det,
                     project_height, _check_kappa, _gaudin_kernel)


@dataclass(frozen=True)
class AdjacentPath:
    """Ordered nearest-neighbor vertices with their height assignment.

    vertices : ((i_1, j_1), ..., (i_{m+1}, j_{m+1})), rows i from the top,
        columns j from the left, j non-decreasing.
    heights : integer offsets (a_1, ..., a_{m+1}); vertex k carries height
        s0 + a_k, and consecutive offsets differ by exactly 1.
    """

    vertices: tuple
    heights: tuple

    def __post_init__(self):
        m = len(self.vertices) - 1
        if len(self.heights) != m + 1:
            raise ValueError("need one height per vertex")
        for k in range(m):
            di = self.vertices[k + 1][0] - self.vertices[k][0]
            dj = self.vertices[k + 1][1] - self.vertices[k][1]
            if (di, dj) not in ((1, 0), (-1, 0), (0, 1)):
                raise ValueError(
                    f"vertices {k} -> {k + 1} are not admissible neighbors")
            if abs(self.heights[k + 1] - self.heights[k]) != 1:
                raise ValueError("adjacent heights must differ by 1")

    @property
    def m(self):
        return len(self.vertices) - 1

    @property
    def alphas(self):
        return tuple(self.heights[k + 1] - self.heights[k]
                     for k in range(self.m))

    @property
    def anchor(self):
        return self.vertices[0]

    def moves(self):
        return tuple((self.vertices[k + 1][0] - self.vertices[k][0],
                      self.vertices[k + 1][1] - self.vertices[k][1])
                     for k in range(self.m))

    def zetas(self, config):
        """Spectral arguments z_k: w_{j_k}, xi_{i_k} or xi_{i_k - 1} - 1."""
        out = []
        for k, (di, dj) in enumerate(self.moves()):
            i, j = self.vertices[k]
            if (di, dj) == (0, 1):
                if j - 1 >= len(config.w):
                    raise ValueError(f"path needs column inhomogeneity w_{j}")
                out.append(config.w[j - 1])
            elif (di, dj) == (1, 0):
                out.append(config.xi[i - 1])
            else:
                out.append(config.xi[i - 2] - 1.0)
        return tuple(out)

    def check_zetas(self, config, params):
        """Pairwise distinctness of the z_k modulo the bracket lattice."""
        zs = self.zetas(config)
        for a in range(len(zs)):
            for b in range(a + 1, len(zs)):
                if abs(params.bracket(zs[a] - zs[b])) < 1e-10:
                    raise DegenerateConfigError(
                        f"path arguments z_{a + 1} and z_{b + 1} collide; "
                        "perturb the inhomogeneities")
        return zs

    def to_json_dict(self, config=None):
        doc = {"vertices": [list(v) for v in self.vertices],
               "heights": list(self.heights),
               "alphas": list(self.alphas)}
        if config is not None:
            doc["zetas"] = [[z.real, z.imag] for z in self.zetas(config)]
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        return cls(vertices=tuple(tuple(v) for v in doc["vertices"]),
                   heights=tuple(doc["heights"]))


def vertical_path(heights, start=(1, 1)):
    """Straight path down a column with the given height offsets."""
    i0, j0 = start
    verts = tuple((i0 + k, j0) for k in range(len(heights)))
    return AdjacentPath(vertices=verts, heights=tuple(heights))


def check_pair_separation(zetas, params):
    """Reject argument pairs {z, z - 1}: the tuple-sum coefficients and the
    algebraic factors carry [z_j - z_k + 1] denominators, so these pairs
    need the homogeneous-limit treatment the determinant route does not
    implement (the dense route handles them)."""
    for a in range(len(zetas)):
        for b in range(len(zetas)):
            if a != b and abs(params.bracket(zetas[a] - zetas[b] + 1.0)) < 1e-10:
                raise DegenerateConfigError(
                    "path arguments separated by one lattice unit "
                    "({xi, xi-1} pair); use the dense route or perturb")


def slot_positions(alphas):
    """Slot -> path-position map: a=-1 ascending, then a=+1 descending."""
    minus = [j + 1 for j, a in enumerate(alphas) if a == -1]
    plus = [j + 1 for j, a in enumerate(alphas) if a == 1]
    return tuple(minus + plus[::-1]), len(minus)


def enumerate_tuples(n, m, ipos):
    """All admissible index tuples b with their inversion signs.

    b_p ranges over {1..n+m+1-i_p}, entries pairwise distinct; the sign is
    the parity of the inversion count of (b_1..b_m, complement ascending).
    """
    out = []
    ranges = [range(1, n + m + 1 - ip + 1) for ip in ipos]
    for b in itertools.product(*ranges):
        if len(set(b)) != m:
            continue
        rest = sorted(set(range(1, n + m + 1)) - set(b))
        seq = list(b) + rest
        inv = sum(1 for x in range(n + m) for y in range(x + 1, n + m)
                  if seq[x] > seq[y])
        out.append((b, inv, tuple(rest)))
    return out


def _extended_params(v_roots, zetas):
    """v_1..v_n followed by v_{n+j} = z_{m+1-j}, j = 1..m."""
    return list(v_roots) + list(zetas)[::-1]


def _f_alpha(s, alphas, n, params):
    """prod_j [s + a_{1..m} - j]/[s - j] (telescoped height factor)."""
    tot = sum(alphas)
    out = 1.0 + 0.0j
    for j in range(1, n + 1):
        out *= params.bracket(s + tot - j) / params.bracket(s - j)
    return out


def _f_alpha_product_form(s, alphas, params, n):
    """Same factor from the per-step products (used as a self-check)."""
    out = 1.0 + 0.0j
    for j, a in enumerate(alphas, start=1):
        part = sum(alphas[:j - 1])
        if a == -1:
            out *= (params.bracket(s + part - n - 1)
                    / params.bracket(s + part - 1))
        else:
            out *= params.bracket(s + part) / params.bracket(s + part - n)
    return out


def commutation_action_coefficient(b, s, v_roots, zetas, alphas, v_state,
                                   params):
    """Coefficient F_b(s) of the multiple T_{aa} action on a B-string."""
    n = len(v_roots)
    m = len(zetas)
    ipos, n_minus = slot_positions(alphas)
    v_ext = _extended_params(v_roots, zetas)
    br = params.bracket
    out = _f_alpha(s, alphas, n, params)
    for p in range(m):
        if p < n_minus:
            out *= v_state.d_fun(v_ext[b[p] - 1])
        # a(v) = 1 for the plus block
    for i in range(m):
        for j in range(i + 1, m):
            out *= (br(v_ext[b[i] - 1] - v_ext[b[j] - 1])
                    / br(v_ext[b[i] - 1] - v_ext[b[j] - 1] + 1))
    for p in range(m):
        ip = ipos[p]
        vb = v_ext[b[p] - 1]
        a_ip = alphas[ip - 1]
        part = sum(alphas[:ip - 1])
        out *= br(s + part + vb - zetas[ip - 1]) / br(s + part)
        for k in range(n):
            out *= br(v_roots[k] - vb + a_ip)
        for k in range(n):
            if k != b[p] - 1:
                out /= br(v_roots[k] - vb)
        for k in range(ip + 1, m + 1):
            out *= br(zetas[k - 1] - vb + a_ip)
        for k in range(ip, m + 1):
            if k != n + m + 1 - b[p]:
                out /= br(zetas[k - 1] - vb)
    return out


def _norm_sqrt(root_set):
    """Square root of the state norm; norm_det runs once per root set."""
    memo = root_set.memo
    if "norm" not in memo:
        memo["norm"] = norm_det(root_set)
    return complex(np.sqrt(memo["norm"]))


def coherent_norms(u_set, v_set):
    """Square roots of the two state norms on a common branch.

    The squared norms of all ground states divided by omega^{2n} (fixed
    branch) agree up to exponentially small corrections, so the square
    roots can be aligned pairwise; this keeps matrix elements between
    different ground states on the normalization branch the thermodynamic
    formulas assume, independent of N.
    """
    nu = _norm_sqrt(u_set)
    nv = _norm_sqrt(v_set)
    rho_u = nu / cmath.exp(u_set.n * u_set.log_omega)
    rho_v = nv / cmath.exp(v_set.n * v_set.log_omega)
    if abs(rho_v - rho_u) > abs(rho_v + rho_u):
        nv = -nv
    return nu, nv


def _omega_ratio_pow(u_set, v_set, z):
    """(omega_v / omega_u)^z on the fixed branches."""
    return np.exp(np.asarray(z) * (v_set.log_omega - u_set.log_omega))


def mpme_sum_partial(u_set, v_set, path, a1, gamma=None, route="brute"):
    """Multi-point matrix element via the commutation sum over partial
    scalar products (intermediate representation; serves as an oracle)."""
    params, config = u_set.params, u_set.config
    zetas = path.check_zetas(config, params)
    check_pair_separation(zetas, params)
    alphas = path.alphas
    n, m = u_set.n, path.m
    s = params.height(a1)
    ipos, _ = slot_positions(alphas)
    v_ext = _extended_params(v_set.v, zetas)
    tot = 0.0j
    for b, _inv, rest in enumerate_tuples(n, m, ipos):
        fb = commutation_action_coefficient(b, s, v_set.v, zetas, alphas,
                                            v_set, params)
        if abs(fb) == 0.0:
            continue
        keep = [v_ext[idx - 1] for idx in rest]
        if route == "det":
            sn = partial_scalar_det(u_set, keep, a1, gamma=gamma)
        else:
            sn = partial_scalar_bruteforce(u_set, keep, a1, config, params)
        tot += fb * sn
    pref = np.exp((s + sum(alphas)) * v_set.log_omega - s * u_set.log_omega) / params.L
    for j in range(1, n + 1):
        pref *= params.bracket(s + j - 1) / params.bracket(s + sum(alphas) - j)
    for z in zetas:
        pref /= eigenvalue_tau(z, v_set)
    nu, nv = coherent_norms(u_set, v_set)
    return pref * tot / (nu * nv)


def mpme_bruteforce(u_set, v_set, path, a1):
    """Dense-operator route for the normalized multi-point matrix element.

    Works in the gauge where every R-factor is scaled by [u - xi_k + 1], so
    upward steps (arguments xi_i - 1) stay finite; the matching scaled
    eigenvalue divides the result.
    """
    params, config = u_set.params, u_set.config
    if root_collision(u_set, v_set) == "equal":
        u_set = _rebase_onto(u_set, v_set)
    zetas = path.check_zetas(config, params)
    alphas = path.alphas
    state = bethe_vector(v_set, side="right")
    denom = 1.0 + 0.0j
    for k in range(path.m - 1, -1, -1):
        entry = "A" if alphas[k] == 1 else "D"
        state = monodromy_entry_apply(entry, zetas[k], state, scaled=True)
        denom *= scaled_eigenvalue(zetas[k], v_set)
    state = project_height(state, a1)
    val = left_contract(u_set, state)
    nu, nv = coherent_norms(u_set, v_set)
    return val / denom / (nu * nv)


def root_collision(u_set, v_set):
    """Classify the two root sets: 'distinct', 'equal' (as sets modulo the
    bracket lattice) or 'partial' (some roots shared, some not)."""
    du = u_set.x[:, None] - v_set.x[None, :]
    hits = np.abs(du - np.round(du)) < 1e-9
    if not hits.any():
        return "distinct"
    n = len(u_set.x)
    if (hits.sum() == n and hits.any(axis=1).all() and hits.any(axis=0).all()):
        return "equal"
    return "partial"


def _rebase_onto(u_set, v_set):
    """Copy of {u}'s label data carrying {v}'s root representatives."""
    from .bethe import BetheRootSet
    out = BetheRootSet(x=np.array(v_set.x), k=u_set.k, ell=u_set.ell,
                       params=u_set.params, config=u_set.config,
                       residual=u_set.residual)
    out.memo = v_set.memo   # the norm does not depend on the twist label
    return out


def _mean_value_pair(u_set, v_set):
    """For coinciding root sets, rebase {u} onto {v}'s representatives.

    Twist partners omega_u = -omega_v share their root set (the Bethe
    equations see only omega^2); the mean-value kernel applies because the
    twist ratio enters it squared.  A partial overlap has no determinant
    representation here and is refused.
    """
    kind = root_collision(u_set, v_set)
    if kind == "partial":
        raise DegenerateConfigError(
            "partially coinciding Bethe root sets are not supported by the "
            "determinant representation")
    if kind == "distinct":
        return u_set, False
    if abs((v_set.omega / u_set.omega) ** 2 - 1.0) > 1e-8:
        raise DegenerateConfigError(
            "coinciding root sets with different omega^2")
    return _rebase_onto(u_set, v_set), True


def phi_twisted_matrix(nu, gamma, v_set):
    """Mean-value ({u} = {v}) replacement for the transformed kernel: the
    Gaudin diagonal plus the kernel of _h_transformed at t = gamma, w = 1."""
    q = v_set.params.q
    v = np.asarray(v_set.v)
    diag, _ = _gaudin_kernel(v_set)
    return np.diag(diag) + _h_kernel(gamma, v, q ** (-nu), q ** nu,
                                     v_set.params)


def algebraic_factor_G(b, inv, a1, u_set, v_set, zetas, alphas):
    """Prefactor G_b of the determinant representation."""
    params = u_set.params
    br = params.bracket
    n = u_set.n
    m = len(zetas)
    s = params.height(a1)
    ipos, n_minus = slot_positions(alphas)
    v_ext = _extended_params(v_set.v, zetas)
    out = (-1.0) ** (m * n + inv + n_minus)
    out *= _omega_ratio_pow(u_set, v_set, s)
    out *= np.prod(u_set.d_fun(np.asarray(u_set.v))
                   / v_set.d_fun(np.asarray(v_set.v)))
    for p in range(m):
        if b[p] <= n:
            continue
        eps = -1 if p < n_minus else 1
        out *= lambda_pm(eps, v_ext[b[p] - 1], v_set)
    for z in zetas:
        out /= lambda_pm(1, z, v_set) - lambda_pm(-1, z, v_set)
    for i in range(m):
        for j in range(i + 1, m):
            out /= br(zetas[i] - zetas[j])
            out /= br(v_ext[b[i] - 1] - v_ext[b[j] - 1] + 1)
    for p in range(m):
        ip = ipos[p]
        vb = v_ext[b[p] - 1]
        part = sum(alphas[:ip - 1])
        out *= br(s + part + vb - zetas[ip - 1]) / br(s + part)
        for l in range(1, ip):
            out *= br(zetas[l - 1] - vb)
        for l in range(ip + 1, m + 1):
            out *= br(zetas[l - 1] - vb + alphas[ip - 1])
    return out


def mpme_det(u_set, v_set, path, a1, gamma=None, reduction="m"):
    """Determinant representation of the normalized matrix element.

    reduction='m' computes det(H) once per twist sector and reduces each
    tuple to an m x m determinant through linear solves; reduction='n'
    evaluates the mixed n x n determinant per tuple directly.
    """
    params, config = u_set.params, u_set.config
    if gamma is None:
        return gamma_retry(
            lambda g: mpme_det(u_set, v_set, path, a1, gamma=g,
                               reduction=reduction),
            params, None)
    zetas = path.check_zetas(config, params)
    check_pair_separation(zetas, params)
    alphas = path.alphas
    n, m = u_set.n, path.m
    s = params.height(a1)
    L = params.L
    br = params.bracket
    u_set, same = _mean_value_pair(u_set, v_set)
    u, v = u_set.v, v_set.v
    t0 = np.sum(u) - np.sum(v) + gamma
    if abs(br(t0)) < 1e-13:
        raise PoleError("[|u|-|v|+gamma] vanishes; redraw gamma")
    b0p = br(0.0, order=1)
    phi_v = gaudin_matrix(v_set)
    det_phi = np.linalg.det(phi_v)
    _check_kappa(phi_v, "Gaudin matrix")
    ipos, _ = slot_positions(alphas)
    v_ext = _extended_params(v_set.v, zetas)
    tuples = enumerate_tuples(n, m, ipos)

    # appendix-B coefficients: (1, q^-nu, w^2, q^nu w^2) for H, and
    # (lam+, lam+ q^-nu, lam- w^2, lam- w^2 q^nu) for Q, w = omega_v/omega_u;
    # a lambda that vanishes (lam+ on an upward step) zeroes its two terms
    w2 = _omega_ratio_pow(u_set, v_set, 2.0)
    z = np.asarray(zetas, dtype=complex)
    lam_p = np.array([lambda_pm(1, zk, v_set) for zk in zetas], dtype=complex)
    lam_m = np.array([lambda_pm(-1, zk, v_set) for zk in zetas],
                     dtype=complex) * w2
    base_mats, q_mats, base_dets, s_mats = {}, {}, {}, {}
    for nu in range(L):
        qm_nu, qp_nu = params.q ** (-nu), params.q ** nu
        base = (phi_twisted_matrix(nu, gamma, v_set) if same else
                _h_transformed(gamma, u, v, (1.0, qm_nu, w2, qp_nu * w2),
                               params))
        qm = (_q_transformed(gamma, u, v, z, (lam_p, lam_p * qm_nu, lam_m,
                                              lam_m * qp_nu), params)
              if m else None)
        base_mats[nu], q_mats[nu] = base, qm
        base_dets[nu] = np.linalg.det(base)
        if reduction == "m" and m:
            s_mats[nu] = np.linalg.solve(base, qm)

    total = 0.0j
    for b, inv, rest in tuples:
        gb = algebraic_factor_G(b, inv, a1, u_set, v_set, zetas, alphas)
        if gb == 0.0:
            continue
        vb_sum = sum(v_ext[idx - 1] for idx in b)
        keep_sum = np.sum(v_set.v) + sum(zetas) - vb_sum
        den = br(np.sum(u_set.v) - keep_sum + gamma + s)
        if abs(den) < 1e-13:
            raise PoleError("b-dependent prefactor pole; redraw gamma")
        pre = br(s) * br(t0) / (b0p * den)
        nu_sum = 0.0j
        for nu in range(L):
            if reduction == "m" and m:
                smat = np.zeros((m, m), dtype=complex)
                for j in range(m):
                    if b[j] <= n:
                        smat[j, :] = s_mats[nu][b[j] - 1, :]
                    else:
                        smat[j, n + m + 1 - b[j] - 1] = -1.0
                sign = (-1.0) ** (m * (n + 1) + m * (m - 1) // 2 + inv)
                det_h = sign * base_dets[nu] * np.linalg.det(smat)
            elif m:
                det_h = np.linalg.det(np.column_stack(
                    [base_mats[nu][:, idx - 1] if idx <= n
                     else q_mats[nu][:, n + m - idx] for idx in rest]))
            else:
                det_h = base_dets[nu]
            nu_sum += (params.qpow(nu * s) * a_nu_factor(nu, gamma, params)
                       * det_h)
        total += gb * pre * nu_sum / (L * det_phi)
    nrm_u, nrm_v = coherent_norms(u_set, v_set)
    return total * nrm_v / nrm_u


def marginal_check(u_set, v_set, path, a1, route="det"):
    """Sum of the (m+1)-point element over the last height vs the m-point."""
    fun = mpme_det if route == "det" else mpme_bruteforce
    short = AdjacentPath(path.vertices[:-1], path.heights[:-1])
    lhs = 0.0j
    for astep in (1, -1):
        heights = path.heights[:-1] + (path.heights[-2] + astep,)
        lhs += fun(u_set, v_set, AdjacentPath(path.vertices, heights), a1)
    rhs = fun(u_set, v_set, short, a1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Appendix-B transformation: the H and Q builders of mpme_det, and the
# determinant identity they satisfy for free coefficient vectors
# ---------------------------------------------------------------------------

def _q_beta(gamma, u, v, zetas, bet, params):
    """Kernel columns at the arguments zetas; at zetas = v with the alpha
    coefficients it is the H_alpha block of the identity."""
    br = params.bracket
    b1, b2, b3, b4 = bet
    uz = u[:, None] - zetas[None, :]
    pp = (np.prod(br(u[:, None] - zetas[None, :] + 1), axis=0)
          / np.prod(br(v[:, None] - zetas[None, :] + 1), axis=0))
    pm = (np.prod(br(u[:, None] - zetas[None, :] - 1), axis=0)
          / np.prod(br(v[:, None] - zetas[None, :] - 1), axis=0))
    mat = ((b1[None, :] * br(uz + gamma) / br(uz)
            - b2[None, :] * br(uz + gamma + 1) / br(uz + 1)) * pp[None, :]
           - (b3[None, :] * br(uz + gamma) / br(uz)
              - b4[None, :] * br(uz + gamma - 1) / br(uz - 1)) * pm[None, :])
    return mat / br(gamma)


def _x_matrix(t, u, v, params):
    br = params.bracket
    n = len(u)
    mat = np.zeros((n, n), dtype=complex)
    for k in range(n):
        pref = br(0.0, order=1) / br(t)
        pref *= np.prod(br(u[k] - v))
        pref /= np.prod(br(u[k] - np.delete(u, k)))
        mat[:, k] = pref * br(v - u[k] + t) / br(v - u[k])
    return mat


def x_determinant_residual(gamma, u, v, params):
    """det X_t against its closed product form."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = len(u)
    t = np.sum(u - v) + gamma
    br = params.bracket
    lhs = np.linalg.det(_x_matrix(t, u, v, params))
    rhs = (-br(0.0, order=1)) ** n * br(gamma) / br(t)
    for j in range(n):
        for k in range(j + 1, n):
            rhs *= br(v[j] - v[k]) / br(u[j] - u[k])
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _h_kernel(t, v, a2, a4, params):
    """[0]'/[t] (a2_k [v_j - v_k + t + 1]/[v_j - v_k + 1]
    - a4_k [v_j - v_k + t - 1]/[v_j - v_k - 1]), the part of the transformed
    kernel that its mean-value form shares."""
    br = params.bracket
    dv = v[:, None] - v[None, :]
    return (br(0.0, order=1) / br(t)) * (
        a2 * br(dv + t + 1) / br(dv + 1) - a4 * br(dv + t - 1) / br(dv - 1))


def _h_transformed(gamma, u, v, alup, params):
    """Transformed kernel H; each coefficient in alup = (a1, a2, a3, a4) is
    a scalar or one value per column."""
    br = params.bracket
    a1, a2, a3, a4 = alup
    t = np.sum(u - v) + gamma
    uv = u[:, None] - v[None, :]
    dv = v[:, None] - v[None, :]
    pp = np.prod(br(uv + 1), axis=0) / np.prod(br(dv + 1), axis=0)
    pm = np.prod(br(uv - 1), axis=0) / np.prod(br(dv - 1), axis=0)
    num = np.array([np.prod(br(v[j] - np.delete(v, j)))
                    for j in range(len(v))])
    den = np.prod(br(v[:, None] - u[None, :]), axis=1)
    diag = br(0.0, order=1) * num / den * (a1 * pp - a3 * pm)
    return np.diag(diag) + _h_kernel(t, v, a2, a4, params)


def _q_transformed(gamma, u, v, zetas, bet, params):
    """Path block Q, one column per argument in zetas; each coefficient in
    bet = (b1, b2, b3, b4) is a scalar or one value per column."""
    br = params.bracket
    b1, b2, b3, b4 = bet
    t = np.sum(u - v) + gamma
    vz = v[:, None] - zetas[None, :]
    uz = u[:, None] - zetas[None, :]
    prod_p = np.prod(br(vz) / br(uz) * br(uz + 1) / br(vz + 1), axis=0)
    prod_m = np.prod(br(vz) / br(uz) * br(uz - 1) / br(vz - 1), axis=0)
    return (br(0.0, order=1) / br(t)) * (
        b2 * br(vz + t + 1) / br(vz + 1) - b1 * br(vz + t) / br(vz) * prod_p
        - b4 * br(vz + t - 1) / br(vz - 1) + b3 * br(vz + t) / br(vz) * prod_m)


def appendixB_identity_residual(u, v, zetas, gamma, alup, bet, mcols, params):
    """Residual of the determinant transformation with free 4-tuples.

    Compares det of the column-mixed [H_alpha | Q_beta] matrix against the
    prefactor times det of the transformed mixed matrix, where the last
    `mcols` columns are replaced by Q-columns.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    zetas = np.asarray(zetas, dtype=complex)
    n = len(u)
    br = params.bracket
    h = _q_beta(gamma, u, v, v, alup, params)
    qq = _q_beta(gamma, u, v, zetas, bet, params)
    mixed = np.column_stack([h[:, :n - mcols], qq[:, :mcols]])
    ch = _h_transformed(gamma, u, v, alup, params)
    cq = _q_transformed(gamma, u, v, zetas, bet, params)
    cmixed = np.column_stack([ch[:, :n - mcols], cq[:, :mcols]])
    t = np.sum(u - v) + gamma
    pref = br(t) / ((-br(0.0, order=1)) ** n * br(gamma))
    for j in range(n):
        for k in range(j + 1, n):
            pref *= br(u[j] - u[k]) / br(v[j] - v[k])
    lhs = np.linalg.det(mixed)
    rhs = pref * np.linalg.det(cmixed)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# finite-size local height probabilities
# ---------------------------------------------------------------------------

def _det_or_dense(u_set, v_set, path, a1, gamma):
    """mpme_det, or the dense route where the determinant representation
    does not apply (lattice-coincident twist partners at even L)."""
    try:
        return mpme_det(u_set, v_set, path, a1, gamma=gamma)
    except DegenerateConfigError:
        return mpme_bruteforce(u_set, v_set, path, a1)


def calibrate_norm_signs(ground_states, gamma=None):
    """Per-state normalization signs matching the thermodynamic branch.

    The square roots of the (complex) state norms carry a sign freedom
    that cancels in every diagonal quantity but enters matrix elements
    between different ground states.  The thermodynamic formulas fix one
    convention; at sizes where the twist-phase alignment of the norms is
    ambiguous (omega^{2n} real) the residual k-sector sign is pinned here
    by one cheap one-point element per state against its limit value.
    """
    from .thermo import _pbar_bethe_pair  # deferred: thermo imports matel

    keys = sorted(ground_states)
    anchor = keys[0]
    params = ground_states[anchor].params
    if gamma is None:
        gamma = default_gamma(params)
    signs = {anchor: 1.0}
    for key in keys[1:]:
        dk = key[0] - anchor[0]
        dl = key[1] - anchor[1]
        best_a, best_mag = 0, -1.0
        pbs = {}
        for a in range(params.L):
            pbs[a] = _pbar_bethe_pair(params.height(a), 0.0, dk, dl,
                                      params, gamma)
            if abs(pbs[a]) > best_mag:
                best_a, best_mag = a, abs(pbs[a])
        path0 = AdjacentPath(vertices=((1, 1),), heights=(best_a,))
        val = _det_or_dense(ground_states[anchor], ground_states[key], path0,
                            best_a, gamma)
        signs[key] = 1.0 if abs(val - pbs[best_a]) <= abs(val + pbs[best_a]) \
            else -1.0
    return signs


def flat_basis_phases(eps, t_label, params):
    """Coefficients of the discrete Fourier change to the flat-state basis."""
    Lr = params.L - params.r
    out = {}
    for k in (0, 1):
        for ell in range(Lr):
            phase = ((-1.0) ** (k * eps)
                     * np.exp(-1j * math.pi * (params.r * k + 2 * ell)
                              * (t_label + params.s0) / Lr))
            out[(k, ell)] = phase
    return out


def flat_matrix_element(path, left_label, right_label, ground_states,
                        method="det", gamma=None, signs=None):
    """Matrix element of the path operator between two flat-basis states.

    For even L the ground-state family contains twist-partner pairs whose
    root sets coincide modulo the bracket lattice (integer root-sum
    difference); the determinant representation does not cover that case
    and those pair elements fall back to the dense route.  The rotation to
    the flat basis is an asymptotic (large-N) construction; at even L the
    partner pairs stay exactly degenerate at finite N and the finite-size
    rotated values converge slowly, so thermodynamic comparisons are well
    conditioned at odd L (the acceptance setting).
    """
    some = next(iter(ground_states.values()))
    params = some.params
    a1 = path.heights[0]
    Lr = params.L - params.r
    if signs is None:
        signs = calibrate_norm_signs(ground_states, gamma=gamma)
    ph_l = flat_basis_phases(*left_label, params)
    ph_r = flat_basis_phases(*right_label, params)
    tot = 0.0j
    for uk in ph_l:
        for vk in ph_r:
            u_set, v_set = ground_states[uk], ground_states[vk]
            if method == "det":
                val = _det_or_dense(u_set, v_set, path, a1, gamma)
            else:
                val = mpme_bruteforce(u_set, v_set, path, a1)
            val *= _anchor_factor(path, u_set, v_set)
            tot += signs[uk] * signs[vk] * val * ph_r[vk] / ph_l[uk]
    return tot / (2 * Lr)


def finite_lhp(path, basis, ground_states, method="det", gamma=None):
    """Finite-size LHP for a path, in the Bethe or the flat-state basis.

    basis = ("bethe", k1, l1, k2, l2) or ("flat", eps, t).
    ground_states maps (k, ell) -> BetheRootSet.
    """
    if basis[0] == "bethe":
        _, k1, l1, k2, l2 = basis
        u_set = ground_states[(k1, l1)]
        v_set = ground_states[(k2, l2)]
        a1 = path.heights[0]
        if method == "det":
            val = mpme_det(u_set, v_set, path, a1, gamma=gamma)
        else:
            val = mpme_bruteforce(u_set, v_set, path, a1)
        return val * _anchor_factor(path, u_set, v_set)
    if basis[0] != "flat":
        raise ValueError("basis must be 'bethe' or 'flat'")
    _, eps, t_label = basis
    return flat_matrix_element(path, (eps, t_label), (eps, t_label),
                               ground_states, method=method, gamma=gamma)


def _anchor_factor(path, u_set, v_set):
    """Transfer-eigenvalue ratios for paths not anchored at (1, 1)."""
    i1, j1 = path.anchor
    config = u_set.config
    fac = 1.0 + 0.0j
    for kk in range(j1 - 1):
        fac *= eigenvalue_tau(config.w[kk], u_set) / eigenvalue_tau(
            config.w[kk], v_set)
    for ll in range(i1 - 1):
        fac *= eigenvalue_tau(config.xi[ll], u_set) / eigenvalue_tau(
            config.xi[ll], v_set)
    return fac
