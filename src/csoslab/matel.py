"""Finite-size multi-point matrix elements of height and bond operators.

A lattice path of m+1 adjacent vertices with prescribed heights maps to the
normalized matrix element

  P(s; a_1..a_m) = <u| delta_s(s_hat) T_{a1 a1}(z_1) ... T_{am am}(z_m)
                       prod_k t_hat^{-1}(z_k) |v> / (||u|| ||v||),

with spin steps a_k = s_{k+1} - s_k and spectral arguments z_k read off the
step directions.  Two table functions build the elements E[i][j] of left
states u_i against right states v_j: `_det_table`, the determinant form
(algebraic factors G_b times a twist sum of ratios det(H) / det(Phi), with
an optional m x m reduction), one kernel and one stacked pass for all
pairs, and `_dense_table`, dense operator application, one pass per right
state.  `mpme_det` and `mpme_bruteforce` are their
1 x 1 cases; the router `_pair_table` takes the determinant table, and the
dense one where it refuses.  The commutation-relation sum over m-tuples
that checks the determinant form is `contract.mpme_sum_partial`.

The sums over tuples b = (b_1..b_m) run over b_p in {1..n+m+1-i_p},
pairwise distinct, where the slot ordering lists the a=-1 positions
ascending followed by the a=+1 positions descending, and the extended
parameter list is v_{n+j} = z_{m+1-j}.  The determinant form takes the
tuples as one (T, m) array.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elliptic import DegenerateConfigError, PoleError, _cdiv, _cmul
from .lattice import (_guard_bytes, local_operator_apply,
                      monodromy_entry_apply)
from .bethe import (_lambda_pm_rows, _measure, bethe_vector,
                    eigenvalue_tau, scaled_eigenvalue)
from .scalar import (gamma_retry, norm_det, twist_weights, _own_d,
                     _sector_q_powers)

# pairs x tuples per determinant stack of _table_kernel (bounds memory, not
# the value)
TUPLE_BLOCK = 1024

# smallest |[z_j - z_k]| of two path arguments the determinant route takes.
# On m = 2 paths at N = 4, 8, 12, 16 (tau = 0.45i physical and 0.8i generic
# s0) the element drifts by up to 6e-8 relative over a circle of gammas at
# |[z_j - z_k]| = 1.2e-5 and by 3e-7 at 1.2e-6: from here down a gamma can
# put it beyond the 1e-7 agreement with the dense route.
PAIR_GAP_MIN = 1e-5


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
        if len(self.heights) != len(self.vertices):
            raise ValueError("need one height per vertex")
        for vertex in self.vertices:
            if len(vertex) != 2 or not all(map(_is_int, vertex)):
                raise ValueError(
                    f"vertex {vertex!r} is not a pair of integers")
        for h in self.heights:
            if not _is_int(h):
                raise ValueError(f"height offset {h!r} is not an integer")
        for k, step in enumerate(self.moves()):
            if step not in ((1, 0), (-1, 0), (0, 1)):
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
        """Spectral arguments z_k: w_{j_k}, xi_{i_k} or xi_{i_k - 1} - 1;
        vertices off the lattice (rows 1..N+1, columns 1..M+1) are refused."""
        for i, j in self.vertices:
            if not (1 <= i <= config.N + 1 and 1 <= j <= config.M + 1):
                raise ValueError(
                    f"path vertex ({i}, {j}) lies outside the lattice: rows "
                    f"1..{config.N + 1}, columns 1..{config.M + 1}")
        return tuple(config.w[j - 1] if dj else config.xi[i - 1] if di == 1
                     else config.xi[i - 2] - 1.0
                     for (i, j), (di, dj) in zip(self.vertices, self.moves()))

    def check_zetas(self, config, params):
        """The path arguments z_k and their pair relations modulo the
        bracket lattice, from one bracket call (none when m <= 1).

        Returns (zetas, gap, units): gap is the smallest |[z_p - z_q]|,
        units the ordered pairs (p, q) with z_p = z_q - 1, the {xi - 1, xi}
        pairs.  A coinciding pair, |[z_p - z_q]| < 1e-10, is refused.
        """
        zs = self.zetas(config)
        if len(zs) < 2:
            return zs, math.inf, ()
        z = np.asarray(zs, dtype=complex)
        a, b = np.nonzero(~np.eye(len(zs), dtype=bool))
        p, q = a[a < b], b[a < b]
        brs = np.abs(params.bracket(np.concatenate((z[a] - z[b] + 1.0,
                                                    z[p] - z[q]))))
        gaps = brs[len(a):]
        if gaps.min() < 1e-10:
            k = np.argmax(gaps < 1e-10)
            raise DegenerateConfigError(
                f"path arguments z_{p[k] + 1} and z_{q[k] + 1} collide; "
                "perturb the inhomogeneities")
        unit = brs[:len(a)] < 1e-10
        return zs, float(gaps.min()), tuple(zip(a[unit].tolist(),
                                                b[unit].tolist()))

    def to_json_dict(self):
        return {"vertices": [list(v) for v in self.vertices],
                "heights": list(self.heights),
                "alphas": list(self.alphas)}

    @classmethod
    def from_json_dict(cls, doc):
        try:
            return cls(vertices=tuple(tuple(v) for v in doc["vertices"]),
                       heights=tuple(doc["heights"]))
        except TypeError as exc:    # a scalar where a list belongs
            raise ValueError(f"malformed path document: {exc}") from exc


def _is_int(value):
    """An integer of Python or numpy; bool is refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def vertical_path(heights, start=(1, 1)):
    """Straight path down a column with the given height offsets."""
    i0, j0 = start
    verts = tuple((i0 + k, j0) for k in range(len(heights)))
    return AdjacentPath(vertices=verts, heights=tuple(heights))


def det_route_zetas(path, config, params):
    """The path arguments, with the pairs the determinant route cannot take
    refused (the dense route takes them).

    Unit pairs {xi - 1, xi}: the tuple-sum coefficients and the algebraic
    factors carry [z_j - z_k + 1] denominators, so these pairs need the
    homogeneous-limit treatment the route does not implement.  Pairs with
    |[z_j - z_k]| < PAIR_GAP_MIN: the tuple sum cancels terms of order
    1/[z_j - z_k] and loses digits like 4e-14/|[z_j - z_k]|.
    """
    zetas, gap, units = path.check_zetas(config, params)
    if units:
        raise DegenerateConfigError(
            "path arguments separated by one lattice unit "
            "({xi, xi-1} pair); use the dense route or perturb")
    if gap < PAIR_GAP_MIN:
        raise DegenerateConfigError(
            "path arguments too close for the determinant route")
    return zetas


def slot_positions(alphas):
    """Slot -> path-position map: a=-1 ascending, then a=+1 descending."""
    minus = [j + 1 for j, a in enumerate(alphas) if a == -1]
    plus = [j + 1 for j, a in enumerate(alphas) if a == 1]
    return tuple(minus + plus[::-1]), len(minus)


def enumerate_tuples(n, m, ipos):
    """All admissible index tuples b, as the rows of a (T, m) array in
    lexicographic order: b_p in {1..n+m+1-i_p}, entries pairwise distinct.
    """
    b = np.zeros((1, 0), dtype=int)
    for ip in ipos:
        col = np.arange(1, n + m + 2 - ip)
        b = np.column_stack([np.repeat(b, len(col), axis=0),
                             np.tile(col, len(b))])
        b = b[np.all(b[:, :-1] != b[:, -1:], axis=1)]
    return b


def inversion_counts(b):
    """Inversions of (b_1..b_m, complement ascending), one per row of b:
    those within b, plus the b_p - 1 - #{q : b_q < b_p} complement entries
    below each b_p, which sum to sum_p (b_p - 1) - m(m-1)/2."""
    m = b.shape[1]
    p, q = np.triu_indices(m, 1)
    return (np.sum(b[:, p] > b[:, q], axis=1) + np.sum(b - 1, axis=1)
            - m * (m - 1) // 2)


def _extended_params(v_roots, zetas):
    """v_1..v_n followed by v_{n+j} = z_{m+1-j}, j = 1..m."""
    return list(v_roots) + list(zetas)[::-1]


def norm_root(u_set):
    """||u||, the square root of the state's own norm N = norm_det(u_set):
    (-1)^{k n} (i omega)^n sqrt((-1)^n N / omega^{2n}), principal root.

    (-1)^n N / omega^{2n} is a positive real on every state measured, so
    the root needs no partner state.  The sign (-1)^{k n} is
    calibrate_norm_signs(u_set), so a Bethe-basis element carries it for
    each of its two states.  N depends on the roots only and norm_det
    keeps it in the memo; the root reads the twist label and is not.
    """
    nrm = norm_det(u_set)
    n = u_set.n
    w_n = u_set.omega_pow(n)
    return (calibrate_norm_signs(u_set) * 1j ** n * w_n
            * cmath.sqrt((-1.0) ** n * nrm / w_n ** 2))


def calibrate_norm_signs(u_set):
    """Sign of the norm root of one state: the finite rule (-1)^{k n},
    n = N/2.

    The square root of a (complex) state norm carries a sign freedom that
    cancels in every diagonal quantity but enters elements between
    different ground states.  norm_root fixes the branch within a state;
    this rule fixes the sign between the k sectors, so every Bethe-basis
    element carries (-1)^{k n} per state.  At odd L it picks the sign
    nearer the thermodynamic one-point value of the pair on every case
    measured ((L, r) = (3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (7, 2),
    (7, 3) at N = 4-16, (3, 1) up to N = 48); tests/test_matel.py keeps
    that comparison as an oracle.
    """
    return (-1.0) ** (u_set.k * u_set.n)


def _omega_ratio_pow(u_set, v_set, z):
    """(omega_v / omega_u)^z on the fixed branches."""
    return np.exp(np.asarray(z) * (v_set.log_omega - u_set.log_omega))


def mpme_bruteforce(u_set, v_set, path, a1):
    """Dense-operator route for the normalized multi-point matrix element:
    the 1 x 1 case of _dense_table."""
    return _dense_table(path, a1, [u_set], [v_set])[0][0]


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


def _mean_value_pair(u_set, v_set):
    """Whether the pair takes the mean-value kernel: True for coinciding
    root sets, on which the kernel reads {v}'s roots and d for {u}'s.

    Twist partners omega_u = -omega_v share their root set (the Bethe
    equations see only omega^2); the mean-value kernel applies because the
    twist ratio enters it squared.  It needs the representatives to
    coincide too: at r = L - 1 two labels share omega and a root set
    shifted by one lattice unit per root, and are two states.  A partial
    overlap has no determinant representation here.  _det_table divides by
    the norm roots of the caller's own states, so the elements carry
    (-1)^{k n} per state as every Bethe-basis element does.
    """
    kind = root_collision(u_set, v_set)
    if kind == "partial":
        raise DegenerateConfigError(
            "partially coinciding Bethe root sets are not supported by the "
            "determinant representation")
    if kind == "distinct":
        return False
    if (abs(u_set.sum_x() - v_set.sum_x()) > 1e-9
            or abs((v_set.omega / u_set.omega) ** 2 - 1.0) > 1e-8):
        raise DegenerateConfigError("coinciding root sets with shifted "
                                    "representatives or different omega^2")
    return True


def _mean_value_kernel(gamma, v_sets, a2, a4):
    """Mean-value ({u} = {v}) replacement for the transformed kernel, for
    right states v_sets of one family: the Gaudin diagonal less 2[1]'/[1],
    plus the kernel of _h_transformed at t = gamma, w = 1, one matrix per
    row of the coefficients, stacked on a leading axis of states; one
    bracket call for all of them."""
    v = np.array([v_set.v for v_set in v_sets])[:, None, :]
    params = v_sets[0].params
    *brs, b1 = params.brackets(*_h_kernel_args(gamma, v[..., :, None]
                                               - v[..., None, :]), 1.0)
    diag = (np.diagonal(np.array([got["gaudin"] for got in _measure(v_sets)]),
                        axis1=-2, axis2=-1)[:, None, :]
            - 2.0 * params.bracket_prime1 / b1)
    return np.eye(v.shape[-1]) * diag[..., None] + _h_kernel(brs, a2, a4,
                                                            params)


def algebraic_factor_G(b, inv, a1, v_sets, zetas, alphas, lams):
    """The prefactors G_b for the tuple rows of b with inversion counts inv,
    as far as they depend on the right state, the path and the height, for
    right states v_sets of one family stacked on a leading axis:
    (c, num, den), with G_b = lead_u num_b / den_b for a left state u and
    lead_u = c[0] (omega_v/omega_u)^s prod_j d(u_j)/d(v_j) / c[1] / c[2]
    (_g_lead).  num and den are gathered from an (m, n+m) table of
    single-slot factors (the lambda factor of a path-argument index in its
    last m columns) and an (n+m, n+m) table of pair brackets
    [v_i - v_j + 1], one of each per state.  lams = (lam+, lam-) holds
    lambda_pm(zeta_j, v) of each state, one row per state."""
    n, m = v_sets[0].n, len(zetas)
    params = v_sets[0].params
    s = params.height(a1)
    ipos, n_minus = slot_positions(alphas)
    ip = np.asarray(ipos, dtype=int) - 1          # path position of a slot
    z = np.asarray(zetas, dtype=complex)
    v_ext = np.array([_extended_params(v_set.v, zetas) for v_set in v_sets],
                     dtype=complex)[:, None, :]
    part = np.cumsum((0,) + tuple(alphas))[ip]    # a_1 + ... + a_{i_p - 1}
    zv = z[:, None] - v_ext
    rel = np.arange(m)[None, :, None] - ip[:, None, None]   # l - i_p
    a_ip = np.asarray(alphas, dtype=float)[ip][:, None, None]
    # [z_l - v_k], the slot factors, the pair table [v_i - v_j + 1]
    bzv, bnum, bden, bzva, pair = params.brackets(
        zv, s + part[:, None] + v_ext - z[ip][:, None], s + part,
        zv[:, None] + a_ip, v_ext[:, 0, :, None] - v_ext + 1)
    single = (bnum / bden[:, None]
              * np.prod(np.where(rel < 0, bzv[:, None], 1.0), axis=2)
              * np.prod(np.where(rel > 0, bzva, 1.0), axis=2))
    # v_{n+j} = zeta_{m+1-j}: lam- on a minus slot, lam+ on a plus slot
    single[..., n:] *= np.where(np.arange(m)[:, None] < n_minus,
                                lams[1][:, None], lams[0][:, None])[..., ::-1]
    p, q = np.triu_indices(m, 1)
    # numpy orders a reduction by the operands' strides, and a product or
    # sum rounds differently taken along the fast axis than across it.  A
    # gather behind the leading state axis comes out state-fastest, so each
    # is reduced in the layout one state's gather has: C order for the
    # slot factors and [z_p - z_q]; tuple-fastest for the pair brackets,
    # (T, pairs) on one state, kept as (pairs, K, T) for K
    c = ((-1.0) ** (m * n + n_minus), np.prod(lams[0] - lams[1], axis=-1),
         np.prod(np.ascontiguousarray(bzv[:, p, n + m - 1 - q]), axis=-1))
    num = np.prod(np.ascontiguousarray(single[:, np.arange(m), b - 1]),
                  axis=-1)
    den = np.prod(np.ascontiguousarray(np.moveaxis(
        pair[:, b[:, p].T - 1, b[:, q].T - 1], 0, 1)), axis=0)
    return c, (-1.0) ** inv * num, den


def _g_lead(c, u_set, v_set, s, d_ratio):
    """The left-state factor lead_u of algebraic_factor_G, c the factors of
    v_set and d_ratio the left roots' d over v_set's d at its own roots.
    Scalar arithmetic in this order keeps each element's rounding, bit for
    bit, that of the formula evaluated for its pair alone."""
    return (c[0] * _omega_ratio_pow(u_set, v_set, s)
            * np.prod(d_ratio) / c[1] / c[2])


def _roots_on_path(states, zetas):
    """Whether a root x of each state sits on a path argument z or on
    z +- 1 (|[x - z]|, |[x - z +- 1]| < 1e-10), where the path block Q of
    the determinant representation is singular at every gamma: one bracket
    call for all the states."""
    xz = np.array([st.v for st in states])[:, :, None] - np.asarray(
        zetas, dtype=complex)
    brs = states[0].params.brackets(xz, xz + 1, xz - 1)
    return np.any(np.abs(brs) < 1e-10, axis=(0, 2, 3))


def _table_kernel(rights, path, a1, zetas, reduction="m"):
    """The determinant representation against the right states of one
    table, all at once.

    What depends on {v}, the path and the height only is built here, once
    for all right states, each builder on one stacked bracket call:
    lambda_pm, the tuples and the {v} part of their factors G_b; the Gaudin
    determinants and d at the roots are read from the states' measures
    (bethe._measure).  The function returned,
    elements(pairs, same, gamma), evaluates a stack of pairs at one gamma,
    every builder on one stacked bracket call.  A pair is (u_set, j): the
    left state and the index of its right state in `rights`; where the
    flag in the boolean array `same` is set (_mean_value_pair) the kernel
    takes the right state's roots and d for the left state's.  It returns
    the elements before the norm roots and the mask `pole` of the pairs on
    a pole of this gamma, which have no value.  Pairs with a root on a
    path argument (_roots_on_path) are the caller's to leave out.
    reduction='m' reduces each tuple to m x m determinants through one
    stacked solve, reduction='n' takes the mixed n x n determinants.
    """
    params = rights[0].params
    n, m, L = rights[0].n, path.m, params.L
    alphas = path.alphas
    s = params.height(a1)
    z = np.asarray(zetas, dtype=complex)
    v = np.array([v_set.v for v_set in rights])
    sum_v = np.sum(v, axis=1)
    measures = _measure(rights)
    det_phi = np.array([got["det"] for got in measures])
    d_v = [got["d"] for got in measures]
    lams = _lambda_pm_rows(z, rights)
    v_ext = np.array([_extended_params(row, zetas) for row in v],
                     dtype=complex)
    b = enumerate_tuples(n, m, slot_positions(alphas)[0])
    inv = inversion_counts(b)
    g_c, g_num, g_den = algebraic_factor_G(b, inv, a1, rights, zetas,
                                           alphas, lams)
    # the tuples whose factor vanishes for every right state: those of a
    # vanishing lambda (lam+ on an upward step, lam- on a downward one)
    nz = np.any(g_num != 0.0, axis=0)
    b, inv, g_num, g_den = b[nz], inv[nz], g_num[:, nz], g_den[:, nz]
    keep_sum = (sum_v[:, None] + sum(zetas)
                - np.sum(np.ascontiguousarray(v_ext[:, b - 1]), axis=-1))
    # index b <= n picks a root row of S (column of H), b > n the path
    # argument zeta_{n+m+1-b}: a reversed identity row (reversed Q column)
    if reduction == "m":
        sign = (-1.0) ** (m * (n + 1) + m * (m - 1) // 2 + inv)
        ax, idx = 2, b - 1
    else:
        free = ~np.any(b[:, :, None] - 1 == np.arange(n + m), axis=1)
        ax, idx = 3, np.nonzero(free)[1].reshape(len(b), n)
    # appendix-B coefficients, a row per sector nu: (1, q^-nu, w^2, q^nu w^2)
    # for H, (lam+, lam+ q^-nu, lam- w^2, lam- w^2 q^nu) for Q, w = omega_v/
    # omega_u; a vanishing lambda (lam+ on an upward step) zeroes two terms.
    # _cmul rounds an array product as the scalar product of one sector.
    one = np.ones((L, 1))
    qm, qp = _sector_q_powers(params)

    def elements(pairs, same, gamma):
        col = np.array([j for _, j in pairs])
        u = np.where(same[:, None], v[col],
                     np.array([us.v for us, _ in pairs]))
        su = np.sum(u, axis=1)
        bt0, bs, den = params.brackets(
            su - sum_v[col] + gamma, s,
            su[:, None] - keep_sum[col] + gamma + s)
        pole = (np.abs(bt0) < 1e-13) | np.any(np.abs(den) < 1e-13, axis=1)
        vals = np.zeros(len(pairs), dtype=complex)
        live = ~pole
        if not live.any():
            return vals, pole
        u, col, same = u[live], col[live], same[live]
        bt0, den = bt0[live], den[live]
        pairs = [pair for pair, ok in zip(pairs, live) if ok]
        P = len(pairs)
        twist = twist_weights(s, gamma, params)
        w2 = np.array([_omega_ratio_pow(us, rights[j], 2.0)
                       for us, j in pairs])[:, None, None]
        lam_p = lams[0][col][:, None, :]
        lam_m = lams[1][col][:, None, :] * w2
        q_mats = _q_transformed(gamma, u[:, None, :], v[col][:, None, :], z,
                                (lam_p, lam_p * qm, lam_m, lam_m * qp),
                                params)
        base = np.empty((P, L, n, n), dtype=complex)
        if same.any():
            cols, at = np.unique(col[same], return_inverse=True)
            base[same] = _mean_value_kernel(
                gamma, [rights[j] for j in cols], qm, qp)[at]
        if not same.all():
            a3 = one * w2[~same]
            base[~same] = _h_transformed(
                gamma, u[~same][:, None, :], v[col[~same]][:, None, :],
                (one, qm, a3, _cmul(a3, qp)), params)
        base_dets = np.linalg.det(base)
        lead = np.array([_g_lead((g_c[0], g_c[1][j], g_c[2][j]), us,
                                 rights[j], s,
                                 (d_v[j] if mean else _own_d(us)) / d_v[j])
                         for (us, j), mean in zip(pairs, same)])
        gb = lead[:, None] * g_num[col] / g_den[col]
        # [s][t0] and [0]'/[t] of the builders round as scalar products
        pre = _cmul(bt0, bs)[:, None] / (params.bracket_prime0 * den)
        if reduction == "m":
            ext = np.concatenate([np.linalg.solve(base, q_mats),
                                  np.broadcast_to(-np.eye(m)[::-1],
                                                  (P, L, m, m))], axis=2)
            fac = sign[:, None] * base_dets[:, None, :]
        else:
            ext = np.concatenate([base, q_mats[..., ::-1]], axis=-1)
            fac = np.ones((P, len(b), L))
        norm = (L * det_phi[col])[:, None]
        # pairs x tuples per determinant stack: at most TUPLE_BLOCK
        step = max(1, TUPLE_BLOCK // P)
        terms = np.empty((P, len(b)), dtype=complex)
        for lo in range(0, len(b), step):
            blk = slice(lo, lo + step)
            dets = np.linalg.det(np.moveaxis(np.take(ext, idx[blk], ax),
                                             ax, 1))
            det_h = _cmul(fac[:, blk], dets)
            terms[:, blk] = (gb[:, blk] * pre[:, blk]
                             * np.sum(_cmul(det_h, twist), axis=-1) / norm)
        vals[live] = np.sum(terms, axis=1)
        return vals, pole

    return elements


def _with_draws(elements, pairs, same, params, gamma=None):
    """elements(pairs, same, gamma) under gamma_retry's rule, pair by pair:
    each pair takes the first default draw at which it has no pole, so a
    pole redraws only its own pair.  An explicit gamma is the only draw."""
    vals = np.empty(len(pairs), dtype=complex)
    todo = np.arange(len(pairs))

    def draw(g):
        nonlocal todo
        got, pole = elements([pairs[p] for p in todo], same[todo], g)
        vals[todo[~pole]] = got[~pole]
        todo = todo[pole]
        if todo.size:
            raise PoleError("[|u|-|v|+gamma] or a b-dependent prefactor "
                            "vanishes; redraw gamma")

    gamma_retry(draw, params, gamma)
    return vals


def mpme_det(u_set, v_set, path, a1, gamma=None, reduction="m"):
    """Determinant representation of the normalized matrix element: the
    1 x 1 case of _det_table, with no dense fallback: a pair the route
    refuses raises the DegenerateConfigError the table records."""
    table, refused = _det_table(path, a1, [u_set], [v_set], gamma, reduction)
    if refused:
        raise refused[0, 0]
    return table[0][0]


def _det_table(path, a1, lefts, rights, gamma=None, reduction="m"):
    """E[i][j] = <lefts[i]| path |rights[j]> / (||u|| ||v||) on the
    determinant route: det_route_zetas once per path, the measures
    (bethe._measure) and the root-on-path mask once per distinct state,
    _mean_value_pair once per pair, and one _table_kernel for all right
    states, whose elements run over all pairs as one stack.  Returns the
    table, None at each refused pair, and a dict mapping each refused pair
    (i, j) to its DegenerateConfigError."""
    table = [[None] * len(rights) for _ in lefts]
    try:
        zetas = det_route_zetas(path, rights[0].config, rights[0].params)
    except DegenerateConfigError as exc:
        return table, {(i, j): exc for i in range(len(lefts))
                       for j in range(len(rights))}
    states = list({id(st): st for st in lefts + rights}.values())
    _measure(states)
    roots = {id(st): norm_root(st) for st in states}
    on_path = dict(zip(map(id, states), _roots_on_path(states, zetas)))
    refused, found = {}, []
    for j, v_set in enumerate(rights):
        for i, u_set in enumerate(lefts):
            try:
                same = _mean_value_pair(u_set, v_set)
            except DegenerateConfigError as exc:
                refused[i, j] = exc
                continue
            if on_path[id(v_set)] or on_path[id(u_set)] and not same:
                refused[i, j] = DegenerateConfigError(
                    "a Bethe root sits on a path argument z or on z +- 1, "
                    "where the path block of the determinant representation "
                    "is singular")
            else:
                found.append((i, j, same))
    if not found:
        return table, refused
    cols = sorted({j for _, j, _ in found})
    kernel = _table_kernel([rights[j] for j in cols], path, a1, zetas,
                           reduction)
    vals = _with_draws(kernel, [(lefts[i], cols.index(j))
                                for i, j, _ in found],
                       np.array([same for *_, same in found]),
                       rights[0].params, gamma)
    for (i, j, _), val in zip(found, vals):
        table[i][j] = val * (roots[id(rights[j])] / roots[id(lefts[i])])
    return table, refused


def _dense_table(path, a1, lefts, rights):
    """E[i][j] = <lefts[i]| path |rights[j]> / (||u|| ||v||) by dense
    operator application: each right state's Bethe vector goes through the
    path operators and the height projector once, and pairs with each left
    state's covector, built once and counted with a sweep's six arrays
    before any vector is built.  The gauge scales every R-factor by
    [u - xi_k + 1], so upward steps (arguments xi_i - 1) stay finite; the
    matching scaled eigenvalue divides each element.  The table's distinct
    states are measured in one pass (bethe._measure)."""
    config, params = rights[0].config, rights[0].params
    zetas = path.check_zetas(config, params)[0]
    _guard_bytes(16 * params.L * (len(lefts) + 6) << config.N,
                 f"dense table refused: N={config.N}, {len(lefts)} covectors")
    _measure(list({id(st): st for st in lefts + rights}.values()))
    covectors = [bethe_vector(u_set, side="left") for u_set in lefts]
    norms = [norm_root(u_set) for u_set in lefts]
    table = [[None] * len(rights) for _ in lefts]
    for j, v_set in enumerate(rights):
        state = bethe_vector(v_set, side="right")
        denom = 1.0 + 0.0j
        for k in range(path.m - 1, -1, -1):
            entry = "A" if path.alphas[k] == 1 else "D"
            state = monodromy_entry_apply(entry, zetas[k], state, scaled=True)
            denom *= scaled_eigenvalue(zetas[k], v_set)
        state = local_operator_apply("delta", state, i=1, a=a1)
        norm_v = norm_root(v_set)
        for row, covector, norm_u in zip(table, covectors, norms):
            row[j] = covector.dot(state) / denom / (norm_u * norm_v)
    return table


# ---------------------------------------------------------------------------
# Appendix-B transformation: the H and Q builders of _table_kernel
# ---------------------------------------------------------------------------


def _h_kernel_args(t, dv):
    """Bracket arguments of _h_kernel, dv = v_j - v_k: t, dv + t + 1, dv + 1,
    dv + t - 1 and dv - 1."""
    return t, dv + t + 1, dv + 1, dv + t - 1, dv - 1


def _h_kernel(brs, a2, a4, params):
    """[0]'/[t] (a2_k [v_j - v_k + t + 1]/[v_j - v_k + 1]
    - a4_k [v_j - v_k + t - 1]/[v_j - v_k - 1]), the part of the transformed
    kernel its mean-value form shares, from the brackets brs of
    _h_kernel_args (coefficients as in _h_transformed)."""
    bt, bpt, bp, bmt, bm = brs
    a2, a4 = np.expand_dims(a2, -2), np.expand_dims(a4, -2)
    return _cdiv(params.bracket_prime0, bt) * (a2 * bpt / bp - a4 * bmt / bm)


def _distinct_rows(v):
    """The root sets among the rows of v with each run of equal rows taken
    once, a (D, n) array, and the index into it of each row, in v's leading
    shape: the builders take the brackets of {v} alone once per run, which
    is once per right state for pairs in column order, not once per pair."""
    flat = v.reshape(-1, v.shape[-1])
    start = np.ones(len(flat), dtype=bool)
    start[1:] = np.any(flat[1:] != flat[:-1], axis=1)
    return flat[start], (np.cumsum(start) - 1).reshape(v.shape[:-1])


def _h_transformed(gamma, u, v, alup, params):
    """Transformed kernel H.  Each coefficient in alup = (a1, a2, a3, a4)
    holds one value per column on its last axis (length 1 or n); its
    leading axes stack the twist sectors, one n x n matrix each.  The
    leading axes of u and v, one root set per state, broadcast against
    each other and against the coefficients' leading axes: u and v of
    shape (P, 1, n), one pair per row, against (P, L, 1) coefficients give
    a (P, L, n, n) stack."""
    a1, a2, a3, a4 = alup
    n = v.shape[-1]
    vd, at = _distinct_rows(v)
    t = (np.sum(u - v, axis=-1) + gamma)[..., None, None]
    uv = u[..., :, None] - v[..., None, :]
    dvd = vd[:, :, None] - vd[:, None, :]
    dv = dvd[at]
    # the brackets of _h_kernel (_h_kernel_args), of which [dv + 1] and
    # [dv - 1] depend on v alone, as does prod_{k != j} [v_j - v_k] over the
    # off-diagonal dv, row by row
    bt, bpt, bmt, buvp, buvm, bvu, bp, bm, boff = params.brackets(
        t, dv + t + 1, dv + t - 1, uv + 1, uv - 1,
        v[..., :, None] - u[..., None, :], dvd + 1, dvd - 1,
        dvd[:, ~np.eye(n, dtype=bool)].reshape(-1, n, n - 1))
    pp = np.prod(buvp, axis=-2) / np.prod(bp, axis=-2)[at]
    pm = np.prod(buvm, axis=-2) / np.prod(bm, axis=-2)[at]
    num = np.prod(boff, axis=-1)[at]
    den = np.prod(bvu, axis=-1)
    diag = params.bracket_prime0 * num / den * (a1 * pp - a3 * pm)
    return np.eye(n) * diag[..., None] + _h_kernel(
        (bt, bpt, bp[at], bmt, bm[at]), a2, a4, params)


def _q_transformed(gamma, u, v, zetas, bet, params):
    """Path block Q, one column per argument in zetas; the coefficients
    bet = (b1, b2, b3, b4) and the leading axes of u and v are laid out as
    in _h_transformed.  Q is singular where a root of u or v sits on an
    argument z or on z +- 1, pairs that _det_table refuses."""
    b1, b2, b3, b4 = (np.expand_dims(b, -2) for b in bet)
    vd, at = _distinct_rows(v)
    t = (np.sum(u - v, axis=-1) + gamma)[..., None, None]
    vz = v[..., :, None] - zetas
    uz = u[..., :, None] - zetas
    vzd = vd[:, :, None] - zetas
    bt, buz, bvzt, buzp, buzm, bvztp, bvztm, *bvs = params.brackets(
        t, uz, vz + t, uz + 1, uz - 1, vz + t + 1, vz + t - 1, vzd, vzd + 1,
        vzd - 1)
    bvz, bvzp, bvzm = (br[at] for br in bvs)
    prod_p = np.prod(bvz / buz * buzp / bvzp, axis=-2, keepdims=True)
    prod_m = np.prod(bvz / buz * buzm / bvzm, axis=-2, keepdims=True)
    return _cdiv(params.bracket_prime0, bt) * (
        b2 * bvztp / bvzp - b1 * bvzt / bvz * prod_p
        - b4 * bvztm / bvzm + b3 * bvzt / bvz * prod_m)


# ---------------------------------------------------------------------------
# finite-size local height probabilities
# ---------------------------------------------------------------------------

def flat_labels(params):
    """The flat-basis labels (eps, t), in report order."""
    return [(eps, t) for eps in (0, 1) for t in range(params.L - params.r)]


def flat_basis_phases(eps, t_label, params):
    """Coefficients of the discrete Fourier change to the flat-state basis."""
    Lr = params.L - params.r
    return {(k, ell): ((-1.0) ** (k * eps)
                       * np.exp(-1j * math.pi * (params.r * k + 2 * ell)
                                * (t_label + params.s0) / Lr))
            for k in (0, 1) for ell in range(Lr)}


def flat_matrix_element(path, ground_states, method="det"):
    """The path operator in the flat-state basis: the K x K matrix F whose
    rows and columns follow flat_labels, K = 2(L - r).

    The pair table E over the ground states (_pair_table) is built once.
    With Phi[l, u] the phase of state u in label l (flat_basis_phases),
    F = (1/Phi) E Phi^T / K, the inverse taken entry by entry: the phases
    are not unimodular at complex s0.  The rotation is an asymptotic
    (large-N) construction.
    """
    params = next(iter(ground_states.values())).params
    rows = [flat_basis_phases(*label, params) for label in flat_labels(params)]
    states = [ground_states[u] for u in rows[0]]
    phi = np.array([[row[u] for u in rows[0]] for row in rows])
    table = np.array(_pair_table(path, states, states, method))
    return (1.0 / phi) @ table @ phi.T / len(states)


def _pair_table(path, lefts, rights, method):
    """E[i][j] = <lefts[i]| path |rights[j]> times the anchor factor, as
    nested lists: the one router of pair elements.  method='det' takes
    _det_table and one _dense_table pass over only the rows and columns
    that hold the pairs it refuses; method='brute' takes _dense_table.
    """
    if method not in ("det", "brute"):
        raise ValueError(f"method must be 'det' or 'brute', got {method!r}")
    a1 = path.heights[0]
    table, refused = (_det_table(path, a1, lefts, rights) if method == "det"
                      else (_dense_table(path, a1, lefts, rights), {}))
    if refused:
        rows, cols = (sorted(set(axis)) for axis in zip(*refused))
        dense = _dense_table(path, a1, [lefts[i] for i in rows],
                             [rights[j] for j in cols])
        for i, j in refused:
            table[i][j] = dense[rows.index(i)][cols.index(j)]
    left, right = ([_anchor_weight(path, roots) for roots in states]
                   for states in (lefts, rights))
    return [[val * (fu / fv) for val, fv in zip(row, right)]
            for row, fu in zip(table, left)]


def finite_lhp(path, basis, ground_states, method="det"):
    """Finite-size LHP for a path, in the Bethe or the flat-state basis.

    basis = ("bethe", k1, l1, k2, l2) or ("flat", eps, t).
    ground_states maps (k, ell) -> BetheRootSet.
    """
    if basis[0] == "bethe":
        _, k1, l1, k2, l2 = basis
        return _pair_table(path, [ground_states[(k1, l1)]],
                           [ground_states[(k2, l2)]], method)[0][0]
    if basis[0] != "flat":
        raise ValueError("basis must be 'bethe' or 'flat'")
    params = next(iter(ground_states.values())).params
    row = flat_labels(params).index(tuple(basis[1:]))
    return flat_matrix_element(path, ground_states, method)[row, row]


def _anchor_weight(path, roots):
    """F(s) = prod_k tau_s(w_k) prod_l tau_s(xi_l) over the columns and
    rows before the path's anchor (1 at (1, 1)); a pair's anchor factor,
    for paths not anchored at (1, 1), is F(u)/F(v)."""
    i1, j1 = path.anchor
    config = roots.config
    fac = 1.0 + 0.0j
    for s in config.w[:j1 - 1] + config.xi[:i1 - 1]:
        fac *= eigenvalue_tau(s, roots)
    return fac
