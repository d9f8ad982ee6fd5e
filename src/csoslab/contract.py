"""The lab's contract: each identity and determinant formula of the paper
against an independent check, within its own pinned tolerance.

`TOL` has one row per residual name: the rows of the identity suites
(`SUITES`, which `csoslab identities` runs), each at most 100x above its
worst residual over seeds 1-20 and the acceptance seeds, and the
`acceptance` rows of the finite-size criteria.  A row of 0 is exact.
The module also holds the checks and formulas that no production route
calls: the identity residuals, the oracle forms of the appendix C and D
quantities, the partial scalar products, and the oracles of the
finite-size formulas.
"""

import cmath
import math

import numpy as np

from .elliptic import (DegenerateConfigError, EllipticDomainError,
                       ModelParams, PoleError, _JACOBI_PARTNER, stacked,
                       theta, theta_log)
from .lattice import (LatticeConfig, StateVector, _dense_from_apply,
                      _entries_batch, _local_batch, guard_dense,
                      homogeneous_config, local_operator_apply,
                      monodromy_entry_apply, monodromy_entry_dense)
from .bethe import (_check_kappa, _log_ratio_odd, _phi_weights,
                    all_ground_states, density_fourier, eigenvalue_tau,
                    momentum_shifts, p0_tot)
from .scalar import _own_d, _sector_q_powers, gamma_retry, twist_weights
from .matel import (AdjacentPath, _dense_table, _det_table,
                    _extended_params, _h_transformed, _q_transformed,
                    det_route_zetas, enumerate_tuples, flat_basis_phases,
                    mpme_det, norm_root, slot_positions, vertical_path)
from .thermo import _exp_clamped, _theta1_prime0, one_point_barP

FOURIER_MODES = 400

# each identity row's comment is its worst residual over seeds 1-20, 7 at
# 10 and 25 draws, 3 at 10 draws, and the acceptance seeds 101-108
TOL = {
    "elliptic": {
        "jacobi": 1e-11,                  # 4.8e-13
        "periods": 2e-13,                 # 6.8e-15
        "periods_unscaled": 1e-10,        # 6.2e-12, Im z, Im tau <= 0.6, 1.2
        "schroter_L3_r1": 2e-13,          # 5.2e-15
        "schroter_L5_r2": 5e-13,          # 1.2e-14
        "id_sum1_n2": 5e-13,              # 1.2e-14
        "id_sum2_n2": 1e-12,              # 3.6e-14
        "id_sum1_n3": 5e-13,              # 2.2e-14
        "id_sum2_n3": 5e-12,              # 1.4e-13
        "id_sum1_n4": 2e-13,              # 5.8e-15
        "id_sum2_n4": 2e-11,              # 9.7e-13
        "id_sum1_n5": 2e-13,              # 6.3e-15
        "id_sum2_n5": 1e-11,              # 2.6e-13
        "id_sum1_n6": 2e-13,              # 7.0e-15
        "id_sum2_n6": 5e-12,              # 1.5e-13
        "frobenius_n2": 5e-13,            # 1.2e-14
        "frobenius_n3": 5e-12,            # 1.3e-13
    },
    "lattice": {
        "yang_baxter": 5e-11,             # 1.2e-12
        "transfer_commutator": 1e-12,     # 3.8e-14
        "inverse_problem_E": 5e-14,       # 1.9e-15
        "inverse_problem_delta": 5e-14,   # 1.9e-15
    },
    "appendixB": {
        "transform_n2_m1": 2e-13,         # 9.8e-15
        "transform_n3_m2": 2e-12,         # 5.7e-14
        "det_X": 1e-11,                   # 6.1e-13
    },
    "appendixC": {
        "fredholm_base": 5e-15,           # 1.4e-16
        "fredholm_XY": 5e-14,             # 1.9e-15
        "fredholm_ratio": 5e-14,          # 1.4e-15
        "resolvent_residue": 2e-14,       # 6.7e-16
        "resolvent_equation": 2e-13,      # 6.6e-15
        "kernel_fourier": 1e-13,          # 2.7e-15
    },
    "appendixD": {
        "nu_vs_closed_L3": 1e-13,         # 2.5e-15
        "normalization_L3": 5e-14,        # 1.2e-15
        "nu_vs_closed_L4": 5e-14,         # 2.1e-15
        "normalization_L4": 5e-14,        # 1.6e-15
        "parity_zero_L4": 0.0,            # exact
    },
    # fixed inputs (see _suite_oracle): each comment is the one measured
    # gap, det against dense, relative to the family's largest element;
    # the N = 6 rows are the largest 1-2-5 value at most 50x their gap
    "oracle": {
        "L2_r1_m0": 1e-14,                # 2.7e-16
        "L2_r1_m1": 1e-14,                # 2.4e-16
        "L3_r1_m0": 2e-13,                # 5.1e-15
        "L3_r1_m1": 2e-13,                # 5.1e-15
        "L3_r2_m0": 5e-13,                # 1.3e-14
        "L3_r2_m1": 5e-12,                # 1.1e-13
        "L4_r1_m0": 1e-13,                # 2.8e-15
        "L4_r1_m1": 1e-13,                # 2.4e-15
        "L4_r3_m0": 2e-14,                # 5.6e-16
        "L4_r3_m1": 1e-13,                # 3.7e-15
        "L5_r1_m0": 1e-12,                # 2.6e-14
        "L5_r1_m1": 5e-13,                # 1.4e-14
        "L5_r2_m0": 2e-12,                # 4.1e-14
        "L5_r2_m1": 5e-13,                # 1.8e-14
        "L5_r3_m0": 5e-13,                # 1.3e-14
        "L5_r3_m1": 2e-12,                # 8.7e-14
        "L5_r4_m0": 2e-13,                # 4.7e-15
        "L5_r4_m1": 5e-12,                # 1.3e-13
        "L6_r1_m0": 2e-13,                # 4.9e-15
        "L6_r1_m1": 2e-13,                # 5.2e-15
        "L6_r5_m0": 5e-15,                # 1.3e-16
        "L6_r5_m1": 2e-14,                # 7.8e-16
        "L7_r1_m0": 5e-13,                # 1.0e-14
        "L7_r1_m1": 2e-13,                # 6.1e-15
        "L7_r2_m0": 2e-13,                # 5.5e-15
        "L7_r2_m1": 1e-13,                # 2.9e-15
        "L7_r3_m0": 5e-13,                # 1.2e-14
        "L7_r3_m1": 2e-13,                # 7.3e-15
        "L7_r4_m0": 2e-13,                # 4.2e-15
        "L7_r4_m1": 5e-13,                # 1.6e-14
        "L7_r5_m0": 2e-12,                # 6.2e-14
        "L7_r5_m1": 1e-10,                # 2.3e-12
        "L7_r6_m0": 1e-12,                # 2.3e-14
        "L7_r6_m1": 5e-12,                # 1.8e-13
        "L2_r1_m0_N6": 2e-14,             # 7.7e-16
        "L2_r1_m1_N6": 2e-14,             # 6.0e-16
        "L3_r1_m0_N6": 2e-13,             # 6.6e-15
        "L3_r1_m1_N6": 2e-13,             # 7.2e-15
        "L3_r2_m0_N6": 5e-13,             # 1.7e-14
        "L3_r2_m1_N6": 1e-12,             # 3.2e-14
        "L4_r1_m0_N6": 5e-13,             # 1.1e-14
        "L4_r1_m1_N6": 5e-13,             # 1.0e-14
        "L4_r3_m0_N6": 2e-14,             # 8.7e-16
        "L4_r3_m1_N6": 2e-13,             # 7.1e-15
        "L5_r1_m0_N6": 2e-13,             # 5.3e-15
        "L5_r1_m1_N6": 1e-13,             # 2.6e-15
        "L5_r2_m0_N6": 5e-13,             # 1.7e-14
        "L5_r2_m1_N6": 5e-13,             # 1.1e-14
        "L5_r3_m0_N6": 2e-12,             # 4.9e-14
        "L5_r3_m1_N6": 1e-11,             # 2.4e-13
        "L5_r4_m0_N6": 1e-12,             # 2.1e-14
        "L5_r4_m1_N6": 1e-11,             # 2.7e-13
        "L6_r1_m0_N6": 2e-12,             # 7.8e-14
        "L6_r1_m1_N6": 2e-12,             # 6.0e-14
        "L6_r5_m0_N6": 1e-14,             # 3.6e-16
        "L6_r5_m1_N6": 2e-14,             # 8.9e-16
        "L7_r1_m0_N6": 2e-13,             # 4.4e-15
        "L7_r1_m1_N6": 1e-13,             # 3.6e-15
        "L7_r2_m0_N6": 1e-12,             # 2.8e-14
        "L7_r2_m1_N6": 5e-13,             # 1.2e-14
        "L7_r3_m0_N6": 5e-13,             # 1.1e-14
        "L7_r3_m1_N6": 2e-13,             # 6.4e-15
        "L7_r4_m0_N6": 1e-12,             # 3.1e-14
        "L7_r4_m1_N6": 2e-12,             # 6.0e-14
        "L7_r5_m0_N6": 1e-12,             # 2.5e-14
        "L7_r5_m1_N6": 2e-11,             # 4.6e-13
        "L7_r6_m0_N6": 1e-12,             # 3.1e-14
        "L7_r6_m1_N6": 5e-12,             # 1.4e-13
    },
    # finite-size checks of the acceptance suite, and its time budgets
    "acceptance": {
        "elliptic_s": 10.0,             # criterion 1
        "eigenstate": 1e-8,             # criterion 3
        "root_separation": 1e-4,        # a lower bound
        "bethe_s": 30.0,
        "norm_vs_dense": 1e-8,          # criterion 4
        "partial_scalar": 1e-8,
        "gamma_independence": 1e-9,
        "mpme_vs_dense": 1e-7,          # criterion 6
        "reduction": 1e-9,
        "reduction_median": 1e-12,
        "flat_imag": 1e-10,             # criterion 9
        "flat_negative": 1e-12,
        "flat_reached": 1e-11,
        "finite_to_thermo_s": 600.0,    # criterion 10
        "marginal_finite": 1e-7,        # criterion 11
        "marginal_floor": 1e-10,
    },
}


def rows(suite, override=None):
    """The tolerance rows of one suite; `override` replaces every row but
    the exact ones."""
    return {name: row if override is None or row == 0.0 else override
            for name, row in TOL[suite].items()}


def within(value, row):
    """A residual passes strictly below its row, or at 0 on an exact row."""
    return value == 0.0 if row == 0.0 else value < row


# ---------------------------------------------------------------------------
# identity residuals: theta identities, face weights and Yang-Baxter, the
# inverse problem on the zero-weight block, appendix B, the Lieb equation,
# and the kernels and resolvent of appendix C
# ---------------------------------------------------------------------------

def jacobi_residual(kind, z, tau):
    """Imaginary transformation tau -> -1/tau for the four kinds."""
    pref = (-1j * tau) ** (-0.5) * cmath.exp(-1j * math.pi * z * z / tau)
    lhs = theta(kind, z, tau)
    rhs = pref * theta(_JACOBI_PARTNER[kind], -z / tau, -1.0 / tau)
    if kind == 1:
        rhs = -1j * rhs
    return abs(lhs - rhs)


def periods_residual(z, tau):
    """Quasi-periodicity of theta1 under z -> z + 1 and z -> z + tau."""
    r1 = abs(theta(1, z + 1.0, tau) + theta(1, z, tau))
    f = -cmath.exp(-1j * math.pi * tau) * cmath.exp(-2j * math.pi * z)
    r2 = abs(theta(1, z + tau, tau) - f * theta(1, z, tau))
    return max(r1, r2)


def schroter_residual(x, y, tau, r, L):
    """Schroter's product formula for theta3 at moduli r tau/L and
    (L - r) tau/L."""
    lhs = theta(3, x, r * tau / L) * theta(3, y, (L - r) * tau / L)
    rhs = 0.0
    for k in range(L):
        rhs += (cmath.exp(1j * math.pi * r * tau / L * k * k)
                * cmath.exp(2j * math.pi * k * x)
                * theta(3, x - y + r * k * tau / L, tau)
                * theta(3, (L - r) * x + r * y + r * (L - r) * k * tau / L,
                        r * (L - r) * tau))
    return abs(lhs - rhs)


def id_sum1_residual(n, k, x, y, tau):
    """Sum over the shifts y + nu/n weighted by e^{-2 pi i k nu/n}, against
    its closed form at modulus n tau."""
    tot = 0.0
    for nu in range(n):
        den = theta(1, x, tau) * theta(1, y + nu / n, tau)
        if abs(den) < 1e-13:
            raise PoleError("id-sum1 summand hits a pole")
        tot += (cmath.exp(-2j * math.pi * k * nu / n)
                * theta(1, x + y + nu / n, tau) * theta(1, 0, tau, order=1) / den)
    lhs = tot / n
    den = theta(1, x + k * tau, n * tau) * theta(1, n * y, n * tau)
    if abs(den) < 1e-13:
        raise PoleError("id-sum1 closed form hits a pole")
    rhs = (cmath.exp(2j * math.pi * k * y)
           * theta(1, x + n * y + k * tau, n * tau)
           * theta(1, 0, n * tau, order=1) / den)
    return abs(lhs - rhs)


def id_sum2_residual(n, x, y, tau):
    """Sum over the shifts y + nu tau/n, against its closed form at
    modulus tau/n."""
    tot = 0.0
    for nu in range(n):
        den = theta(1, x, tau) * theta(1, y + nu * tau / n, tau)
        if abs(den) < 1e-13:
            raise PoleError("id-sum2 summand hits a pole")
        tot += (cmath.exp(2j * math.pi * nu * x / n)
                * theta(1, x + y + nu * tau / n, tau)
                * theta(1, 0, tau, order=1) / den)
    den = theta(1, x / n, tau / n) * theta(1, y, tau / n)
    if abs(den) < 1e-13:
        raise PoleError("id-sum2 closed form hits a pole")
    rhs = theta(1, x / n + y, tau / n) * theta(1, 0, tau / n, order=1) / den
    return abs(tot - rhs)


def frobenius_residual(xs, ys, t, tau):
    """Frobenius' elliptic Cauchy determinant."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    n = len(xs)
    th_t = theta(1, t, tau)
    diff = xs[:, None] - ys[None, :]
    th_diff = theta(1, diff, tau)
    if abs(th_t) < 1e-13 or np.min(np.abs(th_diff)) < 1e-13:
        raise PoleError("Frobenius matrix hits a pole")
    mat = theta(1, diff + t, tau) / (th_diff * th_t)
    lhs = np.linalg.det(mat)
    num = theta(1, np.sum(xs - ys) + t, tau) / th_t
    for i in range(n):
        for j in range(i + 1, n):
            num *= theta(1, xs[i] - xs[j], tau) * theta(1, ys[j] - ys[i], tau)
    rhs = num / np.prod(th_diff)
    return abs(lhs - rhs)


_SPINS = ((1, 1), (1, -1), (-1, 1), (-1, -1))   # r_matrix basis order


def boltzmann_weight(u, s, unprimed, primed, params):
    """Face weight R(u; s)^{(a_i, a_j)}_{(a'_i, a'_j)}, the r_matrix entry;
    0 unless ice rule holds."""
    return complex(r_matrix(u, s, params)[_SPINS.index(tuple(unprimed)),
                                          _SPINS.index(tuple(primed))])


def r_matrix(u, s, params):
    """4x4 matrix of face weights, basis (++, +-, -+, --), rows unprimed,
    from one bracket call: b, c(u; s) on the row +-, b, c(u; -s) on -+."""
    bs, bu, bu1, b1, bp1, bp, bpu, bm1, bm, bmu = params.brackets(
        s, u, u + 1, 1, 1.0 * s + 1, 1.0 * s, 1.0 * s + u,
        -1.0 * s + 1, -1.0 * s, -1.0 * s + u)
    if min(abs(bs), abs(bu1)) < 1e-13:
        raise PoleError(f"face weight pole at u={u}, s={s}")
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, bp1 * bu / (bp * bu1), bpu * b1 / (bp * bu1), 0.0],
                     [0.0, bmu * b1 / (bm * bu1), bm1 * bu / (bm * bu1), 0.0],
                     [0.0, 0.0, 0.0, 1.0]], dtype=complex)


def yang_baxter_residual(u1, u2, u3, s, params):
    """Max-norm defect of the dynamical Yang-Baxter equation on (C^2)^3."""
    def embed(pos, u, shifted):
        # R on the factors pos in {(0,1),(0,2),(1,2)}: R(u; s), or with
        # shifted R(u; s + 1) and R(u; s - 1) for spectator spin + and -
        mats = ([r_matrix(u, s + e, params) for e in (1.0, -1.0)] if shifted
                else [r_matrix(u, s, params)] * 2)
        out = np.zeros((8, 8), dtype=complex)
        spect = ({0, 1, 2} - set(pos)).pop()
        for row in range(8):
            rb = [(row >> (2 - t)) & 1 for t in range(3)]
            for col in range(8):
                cb = [(col >> (2 - t)) & 1 for t in range(3)]
                if rb[spect] != cb[spect]:
                    continue
                m = mats[rb[spect]]
                out[row, col] = m[2 * rb[pos[0]] + rb[pos[1]],
                                  2 * cb[pos[0]] + cb[pos[1]]]
        return out

    lhs = (embed((0, 1), u1 - u2, True) @ embed((0, 2), u1 - u3, False)
           @ embed((1, 2), u2 - u3, True))
    rhs = (embed((1, 2), u2 - u3, False) @ embed((0, 2), u1 - u3, True)
           @ embed((0, 1), u1 - u2, False))
    return float(np.max(np.abs(lhs - rhs)))


def transfer_dense(u, config, params, scaled=False):
    """Dense A_hat(u) + D_hat(u) from one set of column weights."""
    config.validate(params)
    return _dense_from_apply(
        lambda batch: _entries_batch(("A", "D"), u, batch, config, params,
                                     False, scaled),
        config, params)


def zero_weight_indices(config, params):
    """Basis indices whose spin word satisfies sum eps = 0 (mod L)."""
    N = config.N
    W = 1 << N
    words = np.arange(W)
    weights = N - 2 * np.array([bin(w).count("1") for w in words])
    mask = (weights % params.L) == 0
    idx = []
    for a in range(params.L):
        idx.extend((a * W + np.nonzero(mask)[0]).tolist())
    return np.array(idx, dtype=int)


def local_operator_dense(which, config, params, **kw):
    return _dense_from_apply(
        lambda batch: _local_batch(which, batch, config, params, kw),
        config, params)


def inverse_problem_residual(which, i, config, params, **kw):
    """Max-norm gap, on the zero-weight block, between a local operator and
    its reconstruction through transfer matrices at the inhomogeneities.

    which = 'delta' (keyword a) or 'E' with alpha = beta.  An off-diagonal
    E moves the spin weight by +-2, so both sides vanish on the zero-weight
    block at every L != 2 and the gap would check nothing: it is refused.
    """
    config.validate(params)
    dim = guard_dense(config, params)
    if which == "delta":
        mid = local_operator_dense("delta", config, params, i=1, a=kw["a"])
        solves = i - 1
    elif which == "E":
        if kw["alpha"] != kw["beta"]:
            raise ValueError("the inverse problem is checked for diagonal "
                             "E^{alpha alpha} only")
        lbl = {1: "A", -1: "D"}[kw["alpha"]]
        mid = monodromy_entry_dense(lbl, config.xi[i - 1], config, params)
        solves = i
    else:
        raise ValueError(f"unknown reconstruction target {which!r}")
    ts = [transfer_dense(xi, config, params) for xi in config.xi[:solves]]
    left = np.eye(dim, dtype=complex)
    for k in range(i - 1):
        left = left @ ts[k]
    recon = left @ mid
    try:
        for t in ts:
            recon = np.linalg.solve(t.T, recon.T).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigError(
            "transfer matrix singular at an inhomogeneity") from exc
    direct = local_operator_dense(which, config, params, i=i, **kw)
    idx = zero_weight_indices(config, params)
    gap = recon[np.ix_(idx, idx)] - direct[np.ix_(idx, idx)]
    return float(np.max(np.abs(gap)))


def _x_matrix(t, u, v, params):
    br = params.bracket
    n = len(u)
    uu = (u[:, None] - u[None, :])[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    pref = (params.bracket_prime0 / br(t) * np.prod(br(u[:, None] - v), axis=1)
            / np.prod(br(uu), axis=1))   # one value per column k
    vu = v[:, None] - u[None, :]
    return pref * br(vu + t) / br(vu)


def x_determinant_residual(gamma, u, v, params):
    """det X_t against its closed product form."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = len(u)
    t = np.sum(u - v) + gamma
    br = params.bracket
    lhs = np.linalg.det(_x_matrix(t, u, v, params))
    rhs = (-params.bracket_prime0) ** n * br(gamma) / br(t)
    j, k = np.triu_indices(n, 1)
    rhs *= np.prod(br(v[j] - v[k]) / br(u[j] - u[k]))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


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
    pref = br(t) / ((-params.bracket_prime0) ** n * br(gamma))
    j, k = np.triu_indices(n, 1)
    pref *= np.prod(br(u[j] - u[k]) / br(v[j] - v[k]))
    lhs = np.linalg.det(mixed)
    rhs = pref * np.linalg.det(cmixed)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def bare_momentum(z, params, order=0):
    """p0(z) (continuous odd branch) or p0'(z)."""
    return _log_ratio_odd([(z, params.eta_tilde / 2.0)],
                          params.tau_tilde)[0][order]


def bare_phase(z, params, order=0):
    """theta(z) = i log(theta1(eta~+z)/theta1(eta~-z)), or its derivative."""
    return _log_ratio_odd([(z, params.eta_tilde)],
                          params.tau_tilde)[0][order]


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
        return ((1j / (2 * math.pi)) * theta(1, z + t, tt, order=1)
                / theta(1, z + t, tt))
    if kernel_id == "theta_Xt":
        t, X = kw["t"], kw["X"]
        return ((1j / (2 * math.pi)) * theta(1, 0, tt, order=1)
                * theta(1, z + X + t, tt)
                / (theta(1, X, tt) * theta(1, z + t, tt)))
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


def fredholm_tail_bound(which, params, modes=200):
    """Geometric bound on the neglected log-tail of the product forms."""
    tt, et = params.tau_tilde, params.eta_tilde
    terms = []
    for q in (np.exp(2j * math.pi * tt), np.exp(2j * math.pi * et),
              np.exp(2j * math.pi * (tt - et))):
        a = abs(q) ** (modes + 1)
        terms.append(2 * a / (1 - abs(q)))
    return 2.0 * sum(terms)


def lieb_residual(z, config, params):
    """Defect of the integral equation rho + K*rho = p0'/(2 pi) at z, the
    convolution summed over the modes |m| <= FOURIER_MODES."""
    z = np.asarray(z, dtype=float)
    ms = np.arange(-FOURIER_MODES, FOURIER_MODES + 1)
    rho = density_fourier(ms, config, params)
    conv = np.zeros(z.shape, dtype=complex)
    for m, rho_m in zip(ms, rho):
        conv += (kernel_fourier("K", m, params) * rho_m
                 * np.exp(2j * math.pi * m * z))
    lhs = density(z, config, params) + conv
    rhs = p0_tot(z, config, params, order=1) / (2.0 * math.pi)
    return np.abs(lhs - rhs)


def resolvent_S(Y, z, params):
    """Resolvent kernel S^(Y)(z) at modulus eta_tilde."""
    et = params.eta_tilde
    den = theta(2, Y, et) * theta(1, np.asarray(z), et)
    if np.min(np.abs(den)) < 1e-14:
        raise PoleError(f"resolvent pole at z={z}")
    return (theta(1, 0, et, order=1) * theta(2, np.asarray(z) + Y, et)
            / (2j * math.pi * den))


def resolvent_equation_residual(Y, X, zeta, params):
    """Defect of S + K_XY * S = t_XY at 7 sample points (Fourier synthesis
    over the modes |m| <= 300)."""
    ys = np.linspace(-0.45, 0.45, 7)
    worst = 0.0
    for y in ys:
        conv = 0.0j
        for m in range(-300, 301):
            sm = (kernel_fourier("t_XY", m, params, X=X, Y=Y, zeta=zeta)
                  / (1.0 + kernel_fourier("K_XY", m, params, X=X, Y=Y)))
            conv += (kernel_fourier("K_XY", m, params, X=X, Y=Y) * sm
                     * np.exp(2j * math.pi * m * y))
        lhs = resolvent_S(Y, y - zeta, params) + conv
        rhs = kernel_direct("t_XY", y, params, X=X, Y=Y, zeta=zeta)
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# appendix C and D oracle forms of the thermodynamic side: the root density
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
        _strip_check(t, tt)
        if m == 0:
            return 0.5
        return _exp_ratio(m * t, m * tt)
    if kernel_id == "theta_Xt":
        t, X = kw["t"], kw["X"]
        _strip_check(t, tt)
        return _exp_ratio(m * t, X + m * tt)
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


# ---------------------------------------------------------------------------
# Fredholm determinants
# ---------------------------------------------------------------------------

def _nome_products(params, M):
    tt, et = params.tau_tilde, params.eta_tilde
    qt = np.exp(2j * math.pi * tt * np.arange(1, M + 1))
    qe = np.exp(2j * math.pi * et * np.arange(1, M + 1))
    qte = np.exp(2j * math.pi * (tt - et) * np.arange(1, M + 1))
    return qt, qe, qte


def fredholm_det(which, mode, params, X=None, Y=None, modes=200):
    """Fredholm determinants of the convolution kernels on [-1/2, 1/2].

    which: 'base' (1 + K - V0), 'XY' (1 + K_X^(Y)), or 'ratio'.
    mode: 'closed' evaluates the theta/product expressions (tail truncated
    at `modes`); 'truncated' multiplies eigenvalues 1 + c_m for |m| <= modes
    (not for the ratio, which has its closed form only).
    """
    if mode not in (("closed",) if which == "ratio"
                    else ("closed", "truncated")):
        raise ValueError(f"unknown mode {mode!r} for {which!r}")
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
        return (theta(1, X - Y, tt - et) / theta(1, 0, tt - et, order=1)
                * theta(1, 0, tt, order=1) / theta(1, X, tt)
                * theta(2, Y, et) / theta(2, 0, et) / (1.0 - eta))
    raise ValueError(f"unknown determinant {which!r}")


# ---------------------------------------------------------------------------
# the one-point factor as a twist sum and in the rotated modulus
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
    # one theta call per (kind, modulus, order)
    den, num = stacked(lambda z: theta(1, z, tt), Z - D + gt + et * s, et * s)
    if np.min(np.abs(den)) < 1e-13:
        raise PoleError("one-point prefactor pole; redraw gamma")
    pref = (np.exp(-1j * math.pi * s * (-(r * kk + 2.0 * ll) / Lr
                                        + 2.0 * eta * gt))
            * num / (et * den))
    nu = np.arange(L).reshape((L,) + (1,) * np.ndim(Z))
    th2, th2_0 = stacked(lambda z: theta(2, z, et),
                         Z - D + eta * (gt - nu), 0)
    tot = np.sum(twist_weights(s, gamma, params).reshape(nu.shape)
                 * theta(1, (1 - eta) * gt + eta * nu, tt - et)
                 / _theta1_prime0(tt - et)
                 * th2 / th2_0, axis=0)
    return pref * tot / Lr


def _pbar_bethe_pair_fred(s, Z, kk, ll, params, gamma):
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
    nu = np.arange(L).reshape((L,) + (1,) * np.ndim(Z))
    ratio = fredholm_det("ratio", "closed", params,
                         X=gt - D, Y=eta * (gt - nu) - D)
    tot = np.sum(twist_weights(s, gamma, params).reshape(nu.shape) * ratio
                 * theta(2, Z - D + eta * (gt - nu), et)
                 / theta(2, -D + eta * (gt - nu), et), axis=0)
    return pref * tot / L


def _pbar_bethe_pair_alt(s, Z, kk, ll, params, gamma):
    """Summation-swapped representation (series over the dual index j)."""
    L, r, eta = params.L, params.r, params.eta
    Lr = L - r
    tt, et = params.tau_tilde, params.eta_tilde
    gt = et * gamma
    D = (L * kk + 2.0 * ll) / (2.0 * Lr)
    jmax = max(12, int(7.0 / math.sqrt(complex(et).imag)))
    pref = np.exp(1j * math.pi * s * (r * kk + 2.0 * ll) / Lr) / Lr
    js = range(-jmax, jmax + 1)
    ths, thz, thg, *thj = stacked(      # three factors per j
        lambda z: theta(1, z, tt), et * s, Z - D + gt + et * s, gt,
        *(x for j in js
          for x in (gt - D + Z + et * j, gt + et * (s - j), et * (s - j))))
    tp_dual, th2_0 = theta(1, 0, tt - et, order=1), theta(2, 0, et)
    tp = theta(1, 0, tt, order=1)
    tot = 0.0j
    for j, num_j, num_sj, den_sj in zip(js, thj[::3], thj[1::3], thj[2::3]):
        tot += (np.exp(1j * math.pi * et * j * j)
                * np.exp(2j * math.pi * j * (Z - D))
                * ths * num_j / (thz * tp_dual * th2_0)
                * num_sj * tp / (den_sj * thg))
    return pref * tot


def one_point_twist_sum(pair, a, Z, eps, t_label, params, gamma=None):
    """P(s0+a, Z; eps, t) as the flat-basis sum over the ground-state labels
    of a dressing factor: `pair` is one of _pbar_bethe_pair (twist sum),
    _pbar_bethe_pair_fred (explicit Fredholm ratio) or _pbar_bethe_pair_alt
    (dual series).  The value does not depend on gamma; unset, the
    reproducible default is redrawn off a prefactor pole."""
    s = params.height(a)
    phases = flat_basis_phases(eps, t_label, params).items()
    return gamma_retry(lambda g: sum(
        phase * pair(s, Z, kk, ll, params, g)
        for (kk, ll), phase in phases), params, gamma)


def one_point_closed_tilde(a, Z, eps, t_label, params):
    """P(s0+a, Z; eps, t) in the rotated modulus tau_tilde, against which
    `thermo.one_point_barP` is checked."""
    L, r = params.L, params.r
    Lr = L - r
    s = params.height(a)
    tt, et = params.tau_tilde, params.eta_tilde
    st = s + 1.0 / (2.0 * et)
    st0 = params.s0_tilde
    Z = np.asarray(Z, dtype=complex)
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


# ---------------------------------------------------------------------------
# identity suites: residual name -> worst residual over the draws
# ---------------------------------------------------------------------------

def _suite_elliptic(rng, draws):
    out = {"jacobi": 0.0, "periods": 0.0, "periods_unscaled": 0.0}
    for _ in range(draws):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.3))
        for kind in (1, 2, 3, 4):
            out["jacobi"] = max(out["jacobi"], jacobi_residual(kind, z, tau))
        res = periods_residual(z, tau)
        scale = max(1.0, abs(theta(1, z, tau)), abs(theta(1, z + tau, tau)))
        out["periods"] = max(out["periods"], res / scale)
        if abs(z.imag) <= 0.6 and tau.imag <= 1.2:
            # |theta1| stays below a few thousand here: the raw defect is
            # bounded too
            out["periods_unscaled"] = max(out["periods_unscaled"], res)
    for (L, r) in ((3, 1), (5, 2)):
        res = 0.0
        for _ in range(draws // 10 + 1):
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            res = max(res, schroter_residual(x, y, 0.7j, r, L))
        out[f"schroter_L{L}_r{r}"] = res
    for n in range(2, 7):
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        y = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        out[f"id_sum1_n{n}"] = id_sum1_residual(n, 1, x, y, 0.6 + 0.5j)
        out[f"id_sum2_n{n}"] = id_sum2_residual(n, x, y, 0.6 + 0.5j)
    for n in (2, 3):
        xs = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
        ys = rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
        out[f"frobenius_n{n}"] = frobenius_residual(xs, ys, 0.3 + 0.2j, 0.8j)
    return out


def _suite_lattice(rng, draws):
    params = ModelParams(tau=0.9j, r=2, L=5, s0=0.41 + 0.13j)
    out = {"yang_baxter": 0.0}
    for _ in range(draws):
        u1, u2, u3 = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
                      for _ in range(3))
        s = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
        out["yang_baxter"] = max(out["yang_baxter"], yang_baxter_residual(
            u1, u2, u3, s, params))
    p3 = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    config = homogeneous_config(4)
    idx = zero_weight_indices(config, p3)
    u, v = 0.31 + 0.17j, -0.22 + 0.4j
    tu = transfer_dense(u, config, p3)[np.ix_(idx, idx)]
    tv = transfer_dense(v, config, p3)[np.ix_(idx, idx)]
    out["transfer_commutator"] = float(np.max(np.abs(tu @ tv - tv @ tu)))
    ys = [0.04, -0.03, 0.02, -0.05]
    cfg_inh = LatticeConfig(N=4, xi=tuple(0.5 + 1j * y for y in ys))
    out["inverse_problem_E"] = inverse_problem_residual(
        "E", 2, cfg_inh, p3, alpha=1, beta=1)
    out["inverse_problem_delta"] = inverse_problem_residual(
        "delta", 3, cfg_inh, p3, a=1)
    return out


def _suite_appendixB(rng, draws):
    params = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
    out = {}
    for (n, m) in ((2, 1), (3, 2)):
        res = 0.0
        for _ in range(max(3, draws // 30)):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            z = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.2, 0.2, m)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            alup = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                         for _ in range(4))
            bet = tuple(rng.standard_normal(m) + 1j * rng.standard_normal(m)
                        for _ in range(4))
            res = max(res, appendixB_identity_residual(
                u, v, z, gamma, alup, bet, m, params))
        out[f"transform_n{n}_m{m}"] = res
    res = 0.0
    for n in (2, 3):
        for _ in range(max(3, draws // 30)):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            res = max(res, x_determinant_residual(gamma, u, v, params))
    out["det_X"] = res
    return out


def _suite_appendixC(rng, draws):
    L, r = 3, 1
    params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
    X = complex(rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.2))
    Y = complex(rng.uniform(0.2, 0.5), rng.uniform(-0.3, -0.1))
    out = {}
    base_t = fredholm_det("base", "truncated", params)
    base_c = fredholm_det("base", "closed", params)
    out["fredholm_base"] = abs(base_t - base_c) / abs(base_c)
    xy_t = fredholm_det("XY", "truncated", params, X=X, Y=Y)
    xy_c = fredholm_det("XY", "closed", params, X=X, Y=Y)
    out["fredholm_XY"] = abs(xy_t - xy_c) / abs(xy_c)
    ratio = fredholm_det("ratio", "closed", params, X=X, Y=Y)
    out["fredholm_ratio"] = abs(ratio - xy_c / base_c) / abs(ratio)
    circle = 0.013 * np.exp(2j * math.pi * np.arange(64) / 64)
    res = 2j * math.pi * np.mean(resolvent_S(Y, circle, params) * circle)
    out["resolvent_residue"] = abs(res - 1.0)
    out["resolvent_equation"] = resolvent_equation_residual(
        Y, X, 0.03 + 0.2j, params)
    kq = 0.0
    nodes = -0.5 + np.arange(1024) / 1024
    for mm in (0, 3, -2):
        quad = np.mean(kernel_direct("K_XY", nodes, params, X=X, Y=Y)
                       * np.exp(-2j * math.pi * mm * nodes))
        kq = max(kq, abs(quad - kernel_fourier("K_XY", mm, params,
                                               X=X, Y=Y)))
    out["kernel_fourier"] = kq
    return out


def _suite_appendixD(rng, draws):
    out = {}
    for (L, r) in ((3, 1), (4, 1)):
        params = ModelParams(tau=2.5j * r / L, r=r, L=L, s0=0.37 + 0.21j)
        Z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        worst = 0.0
        norm = 0.0
        parity = 0.0
        for eps in (0, 1):
            for t in range(L - r):
                tot = 0.0j
                for a in range(L):
                    v1 = one_point_twist_sum(_pbar_bethe_pair, a, Z, eps, t,
                                             params)
                    v2 = one_point_barP(a, Z, eps, t, params)
                    if L % 2 == 0 and (eps + t - a) % 2 != 0:
                        parity = max(parity, abs(v2))
                    worst = max(worst, abs(v1 - v2))
                    tot += one_point_twist_sum(_pbar_bethe_pair, a, 0.0, eps,
                                               t, params)
                norm = max(norm, abs(tot - 1.0))
        out[f"nu_vs_closed_L{L}"] = worst
        out[f"normalization_L{L}"] = norm
        if L % 2 == 0:
            out[f"parity_zero_L{L}"] = parity
    return out


def _suite_oracle(rng, draws):
    """The determinant table against the dense one on every ground-state
    pair of each coprime (L, r) with L <= 7: tau = 0.45i, physical s0, a
    homogeneous column of N = 4 and 6 (rows suffixed _N6), paths (1,) and
    (1, 2).  Each gap is relative to the family's largest |dense| element,
    since some elements are exactly zero; refused pairs are not compared.
    The inputs are fixed: rng and draws are unused."""
    tau = 0.45j
    out = {}
    for N, suffix in ((4, ""), (6, "_N6")):
        for L, r in ((L, r) for L in range(2, 8) for r in range(1, L)
                     if math.gcd(L, r) == 1):
            params = ModelParams(tau=tau, r=r, L=L, s0=tau / (2.0 * r / L))
            states = list(all_ground_states(homogeneous_config(N),
                                            params).values())
            for path in (vertical_path((1,)), vertical_path((1, 2))):
                dense = np.array(_dense_table(path, 1, states, states))
                det = _det_table(path, 1, states, states)[0]
                gap = max((abs(val - dense[i, j])
                           for i, row in enumerate(det)
                           for j, val in enumerate(row) if val is not None),
                          default=0.0)
                out[f"L{L}_r{r}_m{path.m}{suffix}"] = (
                    gap / np.max(np.abs(dense)))
    return out


SUITES = {
    "elliptic": _suite_elliptic,
    "lattice": _suite_lattice,
    "appendixB": _suite_appendixB,
    "appendixC": _suite_appendixC,
    "appendixD": _suite_appendixD,
    "oracle": _suite_oracle,
}


# ---------------------------------------------------------------------------
# partial scalar products, and the oracles of the finite-size formulas
# ---------------------------------------------------------------------------

def partial_scalar_bruteforce(u_set, v_list, a):
    """S_n({u}; {v}; s0+a) by explicit operator application."""
    st = StateVector.reference(u_set.config, u_set.params)
    for vj in v_list:
        st = monodromy_entry_apply("B", vj, st)
    st = local_operator_apply("delta", st, i=1, a=a)
    for uj in u_set.v:
        st = monodromy_entry_apply("C", uj, st)
    return st.bra_contract_reference()


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


def mpme_sum_partial(u_set, v_set, path, a1):
    """Multi-point matrix element via the commutation sum over partial
    scalar products, each taken by operator contraction (an oracle)."""
    params, config = u_set.params, u_set.config
    zetas = det_route_zetas(path, config, params)
    alphas = path.alphas
    n, m = u_set.n, path.m
    s = params.height(a1)
    ipos, _ = slot_positions(alphas)
    v_ext = _extended_params(v_set.v, zetas)
    tot = 0.0j
    for b in enumerate_tuples(n, m, ipos).tolist():
        fb = commutation_action_coefficient(b, s, v_set.v, zetas, alphas,
                                            v_set, params)
        if abs(fb) == 0.0:
            continue
        keep = [v_ext[idx - 1] for idx in range(1, n + m + 1)
                if idx not in b]
        tot += fb * partial_scalar_bruteforce(u_set, keep, a1)
    # phi~_u(s) phi_v(s + a_1 + ... + a_m); phi is L-periodic in s
    pref = (_phi_weights(u_set, dual=True)[a1 % params.L]
            * _phi_weights(v_set)[(a1 + sum(alphas)) % params.L])
    for z in zetas:
        pref /= eigenvalue_tau(z, v_set)
    return pref * tot / (norm_root(u_set) * norm_root(v_set))


def marginal_check(u_set, v_set, path, a1):
    """Sum of the (m+1)-point element over the last height vs the m-point,
    both by mpme_det."""
    short = AdjacentPath(path.vertices[:-1], path.heights[:-1])
    lhs = 0.0j
    for astep in (1, -1):
        heights = path.heights[:-1] + (path.heights[-2] + astep,)
        lhs += mpme_det(u_set, v_set, AdjacentPath(path.vertices, heights),
                        a1)
    rhs = mpme_det(u_set, v_set, short, a1)
    return lhs, rhs


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
