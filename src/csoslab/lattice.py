"""Dynamical R-matrix, monodromy/transfer operators, and local operators.

Space of states
---------------
Functions of the height s in s0 + Z/LZ with values in (C^2)^{xN}.  Basis
states |a; word> are indexed by the height class a (s = s0 + a) and the
spin word (site 1 = most significant bit, bit 0 <-> spin +1).  The flat
index is a * 2^N + word, height class major.  The pairing is bilinear and
the basis states are orthonormal.

Operators
---------
The monodromy matrix is the ordered product of face R-matrices down the
column, R_{aN}(u - xi_N; s + h_1 + ... + h_{N-1}) ... R_{a1}(u - xi_1; s);
its entries A, B, C, D act on (C^2)^{xN} for each numeric height.  The
hatted operators compose these with the height shift, e.g.
(A_hat f)(s) = A(u; s) f(s+1), (B_hat f)(s) = B(u; s) f(s-1).

The nonzero face weights are 1, b(u; +-s), c(u; +-s) with
b(u;s) = [s+1][u]/([s][u+1]), c(u;s) = [s+u][1]/([s][u+1]).
The dynamical argument of the k-th factor counts the spins of sites < k
on the incoming configuration (the column of heights the faces lean on).
Since [x + L] = (-1)^r [x] cancels in each ratio, the weights are
L-periodic in s: at s = s0 + a + p they depend on the class (a + p) mod L
only, and an application evaluates them on the (site, class) grid at
s = s0 + c, c = 0..L-1, in one bracket call.
"""

from dataclasses import dataclass

import numpy as np

from .elliptic import DegenerateConfigError, PoleError, SizeGuardError

# Memory budget of one dense assembly (see guard_dense): admits the oracle
# range N <= 10 at L = 3 and refuses N = 12.
DENSE_MAX_BYTES = 2 << 30

_ENTRY_AUX = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}
# height roll of the hatted entries: A, C read f(s+1), B, D read f(s-1)
_ENTRY_SHIFT = {"A": -1, "B": 1, "C": -1, "D": 1}


@dataclass(frozen=True)
class LatticeConfig:
    """Column geometry: N sites, inhomogeneities xi (rows) and w (columns)."""

    N: int
    xi: tuple
    w: tuple = ()

    def __post_init__(self):
        if self.N % 2 != 0:
            raise ValueError(f"N must be even, got {self.N}")
        if len(self.xi) != self.N:
            raise ValueError("xi list must have length N")
        object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        object.__setattr__(self, "w", tuple(complex(x) for x in self.w))

    @property
    def M(self):
        return len(self.w)

    def validate(self, params):
        """Check the line condition Im(eta~ xi_l) = Im(eta~/2) to 1e-9."""
        et = params.eta_tilde
        ref = (et / 2.0).imag
        for x in self.xi:
            if abs((et * x).imag - ref) > 1e-9 * max(1.0, abs(ref)):
                raise ValueError(
                    f"inhomogeneity {x} off the admissible line "
                    f"Im(eta~ xi) = Im(eta~/2)")


def homogeneous_config(N):
    """All inhomogeneities at the symmetric point xi_l = 1/2."""
    return LatticeConfig(N=N, xi=(0.5,) * N)


def guard_dense(config, params):
    """Dimension of the full space; refuses sizes over DENSE_MAX_BYTES.

    The estimate is the peak of a dense assembly: the identity basis, its
    height-rolled copy and the two (2, L, W, dim) sweep arrays, six
    complex dim x dim arrays in all.
    """
    dim = params.L * (1 << config.N)
    need = 6 * 16 * dim * dim
    if need > DENSE_MAX_BYTES:
        raise SizeGuardError(
            f"dense operation refused: N={config.N}, dim={dim} needs about "
            f"{need / 2**30:.1f} GiB (limit {DENSE_MAX_BYTES / 2**30:.1f} GiB)")
    return dim


class StateVector:
    """Finite-support element of Fun(H): array over (height class, spin word)."""

    def __init__(self, config, params, amps=None):
        self.config = config
        self.params = params
        W = 1 << config.N
        if amps is None:
            amps = np.zeros((params.L, W), dtype=complex)
        self.amps = np.asarray(amps, dtype=complex).reshape(params.L, W)

    @classmethod
    def delta_state(cls, config, params, height_class, word):
        sv = cls(config, params)
        sv.amps[height_class % params.L, word] = 1.0
        return sv

    @classmethod
    def reference(cls, config, params):
        """|0>>: the constant function s -> all-plus word."""
        sv = cls(config, params)
        sv.amps[:, 0] = 1.0
        return sv

    def copy(self):
        return StateVector(self.config, self.params, self.amps.copy())

    def dot(self, other):
        """Bilinear pairing sum_{s, word} f g (no conjugation)."""
        return complex(np.sum(self.amps * other.amps))

    def scale_heights(self, weights):
        """Multiply the height class a by weights[a], a = 0..L-1."""
        out = self.copy()
        for a, weight in enumerate(weights):
            out.amps[a] *= weight
        return out

    def spin_weights(self):
        """Total spin sum_i eps_i on each populated word."""
        N = self.config.N
        words = np.nonzero(np.any(self.amps != 0.0, axis=0))[0]
        return {int(w): N - 2 * bin(w).count("1") for w in words}

    def bra_contract_reference(self):
        """<<0| psi = sum over heights of the all-plus component."""
        return complex(np.sum(self.amps[:, 0]))


def _prefix_table(i, config):
    """sum_{j<i} eps_j for every word (sites counted from 1)."""
    N = config.N
    words = np.arange(1 << N, dtype=np.int64)
    pref = np.zeros(1 << N, dtype=np.int64)
    for k in range(i - 1):
        pref += 1 - 2 * ((words >> (N - 1 - k)) & 1)
    return pref


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


def _column_weights(u, config, params, scaled):
    """Face weights of all R-factors (k = 0..N-1), once per application.

    The k-th factor's argument s = (s0 + a) + p (height class a, spin sum
    p of the sites before k) enters the L-periodic weights only through
    the class c = (a + p) mod L, so the brackets are evaluated on the
    (k, c) grid at s = s0 + c, N L cells per sign, in one bracket call,
    and one gather by (a + p) mod L fills every site's cells.  Returns
    corner[k] and weights[k] = (b_plus, b_minus, c_plus, c_minus), each
    of shape (L, 2^k, 1, 1): height, spins of the sites before k,
    broadcast over the sites after k and the batch.

    With scaled=True every R-factor is multiplied by [u - xi_k + 1], which
    removes the poles of the face weights at u = xi_k - 1 (the monodromy
    then equals T(u) times prod_k [u - xi_k + 1]).
    """
    N, L = config.N, params.L
    uk = u - np.array(config.xi)
    s = params.s0 + np.arange(L)
    bu, bu1, bsu, bmsu, bs, bms, bs1, bms1, b1 = params.brackets(
        uk, uk + 1, s + uk[:, None], -s + uk[:, None], s, -s, s + 1, -s + 1,
        1)
    poles = np.nonzero(np.abs(bu1) < 1e-13)[0]
    if not scaled and poles.size:
        raise PoleError(f"[u - xi_{poles[0] + 1} + 1] vanishes at u={u}; "
                        "use the scaled gauge")
    if np.min(np.abs(bs)) < 1e-13:
        raise PoleError("dynamical bracket [s] vanishes inside column")
    ones = np.ones_like(bu1)
    corner, denom_u = (bu1, ones) if scaled else (ones, bu1)
    bu, denom_u = bu[:, None], denom_u[:, None]
    grids = np.stack((bs1 * bu / (bs * denom_u),
                      bms1 * bu / (bms * denom_u),
                      bsu * b1 / (bs * denom_u),
                      bmsu * b1 / (bms * denom_u)))
    # prefix spin sums of the sites < k, site after site: 2^k words each
    prefs = [np.zeros(1, dtype=np.int64)]
    for _ in range(N - 1):
        prefs.append((prefs[-1][:, None] + np.array([1, -1])).ravel())
    site = np.repeat(np.arange(N), [p.size for p in prefs])
    classes = (np.arange(L)[:, None] + np.concatenate(prefs)) % L
    cells = grids[:, site, classes]
    weights = [tuple(cells[:, :, (1 << k) - 1:(2 << k) - 1, None, None])
               for k in range(N)]
    return corner, weights


def _site_step(phi, k, corner, b_plus, b_minus, c_plus, c_minus):
    """One R-factor on phi of shape (2, L, W, B): aux, height, word, batch.

    Aux + passes a site + with the corner weight; on a site - it stays
    (b_plus) or flips down while raising the site (c_minus).  Aux - mirrors
    this with b_minus and c_plus.  Swapping c_plus and c_minus gives the
    transposed step.
    """
    cur = phi.reshape(2, phi.shape[1], 1 << k, 2, -1, phi.shape[3])
    new = np.empty_like(cur)
    new[0, :, :, 0] = corner * cur[0, :, :, 0]
    new[0, :, :, 1] = b_plus * cur[0, :, :, 1] + c_plus * cur[1, :, :, 0]
    new[1, :, :, 0] = c_minus * cur[0, :, :, 1] + b_minus * cur[1, :, :, 0]
    new[1, :, :, 1] = corner * cur[1, :, :, 1]
    return new.reshape(phi.shape)


def _sweep(entry, psi, corner, weights, dual=False):
    """The hatted monodromy entry on each column of psi (L, W, B), from the
    column weights of one application; with dual=True its transpose.

    The height axis supplies the base dynamical parameter of each column
    after the height roll; the k-th factor's dynamical argument adds the
    spins of sites < k as carried by the current partial word.  The
    transpose, (M R)^T = R^T M^T, runs the sites in reverse with the aux
    indices and the c weights swapped, then undoes the height roll.
    """
    a_out, a_in = _ENTRY_AUX[entry]
    shift = _ENTRY_SHIFT[entry]
    sites = range(len(corner))
    if dual:
        a_out, a_in, sites = a_in, a_out, reversed(sites)
    phi = np.zeros((2,) + psi.shape, dtype=complex)
    phi[a_in] = psi if dual else np.roll(psi, shift, axis=0)
    for k in sites:
        b_plus, b_minus, c_plus, c_minus = weights[k]
        if dual:
            c_plus, c_minus = c_minus, c_plus
        phi = _site_step(phi, k, corner[k], b_plus, b_minus, c_plus, c_minus)
    return np.roll(phi[a_out], -shift, axis=0) if dual else phi[a_out]


def _entries_batch(entries, u, psi, config, params, dual, scaled):
    """Sum of the hatted monodromy entries (summed in the order given) on
    each column of psi (L, W, B), or of their transposes, from one
    evaluation of the column weights."""
    corner, weights = _column_weights(u, config, params, scaled)
    out = _sweep(entries[0], psi, corner, weights, dual)
    for entry in entries[1:]:
        out += _sweep(entry, psi, corner, weights, dual)
    return out


def _entries_apply(entries, u, state, dual=False, scaled=False):
    """_entries_batch on a state, or on a covector with dual=True."""
    out = _entries_batch(entries, u, state.amps[:, :, None], state.config,
                         state.params, dual, scaled)
    return StateVector(state.config, state.params, out[:, :, 0])


def monodromy_entry_apply(entry, u, state, dual=False, scaled=False):
    """Hatted monodromy entry A/B/C/D applied to a state (or to a covector).

    (A_hat f)(s) = A(u; s) f(s+1) and similarly B, D with f(s-1), C with
    f(s+1).  With dual=True the transpose acts, so the returned covector
    r satisfies r . psi = state . (entry_hat psi) for every psi.
    """
    return _entries_apply((entry,), u, state, dual=dual, scaled=scaled)


def _dense_from_apply(apply_fun, config, params):
    """Dense matrix of a batch-applied operator on the full space."""
    dim = guard_dense(config, params)
    W = 1 << config.N
    basis = np.eye(dim, dtype=complex).reshape(params.L, W, dim)
    return apply_fun(basis).reshape(dim, dim)


def monodromy_entry_dense(entry, u, config, params, scaled=False):
    return _dense_from_apply(
        lambda batch: _entries_batch((entry,), u, batch, config, params,
                                     False, scaled),
        config, params)


def transfer_apply(u, state):
    """t_hat(u) = A_hat(u) + D_hat(u) from one set of column weights."""
    return _entries_apply(("A", "D"), u, state)


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


def _local_batch(which, psi, config, params, kw):
    """Local operator on every column of psi (L, W, B)."""
    N = config.N
    out = np.zeros_like(psi)
    if which == "E":
        i, alpha, beta = kw["i"], kw["alpha"], kw["beta"]
        bitmask = 1 << (N - i)
        words = np.arange(1 << N)
        sel = words[1 - 2 * ((words & bitmask) > 0) == beta]
        out[:, sel if alpha == beta else sel ^ bitmask] = psi[:, sel]
        return out
    if which == "delta":
        i, a = kw["i"], kw["a"]
        pref = _prefix_table(i, config)
        for h in range(params.L):
            mask = (h + pref) % params.L == a % params.L
            out[h, mask] = psi[h, mask]
        return out
    raise ValueError(f"unknown local operator {which!r}")


def local_operator_apply(which, state, **kw):
    """Apply a local operator: which = 'E' (site i, spins alpha,beta) or
    'delta' (site i, height class a: fixes the height at site i to s0+a)."""
    out = _local_batch(which, state.amps[:, :, None], state.config,
                       state.params, kw)
    return StateVector(state.config, state.params, out[:, :, 0])


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

