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

from .elliptic import PoleError, SizeGuardError

# Memory budget of one dense assembly (see guard_dense) or one sweep of
# state vectors (see _entries_batch): admits dense oracles for N <= 10 and
# single-vector sweeps for N <= 22 at L = 3.
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
        if self.N < 2:
            raise ValueError(f"N must be a positive even number, got {self.N}")
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
    _guard_bytes(6 * 16 * dim * dim,
                 f"dense operation refused: N={config.N}, dim={dim}")
    return dim


def _guard_bytes(need, what):
    if need > DENSE_MAX_BYTES:
        raise SizeGuardError(
            f"{what} needs about {need / 2**30:.1f} GiB "
            f"(limit {DENSE_MAX_BYTES / 2**30:.1f} GiB)")


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
    evaluation of the column weights.

    The live arrays are psi, the running sum, and the two-aux sweep array
    with its successor: six arrays of psi's size, counted before any is
    allocated.
    """
    _guard_bytes(6 * 16 * psi.size,
                 f"sweep refused: N={config.N}, {psi.shape[2]} vector(s)")
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
