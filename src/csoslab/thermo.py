"""Thermodynamic limit: multi-point local height probabilities as
multiple integrals over the closed one-point factor.

Unless a modulus is written explicitly, theta functions in this module use
the rotated quasi-period tau_tilde = -1/tau; the Cauchy core lives at
modulus eta_tilde, and the closed one-point formula mixes moduli built from
(r, L) as indicated at each site.  The other forms of the appendix C and D
quantities (densities, Fredholm determinants, kernel Fourier coefficients,
the twist-sum and rotated-modulus one-point forms) are oracles, in
`csoslab.contract`.

The multi-point integrals run each variable over the period [-1/2, 1/2]
plus small circles around the path arguments: a lambda attached to a
descending step also encircles the shifted points xi~ - eta~ (index +1),
one attached to an ascending step encircles the xi~ (index -1).  The
integrand has simple poles there and the circle parts reduce to residues,
evaluated exactly; the segment part is a periodic trapezoid sum.
"""

import functools
import itertools
import math

import numpy as np

from .elliptic import (AccuracyError, DegenerateConfigError, stacked, theta,
                       theta3_log_outer, theta_log)
from .matel import slot_positions

# an m = 3 quadrature grid is summed in slabs of the leading axis holding
# at most this many points
SLAB_POINTS = 1 << 21


# ---------------------------------------------------------------------------
# (modified) one-point local height probability
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _theta1_prime0(tau):
    """theta1'(0; tau), a constant of the model, evaluated once per modulus."""
    return theta(1, 0, tau, order=1)


def one_point_barP(a, Z, eps, t_label, params, mode="closed"):
    """(Modified) one-point local height probability P(s0+a, Z; eps, t):
    the parity-split theta formulas in the original modulus.

    a, eps and t_label are integers, or 1-d arrays of J records (an
    integer among them is shared by all); records then lead the result,
    (J,) + Z.shape, and each row is bit for bit its record's own call.
    The records shift the theta3 argument by real amounts only, so one
    `theta3_log_outer` call serves them all.  mode names that form and
    accepts 'closed' only.
    """
    if mode != "closed":
        raise ValueError(f"unknown mode {mode!r}")
    single = all(np.ndim(v) == 0 for v in (a, eps, t_label))
    a, eps, t_label = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=int)) for v in (a, eps, t_label)))
    L, r = params.L, params.r
    Lr = L - r
    tau = complex(params.tau)
    et = params.eta_tilde
    st0 = params.s0_tilde
    # points as a 1-d array: each one's value does not depend on the others
    shape = np.shape(Z)
    Z = np.ravel(np.asarray(Z, dtype=complex))
    # a record forbidden by parity is exactly zero, and never evaluated
    keep = (L % 2 == 1) | ((eps + t_label - a) % 2 == 0)
    lg = np.full(a.shape + Z.shape, -np.inf, dtype=complex)
    if keep.any():
        a, eps, t_label = a[keep], eps[keep], t_label[keep]
        st = params.height(a) + 1.0 / (2.0 * et)
        col = st[:, None]
        # assembled in log space: the individual theta factors run over the
        # whole double range at small |tau| while the probability is O(1)
        lg_kept = (
            1j * math.pi * (2.0 * r / L * col * Z + (L - r) / r * Z * Z * tau)
            + theta_log(4, r * col / L, tau)
            - math.log(L)
            - theta_log(4, 0, L * tau / r)
            - theta_log(4, r * (st0 + t_label.reshape(col.shape)) / Lr,
                        L * tau / Lr))
        if L % 2 == 0:
            lg_kept = lg_kept + math.log(2.0) + theta3_log_outer(
                st0 / Lr - st0 / L, t_label / Lr - a / L, Z * tau / r,
                tau / (r * Lr))
        else:
            lg_kept = lg_kept + theta3_log_outer(
                (0.5 - 0.5 / L) * st0 - (0.5 - 0.5 / Lr) * st0,
                (0.5 - 0.5 / L) * a - (0.5 - 0.5 / Lr) * t_label - eps / 2.0,
                Z * tau / (2.0 * r), tau / (4.0 * r * Lr))
        lg[keep] = lg_kept
    lg = lg.reshape(keep.shape + shape)
    return _exp_clamped(lg[0] if single else lg)


def _exp_clamped(logval):
    """exp with underflow to exact zero and loud overflow."""
    logval = np.asarray(logval)
    re = np.real(logval)
    if np.any(re > 700.0):
        raise AccuracyError("closed-form evaluation overflows; check regime")
    out = np.where(re < -700.0, 0.0, np.exp(np.where(re < -700.0, 0.0, logval)))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# multi-point local height probabilities (multiple integrals)
# ---------------------------------------------------------------------------

def integrand_core(lams, s1s, alphas, mus, params, frozen):
    """G~ S-bar of the thermodynamic integrand split at the height:
    (core, slots), the product at the height s_1 = s1s[h] being core times
    each ratio of slots[h].

    lams holds one value or node array per slot, the arrays broadcasting
    against each other; a frozen slot holds its value, its residue already
    extracted.  core has their broadcast shape: S-bar, the Cauchy-type
    determinant core at modulus eta_tilde, times the factors of G~ that do
    not depend on the height, the [mu_k - mu_j], the pair factors on the
    distinct lambda differences and the mu - lambda factors.  Each frozen
    lambda drops its own singular factor of S-bar and one power of
    theta1'(0)/(2 pi i).  slots[h] holds G~'s m slot ratios, each in its
    own lambda's shape.  The lambda pairs share one `_distinct_sums`, and
    each modulus one theta call.
    """
    tt, et = params.tau_tilde, params.eta_tilde
    m = len(alphas)
    ipos, n_minus = slot_positions(alphas)
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    diffs = [_distinct_sums(lams[j], -lams[k]) for j, k in pairs]
    mu_diffs = [mus[k] - mus[j] for j, k in pairs]
    # per slot p: theta1(lambda_p - mu_k) at eta~ but where a frozen lambda
    # sits, and theta1(mu_k - lambda_p), k != i_p, at tau~, plus eta~
    # alpha_{i_p} past the slot's path position
    lam_mu = [[lam - mu for mu in mus
               if not (fr and abs(complex(lam) - complex(mu)) < 1e-14)]
              for lam, fr in zip(lams, frozen)]
    s_args = [*mu_diffs, *(points for points, _ in diffs),
              *(arg for row in lam_mu for arg in row)]
    s_vals = stacked(lambda z: theta(1, z, et), *s_args) if s_args else []
    # per height theta1(shift + lambda_p - mu_{i_p}) and theta1(shift) per
    # slot, after the height-free factors
    shifts = [[et * (s1 + sum(alphas[:ip - 1])) for ip in ipos]
              for s1 in s1s]
    g_vals = stacked(
        lambda z: theta(1, z, tt), *mu_diffs,
        *(points + et for points, _ in diffs),
        *(mus[k - 1] - lam + et * alphas[ip - 1] if k > ip
          else mus[k - 1] - lam
          for lam, ip in zip(lams, ipos) for k in range(1, m + 1) if k != ip),
        *(arg for shift in shifts for arg in (
            *(sh + lam - mus[ip - 1] for sh, lam, ip in zip(shift, lams,
                                                             ipos)),
            *shift)))
    P = len(pairs)
    core = ((-1.0) ** (m - n_minus)
            * (_theta1_prime0(et) / (2j * math.pi)) ** (m - sum(frozen)))
    for num, den in zip(s_vals[:P], g_vals[:P]):
        core = core * num / den
    # the mu - lambda factors on each slot's own shape, then the pair
    # factors on the grid, in place
    g_slot, s_slot = iter(g_vals[2 * P:]), iter(s_vals[2 * P:])
    for row in lam_mu:
        core = core * (math.prod(itertools.islice(g_slot, m - 1))
                       / math.prod(itertools.islice(s_slot, len(row))))
    for num, den, (_, index) in zip(s_vals[P:2 * P], g_vals[P:2 * P],
                                    diffs):
        core *= _gathered(num / den, index)
    per_height = g_vals[2 * P + m * (m - 1):]
    slots = [[num / den for num, den in zip(
        per_height[2 * m * h:2 * m * h + m],
        per_height[2 * m * h + m:2 * m * (h + 1)])] for h in range(len(s1s))]
    return core, slots


def _gathered(vals, index):
    """Values on the distinct sums of `_distinct_sums`, gathered back to the
    broadcast shape of its terms."""
    return vals if index is None else vals[sum(index)]


def _distinct_sums(*terms):
    """The distinct values of a sum of terms, and the index that gathers
    them back to the broadcast shape of the terms.

    A term is a value or an array holding a contiguous run of the
    quadrature nodes -1/2 + k/R, possibly negated; the arrays broadcast
    against each other.  With the nodes evenly spaced, a sum is fixed by
    its total integer node offset: there are at most (number of arrays) x
    (R - 1) + 1 distinct sums, and the index is that offset.  It comes as
    one broadcastable part per array, summed where a gather needs it, so
    no index of the full grid outlives its gather.  For R a power of two
    the node sums are exact, so every point gets the bits of a pointwise
    sum.  Without an array term the index is None.
    """
    runs = [t for t in terms if np.size(t) > 1]
    rest = [np.ravel(t)[0] for t in terms if np.size(t) == 1]
    if not runs:
        return sum(rest), None
    start, index, count = 0.0, [], 1
    for t in runs:
        vals, idx = np.unique(t, return_inverse=True)
        start += vals[0]
        index.append(idx.reshape(np.shape(t)))
        count += len(vals) - 1
        step = vals[1] - vals[0]
    return sum(rest, start + step * np.arange(count)), index


def _classify_zetas(path, config, params):
    """Split the path arguments into the unshifted/shifted inhomogeneity
    families (in the tilde variables), with their unit pairs (see
    `AdjacentPath.check_zetas`); coinciding arguments, where the integrand
    is singular, raise DegenerateConfigError."""
    et = params.eta_tilde
    zetas, _, units = path.check_zetas(config, params)
    zt = [et * z for z in zetas]
    xt = [et * x for x in config.xi]
    fam = []
    for z in zt:
        if any(abs(z - x) < 1e-9 for x in xt):
            fam.append("plain")
        elif any(abs(z - (x - et)) < 1e-9 for x in xt):
            fam.append("shifted")
        else:
            raise ValueError(
                "path argument outside the (possibly shifted) inhomogeneity "
                "family required by the thermodynamic representation")
    return zt, fam, units


def check_resolution(resolution):
    """The estimate reads the half grid off the even-indexed nodes."""
    if resolution < 2 or resolution % 2:
        raise ValueError(f"resolution must be even and positive, got "
                         f"{resolution}")
    return resolution


def lhp_table(path, labels, shifts, config, params, resolution,
              tolerance=None, perturb_degenerate=False):
    """Multi-point LHPs at adjacent sites for a table of records: each flat
    ground-state label (eps, t) in `labels` with each height shift c in
    `shifts`, which raises every height of the path by c.

    Returns {(eps, t, c): (value, error_estimate)} in report order, labels
    outer.  All records share one quadrature grid.  The estimate compares
    the quadrature with its half-resolution subgrid (an even `resolution`
    has one); with `tolerance` set, the first record in report order whose
    estimate is above it raises AccuracyError.  Degenerate argument pairs
    {xi~, xi~ - eta~} raise DegenerateConfigError unless perturb_degenerate
    is set, in which case a Richardson extrapolation over two small offsets
    is used.
    """
    m = path.m
    if m > 3:
        raise ValueError("multiple integrals supported for m <= 3 only")
    check_resolution(resolution)
    records = [(eps, t, c) for eps, t in labels for c in shifts]
    if m == 0:
        return {(eps, t, c): (one_point_barP(path.heights[0] + c, 0.0, eps, t,
                                             params), 0.0)
                for eps, t, c in records}
    zt, fam, units = _classify_zetas(path, config, params)
    if units:
        if not perturb_degenerate:
            p, q = units[0]
            raise DegenerateConfigError(
                f"path arguments z_{q + 1} and z_{p + 1} = z_{q + 1} - 1 form "
                "a degenerate pair {xi~, xi~ - eta~} of the multiple integral")
        return dict(zip(records, _lhp_perturbed(path, records, zt, fam, units,
                                                params, resolution)))
    table = {}
    for rec, (full, half) in zip(records, _lhp_contour_sum(
            path, records, zt, fam, params, resolution)):
        estimate = abs(full - half)
        if tolerance is not None and not estimate <= tolerance:
            floor = ("; m = 3 estimates bottom out near 5e-14, where the "
                     "residue-combination sums cancel" if m == 3 else "")
            raise AccuracyError(
                f"quadrature estimate {estimate:.2e} above tolerance "
                f"{tolerance:.2e} at resolution {resolution}{floor}")
        table[rec] = (full, estimate)
    return table


def multipoint_lhp(path, eps, t_label, config, params, resolution=512,
                   perturb_degenerate=False, tolerance=None):
    """Multi-point LHP of one flat label at the path's own heights: the
    single record (eps, t_label, 0) of `lhp_table`, as (value, estimate)."""
    return lhp_table(path, [(eps, t_label)], [0], config, params, resolution,
                     tolerance, perturb_degenerate)[eps, t_label, 0]


def _lhp_perturbed(path, records, zt0, fam, units, params, resolution):
    """Richardson extrapolation over perturbed degenerate argument pairs,
    one (value, estimate) per record.

    The member of each unit pair (p, q) sitting in the shifted family,
    z~_p = z~_q - eta~, is moved by a small real delta; the limit
    delta -> 0 is then taken linearly from two offsets.
    """
    deltas = (1e-4, 5e-5)
    moved = {p for p, _ in units}
    sums = []
    for d in deltas:
        zt = [z + d if p in moved else z for p, z in enumerate(zt0)]
        sums.append(_lhp_contour_sum(path, records, zt, fam, params,
                                     resolution))
    out = []
    for (v1, _), (v2, _) in zip(*sums):
        extrap = v2 + (v2 - v1) * deltas[1] / (deltas[0] - deltas[1])
        out.append((extrap, abs(v2 - v1)))
    return out


def _lhp_contour_sum(path, records, zt, fam, params, resolution):
    """The quadrature of each (eps, t, c) record at `resolution` and on its
    even-indexed subgrid, the nodes of resolution // 2: one (full, half)
    pair per record.

    Per residue combination and slab the integrand core, the node-sum
    gather and the one-point factor of every record on the distinct node
    sums are evaluated once; each height shift c multiplies the core by its
    own slot ratios.
    """
    m = path.m
    alphas = path.alphas
    by_shift = {}
    for i, (_, _, c) in enumerate(records):
        by_shift.setdefault(c, []).append(i)
    s1s = [params.height(path.heights[0] + c) for c in by_shift]
    eps, t_label, shift = np.array(records).T
    mus = np.asarray(zt, dtype=complex)

    # admissible residue targets per integration slot
    _, n_minus = slot_positions(alphas)
    choices = []
    for p in range(m):
        want, weight = ("shifted", 1.0) if p < n_minus else ("plain", -1.0)
        choices.append([("seg", None)] + [(weight, z) for z, f in zip(zt, fam)
                                          if f == want])

    nodes = -0.5 + np.arange(resolution) / resolution
    total = [0.0j] * len(records)
    half = [0.0j] * len(records)
    for combo in itertools.product(*choices):
        frozen = [c[0] != "seg" for c in combo]
        weight = math.prod(c[0] for c in combo if c[0] != "seg")
        free = [p for p in range(m) if not frozen[p]]
        # frozen lambdas landing on the same point vanish via the Cauchy core
        pts = [c[1] for c in combo if c[0] != "seg"]
        if len(pts) != len(set(pts)):
            continue

        # slab the leading axis of a 3-d grid so it stays in memory
        slab = (resolution if len(free) <= 2 else
                max(1, SLAB_POINTS // resolution ** (len(free) - 1)))
        blocks = [0.0j] * len(records)
        for first in range(0, resolution, slab):
            # each free lambda on its own grid axis, a frozen one a value;
            # the leading axis starts at node `first`
            lams = [c[1] for c in combo]
            for axis, p in enumerate(free):
                run = nodes[first:first + slab] if axis == 0 else nodes
                lams[p] = run.reshape(
                    (1,) * axis + (-1,) + (1,) * (len(free) - axis - 1))
            core, slots = integrand_core(lams, s1s, alphas, mus, params,
                                         frozen)
            zs, index = _distinct_sums(*lams, -mus.sum())
            pb = one_point_barP(path.heights[0] + shift, zs, eps, t_label,
                                params, mode="closed")
            for ratios, rows in zip(slots, by_shift.values()):
                gs = core * ratios[0]
                for ratio in ratios[1:]:
                    gs *= ratio
                for i in rows:
                    blocks[i] = blocks[i] + _block_sums(
                        gs, _gathered(pb[i], index), first)
                del gs   # one height's grid alive at a time
        for i, block in enumerate(blocks):
            total[i] += weight * block[0] / (resolution ** len(free))
            half[i] += weight * block[1] / ((resolution // 2) ** len(free))
    return list(zip(total, half))


def _block_sums(gs, pb, first):
    """The sums of gs * pb over a block of the grid and over its
    even-indexed nodes, the leading axis starting at node `first`.

    An array pb is overwritten with the product.  The operands keep their
    order, (core slots) P: with fused multiply-adds a complex product
    rounds apart from its swap.
    """
    vals = (np.multiply(gs, pb, out=pb) if np.ndim(pb)
            else np.asarray(gs * pb))
    even = vals[tuple(slice(first % 2 if axis == 0 else 0, None, 2)
                      for axis in range(np.ndim(vals)))]
    return np.array([np.sum(vals), np.sum(np.ascontiguousarray(even))])
