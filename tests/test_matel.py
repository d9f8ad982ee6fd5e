"""Multi-point matrix elements: oracle chain and determinant machinery."""

import functools
import itertools

import numpy as np
import pytest

from csoslab.elliptic import (DegenerateConfigError, ModelParams, PoleError,
                              SizeGuardError)
from csoslab.lattice import LatticeConfig, homogeneous_config
from csoslab import lattice
from csoslab import bethe as B
from csoslab import contract as C
from csoslab import matel as M
from csoslab import scalar as S
from csoslab import thermo as T


def path_down(heights, start=(1, 1)):
    return M.vertical_path(heights, start=start)


PATH0 = M.AdjacentPath(vertices=((1, 1),), heights=(1,))
PATH1 = M.vertical_path((1, 2))
PATH1_UP = M.AdjacentPath(vertices=((2, 1), (1, 1)), heights=(1, 2))
PATH2 = M.vertical_path((0, 1, 2))
PATH2_MIX = M.vertical_path((0, 1, 0))


class TestPathGeometry:
    def test_alphas_and_zetas(self, config4):
        assert PATH2.alphas == (1, 1)
        zs = PATH2.zetas(config4)
        assert zs == (config4.xi[0], config4.xi[1])
        up = PATH1_UP.zetas(config4)
        assert up == (config4.xi[0] - 1.0,)

    def test_bad_paths_rejected(self):
        with pytest.raises(ValueError):
            M.AdjacentPath(vertices=((1, 1), (3, 1)), heights=(0, 1))
        with pytest.raises(ValueError):
            M.AdjacentPath(vertices=((1, 1), (2, 1)), heights=(0, 2))

    def test_integer_coordinates_required(self):
        # heights and vertex coordinates are integers of Python or numpy;
        # bool, float and str are refused
        for verts, heights in ((((1, 1), (2, 1)), (0.5, 1.5)),
                               (((1, 1), (2, 1)), (1.0, 2.0)),
                               (((1, 1), (2, 1)), ("0", "1")),
                               (((1, 1), (2, 1)), (True, False)),
                               ((("2", 1), (3, 1)), (0, 1)),
                               (((1, 1.0), (2, 1)), (0, 1)),
                               (((1, 1, 1), (2, 1)), (0, 1))):
            with pytest.raises(ValueError, match="integer"):
                M.AdjacentPath(vertices=verts, heights=heights)
        path = M.AdjacentPath(vertices=((np.int64(1), 1), (2, np.int32(1))),
                              heights=(np.int64(1), np.int8(2)))
        assert path.alphas == (1,)

    def test_vertices_off_the_lattice_refused(self):
        # rows 1..N+1 and columns 1..M+1: no index wraps around to xi_N or w_M
        config = LatticeConfig(N=4, xi=(0.5,) * 4, w=(0.5 + 0.01j,))
        for verts in (((1, 1), (0, 1)), ((5, 1), (6, 1)), ((1, 0), (1, 1)),
                      ((1, 2), (1, 3)), ((6, 1),)):
            path = M.AdjacentPath(vertices=verts,
                                  heights=(1, 2)[:len(verts)])
            with pytest.raises(ValueError, match="outside the lattice"):
                path.zetas(config)
        path = M.AdjacentPath(vertices=((5, 1), (5, 2), (4, 2)),
                              heights=(0, 1, 2))
        assert path.zetas(config) == (config.w[0], config.xi[2] - 1.0)

    def test_zeta_collision_refused(self, params):
        config = LatticeConfig(N=4, xi=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(DegenerateConfigError):
            PATH2.check_zetas(config, params)

    def test_pair_checks_one_bracket_call(self, params, monkeypatch):
        # the pair relations are one bracket call over the pairs, none
        # without a pair; the collision message still names the pair
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        monkeypatch.setattr(ModelParams, "bracket", counted)
        config = LatticeConfig(N=4, xi=(0.5 + 0.01j, 0.5 - 0.02j,
                                        0.5 + 0.01j, 0.5 + 0.03j))
        with pytest.raises(DegenerateConfigError, match="z_1 and z_3 collide"):
            M.vertical_path((0, 1, 2, 3)).check_zetas(config, params)
        assert len(calls) == 1
        calls.clear()
        path = M.vertical_path((0, 1, 2))
        assert M.det_route_zetas(path, config, params) == path.zetas(config)
        assert len(calls) == 1
        calls.clear()
        for path in (PATH0, PATH1):
            assert M.det_route_zetas(path, config, params) == \
                path.zetas(config)
        assert calls == []

    def test_unit_separated_pair_refused_by_det_route(self, ground4):
        # {xi, xi-1} pairs break the [z_j - z_k + 1] denominators of the
        # tuple-sum coefficients; only the dense route handles them
        path = M.AdjacentPath(vertices=((1, 1), (2, 1), (1, 1)),
                              heights=(0, 1, 0))
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        with pytest.raises(DegenerateConfigError):
            M.mpme_det(us, vs, path, 0)
        val = M.mpme_bruteforce(us, vs, path, 0)
        assert np.isfinite(val)

    def test_near_pair_refused_before_kernels(self, params, monkeypatch):
        # |[z_1 - z_2]| = 1.1e-6 < PAIR_GAP_MIN: refused before a kernel is
        # built; the flat-basis element takes the dense route
        config = LatticeConfig(N=4, xi=(0.5, 0.5 + 1e-6j, 0.5 + 0.03j,
                                        0.5 - 0.02j))
        gs = B.all_ground_states(config, params)
        path = M.vertical_path((0, 1, 2))

        def built(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(M, "_h_transformed", built)
        with pytest.raises(DegenerateConfigError, match="too close"):
            M.mpme_det(gs[(0, 0)], gs[(1, 1)], path, 0)
        monkeypatch.undo()
        assert np.isfinite(M.flat_matrix_element(path, gs)[0, 0])

    def test_root_on_a_path_argument_refused_by_det_route(self):
        # at (L, r) = (3, 2), tau = 0.45i, physical s0, N = 6 the k = 0
        # states have their middle root at x = 1, where [v - z - 1] of the
        # path block vanishes: the det route refuses, the element and the
        # flat matrix take the dense route
        tau, L, r = 0.45j, 3, 2
        params = ModelParams(tau=tau, r=r, L=L, s0=tau / (2.0 * r / L))
        gs = B.all_ground_states(homogeneous_config(6), params)
        path = M.vertical_path((1, 2))
        for key in ((0, 0), (1, 0)):
            with pytest.raises(DegenerateConfigError, match="path argument"):
                M.mpme_det(gs[key], gs[(0, 0)], path, 1)
            basis = ("bethe", *key, 0, 0)
            assert (M.finite_lhp(path, basis, gs, method="det")
                    == M.finite_lhp(path, basis, gs, method="brute"))
        assert np.all(np.isfinite(M.flat_matrix_element(path, gs)))

    def test_json_roundtrip(self, config4):
        doc = PATH2.to_json_dict()
        back = M.AdjacentPath.from_json_dict(doc)
        assert back == PATH2
        assert doc["alphas"] == [1, 1]


class TestTupleSum:
    def test_enumeration_matches_recursive_count(self):
        def count_recursive(n, m, ipos, used=frozenset()):
            if not ipos:
                return 1
            total = 0
            for b in range(1, n + m + 1 - ipos[0] + 1):
                if b not in used:
                    total += count_recursive(n, m, ipos[1:], used | {b})
            return total

        for n, m, alphas in ((2, 1, (1,)), (2, 2, (1, -1)), (3, 2, (-1, -1)),
                             (4, 3, (1, -1, 1))):
            ipos, _ = M.slot_positions(alphas)
            tuples = M.enumerate_tuples(n, m, ipos)
            assert len(tuples) == count_recursive(n, m, list(ipos))

    def test_inversion_sign_consistency(self):
        b = M.enumerate_tuples(2, 1, (1,))
        got = dict(zip(b[:, 0].tolist(), M.inversion_counts(b).tolist()))
        assert got == {1: 0, 2: 1, 3: 2}

    def test_tuples_and_inversions_match_definition(self):
        # every slot order up to (n, m) = (4, 4): the tuple array and its
        # closed-form inversion counts against the product, the
        # distinctness filter and the pairwise count over (b, complement)
        for n in range(5):
            for m in range(5):
                for ipos in itertools.permutations(range(1, m + 1)):
                    want_b, want_inv = [], []
                    for b in itertools.product(
                            *(range(1, n + m + 2 - ip) for ip in ipos)):
                        if len(set(b)) != m:
                            continue
                        seq = b + tuple(sorted(
                            set(range(1, n + m + 1)) - set(b)))
                        want_b.append(list(b))
                        want_inv.append(sum(
                            seq[x] > seq[y] for x in range(n + m)
                            for y in range(x + 1, n + m)))
                    got = M.enumerate_tuples(n, m, ipos)
                    assert got.shape == (len(want_b), m)
                    assert got.tolist() == want_b
                    assert M.inversion_counts(got).tolist() == want_inv


class TestHeightFactor:
    def test_telescoping_identity(self, params, rng):
        s = params.height(1)
        for alphas in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
            a = C._f_alpha(s, alphas, 2, params)
            b = C._f_alpha_product_form(s, alphas, params, 2)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


class TestCommutationAction:
    def test_single_A_insertion_vs_operator(self, params, config4, ground4,
                                            rng):
        # m=1 and m=2 coefficients reproduce the brute-force action of the
        # full element through the partial-scalar sum; the m=2 paths run the
        # slot-pair products and the k > i_p factors of every slot order;
        # (3, 2) and (-1, 0, 1) read the phi weights at heights mod L
        for (uu, vv) in (((0, 0), (0, 0)), ((0, 0), (1, 1))):
            us, vs = ground4[uu], ground4[vv]
            for heights in ((1, 2), (1, 0), (0, 1, 2), (0, 1, 0), (2, 1, 0),
                            (3, 2), (-1, 0, 1)):
                path = path_down(heights)
                bf = M.mpme_bruteforce(us, vs, path, heights[0])
                s4 = C.mpme_sum_partial(us, vs, path, heights[0])
                assert abs(s4 - bf) / abs(bf) < 1e-10


class TestDeterminantRepresentation:
    @pytest.mark.parametrize("pair", [((0, 0), (0, 0)), ((0, 0), (1, 1)),
                                      ((0, 1), (1, 0))])
    def test_m0_and_m1(self, ground4, pair):
        us, vs = ground4[pair[0]], ground4[pair[1]]
        for path, a1 in ((PATH0, 1), (PATH1, 1), (PATH1_UP, 1)):
            bf = M.mpme_bruteforce(us, vs, path, a1)
            det = M.mpme_det(us, vs, path, a1)
            assert abs(det - bf) / abs(bf) < 1e-7

    @pytest.mark.parametrize("pair", [((0, 0), (0, 0)), ((0, 0), (1, 1))])
    def test_m2(self, ground4, pair):
        us, vs = ground4[pair[0]], ground4[pair[1]]
        for path in (PATH2, PATH2_MIX):
            bf = M.mpme_bruteforce(us, vs, path, 0)
            det = M.mpme_det(us, vs, path, 0)
            assert abs(det - bf) / abs(bf) < 1e-7

    # the mean-value pair takes its kernel from phi_twisted_matrix
    @pytest.mark.parametrize("pair", [((0, 0), (1, 1)), ((0, 0), (0, 0))],
                             ids=["distinct", "mean_value"])
    def test_reduction_routes_agree(self, ground4, pair):
        us, vs = ground4[pair[0]], ground4[pair[1]]
        dm = M.mpme_det(us, vs, PATH2, 0, reduction="m")
        dn = M.mpme_det(us, vs, PATH2, 0, reduction="n")
        assert abs(dm - dn) / abs(dm) < 1e-9

    def test_vanishing_t_is_a_pole(self, ground4):
        # gamma_retry redraws gamma on a PoleError
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        gamma = complex(np.sum(vs.v) - np.sum(us.v))
        with pytest.raises(PoleError):
            M.mpme_det(us, vs, PATH1, 1, gamma=gamma)

    def test_gamma_independence(self, ground4):
        us, vs = ground4[(0, 1)], ground4[(1, 0)]
        g1 = M.mpme_det(us, vs, PATH1, 1, gamma=S.default_gamma(us.params))
        g2 = M.mpme_det(us, vs, PATH1, 1, gamma=0.27 + 0.31j)
        assert abs(g1 - g2) / abs(g1) < 1e-8

    def test_m0_reduces_to_form_factor(self, ground4):
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        ff = C.delta_form_factor(us, vs, 1, route="brute") / (
            M.norm_root(us) * M.norm_root(vs))
        det = M.mpme_det(us, vs, PATH0, 1)
        assert abs(det - ff) / abs(ff) < 1e-10

    def test_diagonal_m0_real_physical(self, params_phys):
        from csoslab.lattice import homogeneous_config
        gs = B.all_ground_states(homogeneous_config(4), params_phys)
        roots = gs[(0, 0)]
        val = M.mpme_det(roots, roots, PATH0, 1)
        assert abs(val.imag) < 1e-9 * abs(val)


class TestMarginalization:
    def test_m1_and_m2(self, ground4):
        us, vs = ground4[(0, 1)], ground4[(1, 0)]
        lhs, rhs = C.marginal_check(us, vs, PATH1, 1)
        assert abs(lhs - rhs) / abs(rhs) < 1e-7
        lhs, rhs = C.marginal_check(us, vs, PATH2, 0)
        assert abs(lhs - rhs) / abs(rhs) < 1e-7

    def test_partition_of_unity(self, ground4):
        roots = ground4[(0, 0)]
        tot = sum(M.mpme_det(
            roots, roots, M.AdjacentPath(vertices=((1, 1),), heights=(a,)), a)
            for a in range(3))
        assert abs(tot - 1.0) < 1e-10


class TestAppendixIdentity:
    def test_transform_residuals(self, params, rng):
        for (n, m) in ((2, 1), (3, 2)):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            z = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.2, 0.2, m)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            alup = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                         for _ in range(4))
            bet = tuple(rng.standard_normal(m) + 1j * rng.standard_normal(m)
                        for _ in range(4))
            res = C.appendixB_identity_residual(u, v, z, gamma, alup, bet, m,
                                                params)
            assert res < 1e-10

    def test_x_determinant_closed_form(self, params, rng):
        for n in (2, 3):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            assert C.x_determinant_residual(gamma, u, v, params) < 1e-11


class TestTwistPartners:
    """Even L: ground states pair up with lattice-coincident root sets."""

    @pytest.fixture(scope="class")
    @staticmethod
    def family_L4():
        tau = 0.4j
        params = ModelParams(tau=tau, r=1, L=4, s0=tau / 0.5)
        ys = np.linspace(0.05, -0.05, 4)
        config = LatticeConfig(N=4, xi=tuple(0.5 + 1j * y for y in ys))
        return B.all_ground_states(config, params)

    def test_collision_classification(self, family_L4, ground4):
        assert M.root_collision(family_L4[(0, 0)], family_L4[(1, 1)]) == "equal"
        assert M.root_collision(family_L4[(0, 0)], family_L4[(0, 1)]) == "distinct"
        assert M.root_collision(ground4[(0, 0)], ground4[(1, 1)]) == "distinct"

    def test_partner_sum_rule_exact_integer(self, family_L4):
        a, b = family_L4[(0, 0)], family_L4[(1, 1)]
        assert abs(a.sum_x() - b.sum_x() + 1.0) < 1e-12

    def test_determinant_route_refuses_partner(self, family_L4):
        path0 = M.AdjacentPath(vertices=((1, 1),), heights=(0,))
        with pytest.raises(DegenerateConfigError):
            M.mpme_det(family_L4[(0, 0)], family_L4[(1, 1)], path0, 0)

    def test_dense_route_handles_partner(self, family_L4, monkeypatch):
        # the oracle contracts u's own left vector: it does not reach the
        # root-set classification of the determinant route
        def refuse(*args):
            raise AssertionError("the dense route read the det convention")

        monkeypatch.setattr(M, "root_collision", refuse)
        path0 = M.AdjacentPath(vertices=((1, 1),), heights=(0,))
        val = M.mpme_bruteforce(family_L4[(0, 0)], family_L4[(1, 1)],
                                path0, 0)
        assert np.isfinite(val)

    @pytest.mark.parametrize("L, r", [(4, 1), (4, 3), (6, 5)])
    def test_flat_one_point_tables_are_probabilities(self, L, r):
        # physical s0: the coinciding root sets the determinant route
        # refuses take the dense route, among them the (L, L - 1) pair
        # (0,0)-(1,0) with shifted representatives.  Every flat label gives
        # a probability table, and the gap to the closed form falls with N:
        # 9.6e-3, 4.2e-3, 1.5e-3 at (4, 1); 1.25e-3, 2.3e-5, 1.0e-6 at
        # (4, 3); 8.9e-3, 8.5e-4, 8.3e-5 at (6, 5), for N = 4, 6, 8.
        tau = 0.45j
        params = ModelParams(tau=tau, r=r, L=L, s0=tau * L / (2 * r))
        labels = M.flat_labels(params)
        gaps = []
        for N in (4, 6, 8):
            gs = B.all_ground_states(homogeneous_config(N), params)
            # one flat matrix per height; its diagonal holds every label
            vals = np.array([np.diag(M.flat_matrix_element(
                M.AdjacentPath(vertices=((1, 1),), heights=(a,)), gs))
                for a in range(L)])
            assert np.all(np.abs(vals.sum(axis=0) - 1.0) < 1e-12), N
            assert vals.real.min() >= -1e-12, N
            gaps.append(max(
                abs(vals[a, row] - T.one_point_barP(a, 0.0, eps, t, params))
                for a in range(L) for row, (eps, t) in enumerate(labels)))
        assert gaps[0] > gaps[1] > gaps[2], gaps

    def test_shifted_representatives_refused(self):
        # (4, 3): labels (0,0) and (1,0) share omega and a root set, with
        # representatives shifted by one lattice unit per root; the
        # mean-value kernel gets this pair wrong, so the route refuses it
        tau = 0.45j
        params = ModelParams(tau=tau, r=3, L=4, s0=tau * 4 / 6)
        gs = B.all_ground_states(homogeneous_config(4), params)
        us, vs = gs[(0, 0)], gs[(1, 0)]
        assert M.root_collision(us, vs) == "equal"
        assert abs(us.sum_x() - vs.sum_x() + 2.0) < 1e-12
        with pytest.raises(DegenerateConfigError, match="shifted"):
            M.mpme_det(us, vs, M.AdjacentPath(vertices=((1, 1),),
                                              heights=(0,)), 0)


class TestOracleBoundary:
    def test_production_routes_build_no_dense_operator(self, ground4,
                                                       monkeypatch):
        # every dense builder calls guard_dense; with it raising, the
        # left vector, the left eigenstate check, the norm and the flat-basis
        # element at odd L must still run
        from csoslab import lattice
        from csoslab.elliptic import SizeGuardError

        def refuse(config, params):
            raise SizeGuardError("dense operator built")

        monkeypatch.setattr(lattice, "guard_dense", refuse)
        with pytest.raises(SizeGuardError):
            C.transfer_dense(0.3, ground4[(0, 0)].config,
                                   ground4[(0, 0)].params)
        roots = ground4[(1, 0)]
        B.bethe_vector(roots, side="left")
        assert B.eigenstate_residual(roots, 0.23 + 0.11j, side="left") < 1e-8
        S.norm_det(roots)
        val = M.flat_matrix_element(PATH1, ground4)[0, 0]
        assert np.isfinite(val)


class TestLargeColumn:
    def test_det_vs_brute_n12(self, params_phys):
        # the brute-force oracle at N = 12 (L 2^N = 12,288 cells per
        # application), at the acceptance tolerance of criterion 6
        config = homogeneous_config(12)
        us = B.solve_ground_state(0, 0, config, params_phys)
        vs = B.solve_ground_state(1, 1, config, params_phys)
        bf = M.mpme_bruteforce(us, vs, PATH1, 1)
        det = M.mpme_det(us, vs, PATH1, 1)
        assert abs(det - bf) / abs(bf) < 1e-7


# column and model of the m = 3-4 checks: tau = 0.8i, r = 1, L = 3
COLUMN8 = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in (
    0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)))


@pytest.fixture(scope="module")
def ground8(params):
    return {key: B.solve_ground_state(*key, COLUMN8, params)
            for key in ((0, 0), (1, 1), (0, 1), (1, 0))}


class TestLongPaths:
    # absolute det-vs-brute gap: ten times the worst of the three pairs
    # before the tuple sum became one array pass, and at least 1e-14; the
    # upward steps lose digits to the cancellation of the tuple sum
    @pytest.mark.parametrize("heights, bound", [
        ((0, 1, 2, 3), 1.7e-12), ((0, 1, 2, 3, 4), 1.3e-9),
        ((3, 2, 1, 0), 2.2e-15), ((2, 1, 0, -1, -2), 2.4e-15),
        ((0, 1, 0, 1), 5.0e-13), ((0, 1, 2, 1, 0), 1.1e-10),
        ((1, 0, 1, 0, 1), 5.2e-12)])
    def test_det_vs_brute_m3_m4(self, ground8, heights, bound):
        path = M.vertical_path(heights)
        for uu, vv in (((0, 0), (0, 0)), ((0, 0), (1, 1)),
                       ((0, 1), (1, 0))):
            us, vs = ground8[uu], ground8[vv]
            bf = M.mpme_bruteforce(us, vs, path, heights[0])
            det = M.mpme_det(us, vs, path, heights[0])
            assert abs(det - bf) < bound, (uu, vv, abs(det - bf))

    @pytest.mark.parametrize("reduction", ["m", "n"])
    def test_value_independent_of_block_size(self, ground8, monkeypatch,
                                             reduction):
        # 125 tuples in one block, then in blocks of 3 tuples
        us, vs = ground8[(0, 0)], ground8[(1, 1)]
        path = M.vertical_path((0, 1, 2, 3))
        whole = M.mpme_det(us, vs, path, 0, reduction=reduction)
        monkeypatch.setattr(M, "TUPLE_BLOCK", 3)
        assert M.mpme_det(us, vs, path, 0, reduction=reduction) == whole


class TestNormMemo:
    def test_each_norm_computed_once(self, params, config4, monkeypatch):
        # fresh root sets: the session fixtures may already hold their norms
        gs = B.all_ground_states(config4, params)
        calls = []
        norm_det = M.norm_det

        def counted(root_set):
            calls.append(root_set.k * 10 + root_set.ell)
            return norm_det(root_set)

        monkeypatch.setattr(M, "norm_det", counted)
        for rs in gs.values():
            rs.memo = _GaudinStores(key="norm")
        val = M.flat_matrix_element(PATH1, gs)[0, 0]
        # one read per state through norm_root, one store per state from
        # the table's family pass
        assert sorted(calls) == [0, 1, 10, 11]
        assert [rs.memo.stores for rs in gs.values()] == [1] * len(gs)
        # the same value, to the bit, as a norm computed on every use
        fresh = B.all_ground_states(config4, params)
        for rs in fresh.values():
            rs.memo = _GaudinStores(keep=False, key="norm")
        assert M.flat_matrix_element(PATH1, fresh)[0, 0] == val

    def test_dense_table_norms_in_one_pass(self, params, config4,
                                           monkeypatch):
        # root sets with their measures cleared: the K x K dense table
        # takes the norms of its states in one family pass, one Jacobian
        # call
        states = list(B.all_ground_states(config4, params).values())
        for st in states:
            st.memo.clear()
        calls = []
        system = B._bethe_system

        def counted(*args):
            calls.append(1)
            return system(*args)

        monkeypatch.setattr(B, "_bethe_system", counted)
        M._dense_table(PATH1, 1, states, states)
        assert len(calls) == 1


class TestTwistWeightMemo:
    def test_weights_computed_once_per_height(self, ground4, monkeypatch):
        # the table's one stacked pass asks for the weights once per gamma
        # draw; they are evaluated once per (height, gamma) pair
        S.twist_weights.cache_clear()
        val = M.flat_matrix_element(PATH1, ground4)[0, 0]
        info = S.twist_weights.cache_info()
        assert info.misses == 1       # the path's height s0 + 1, one gamma
        assert info.hits + info.misses == 1
        # the same value, to the bit, as weights computed on every use
        monkeypatch.setattr(M, "twist_weights", S.twist_weights.__wrapped__)
        assert M.flat_matrix_element(PATH1, ground4)[0, 0] == val

    def test_cached_weights_are_read_only(self, params):
        w = S.twist_weights(params.height(1), 0.2 + 0.1j, params)
        assert w is S.twist_weights(params.height(1), 0.2 + 0.1j, params)
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestNormRoot:
    @pytest.mark.parametrize("L, r", [(3, 1), (3, 2), (4, 1), (5, 2)])
    def test_own_root_needs_no_partner(self, L, r):
        # the premise of norm_root: (-1)^n N / omega^{2n} is a positive
        # real on every ground state, so its principal root fixes the
        # branch of ||u|| from the state alone
        for tau in (0.45j, 0.8j):
            for s0 in (tau * L / (2 * r), 0.41 + 0.13j):
                params = ModelParams(tau=tau, r=r, L=L, s0=s0)
                for N in (4, 6, 8):
                    gs = B.all_ground_states(homogeneous_config(N), params)
                    for rs in gs.values():
                        nrm = S.norm_det(rs)
                        ratio = (-1) ** rs.n * nrm / rs.omega_pow(2 * rs.n)
                        assert abs(np.angle(ratio)) < 1e-10, (N, rs.k, rs.ell)
                        assert abs(M.norm_root(rs) ** 2 - nrm) < \
                            1e-14 * abs(nrm)


class _GaudinStores(dict):
    """A root-set memo that counts the entries stored under `key` (the
    Gaudin matrix by default); with keep=False it drops them, so the entry
    is computed on every use."""

    def __init__(self, keep=True, key="gaudin"):
        super().__init__()
        self.keep, self.key, self.stores = keep, key, 0

    def __setitem__(self, key, value):
        if key == self.key:
            self.stores += 1
            if not self.keep:
                return
        super().__setitem__(key, value)


class TestGaudinMemo:
    def test_each_kernel_computed_once(self, params, config4):
        gs = B.all_ground_states(config4, params)
        for rs in gs.values():
            rs.memo = _GaudinStores()
        val = M.flat_matrix_element(PATH1, gs)[0, 0]
        assert [rs.memo.stores for rs in gs.values()] == [1] * len(gs)
        mat = S.gaudin_matrix(gs[(0, 0)])
        assert not mat.flags.writeable
        assert S.gaudin_matrix(gs[(0, 0)]) is mat
        # the same value, to the bit, as a matrix computed on every use
        fresh = B.all_ground_states(config4, params)
        for rs in fresh.values():
            rs.memo = _GaudinStores(keep=False)
        assert M.flat_matrix_element(PATH1, fresh)[0, 0] == val
        assert all(rs.memo.stores > 1 for rs in fresh.values())


    def test_own_d_computed_once(self, params, config4):
        # d at a set's own roots, read by mpme_det, norm_det and the
        # partial scalar product
        gs = B.all_ground_states(config4, params)
        for rs in gs.values():
            rs.memo = _GaudinStores(key="d")
        val = M.flat_matrix_element(PATH1, gs)[0, 0]
        assert [rs.memo.stores for rs in gs.values()] == [1] * len(gs)
        us = gs[(0, 0)]
        d = S._own_d(us)
        assert not d.flags.writeable and np.array_equal(d, us.d_fun(us.v))
        fresh = B.all_ground_states(config4, params)
        for rs in fresh.values():
            rs.memo = _GaudinStores(keep=False, key="d")
        assert M.flat_matrix_element(PATH1, fresh)[0, 0] == val
        assert all(rs.memo.stores > 1 for rs in fresh.values())


class TestSectorStacks:
    """The appendix-B builders with one coefficient row per twist sector
    equal the single-sector calls, sector by sector, to the bit."""

    @staticmethod
    def _coefficients(rng, sectors, cols):
        return tuple(rng.standard_normal((sectors, cols))
                     + 1j * rng.standard_normal((sectors, cols))
                     for _ in range(4))

    @pytest.mark.parametrize("per_column", [False, True])
    def test_builders(self, params, rng, per_column):
        n, m, L = 3, 2, 4
        u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        z = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.2, 0.2, m)
        gamma = 0.27 + 0.19j
        alup = self._coefficients(rng, L, n if per_column else 1)
        bet = self._coefficients(rng, L, m if per_column else 1)
        h = M._h_transformed(gamma, u, v, alup, params)
        q = M._q_transformed(gamma, u, v, z, bet, params)
        assert h.shape == (L, n, n) and q.shape == (L, n, m)
        for nu in range(L):
            row = tuple(a[nu] for a in alup)
            assert np.array_equal(h[nu], M._h_transformed(gamma, u, v, row,
                                                          params))
            row = tuple(b[nu] for b in bet)
            assert np.array_equal(q[nu], M._q_transformed(gamma, u, v, z,
                                                          row, params))

    @pytest.mark.parametrize("per_column", [False, True])
    def test_untransformed_kernel(self, params, per_column):
        rng = np.random.default_rng(12)
        n, m, L = 3, 2, 4
        u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
        z = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.2, 0.2, m)
        bet = self._coefficients(rng, L, m if per_column else 1)
        stack = C._q_beta(0.27 + 0.19j, u, v, z, bet, params)
        assert stack.shape == (L, n, m)
        for nu in range(L):
            row = tuple(b[nu] for b in bet)
            assert np.array_equal(stack[nu], C._q_beta(0.27 + 0.19j, u, v, z,
                                                       row, params))

    def test_mean_value_kernel(self, ground4):
        vs = ground4[(1, 1)]
        L = vs.params.L
        q = vs.params.q
        qm = np.array([[q ** (-nu)] for nu in range(L)])
        qp = np.array([[q ** nu] for nu in range(L)])
        stack = M._mean_value_kernel(0.27 + 0.19j, [vs], qm, qp)[0]
        assert stack.shape == (L, vs.n, vs.n)
        for nu in range(L):
            one = M._mean_value_kernel(0.27 + 0.19j, [vs], qm[nu], qp[nu])
            assert np.array_equal(stack[nu], one[0, 0])
        # a stack of right states: each state's kernel, to the bit
        states = [ground4[key] for key in sorted(ground4)]
        both = M._mean_value_kernel(0.27 + 0.19j, states, qm, qp)
        for st, got in zip(states, both):
            assert np.array_equal(got, M._mean_value_kernel(
                0.27 + 0.19j, [st], qm, qp)[0])

    def test_mean_value_kernel_one_bracket_call(self, ground4, monkeypatch):
        # [1]' is a constant of the model and [1] rides on the kernel's
        # one bracket call; the values are those of the bracket formula
        vs = ground4[(1, 1)]
        params = vs.params
        qm = np.array([[params.q ** -1]])
        qp = np.array([[params.q]])
        S.gaudin_matrix(vs)     # memoized with the state
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(order)
            return bracket(self, u, order=order)

        monkeypatch.setattr(ModelParams, "bracket", counted)
        got = M._mean_value_kernel(0.27 + 0.19j, [vs], qm, qp)[0]
        monkeypatch.setattr(ModelParams, "bracket", bracket)
        assert calls == [0]
        v = vs.v
        *brs, b1 = params.brackets(
            *M._h_kernel_args(0.27 + 0.19j, v[:, None] - v[None, :]), 1.0)
        diag = np.diag(S.gaudin_matrix(vs)) - 2.0 * params.bracket(
            1.0, order=1) / b1
        ref = np.eye(vs.n) * diag[:, None] + M._h_kernel(brs, qm, qp, params)
        assert np.array_equal(got, ref)


class TestSectorIndependence:
    def test_bracket_calls_do_not_grow_with_L(self, monkeypatch):
        # one m = 1 mpme_det at N = 8 evaluates its brackets once per call,
        # not once per twist sector: L = 3 and L = 5 make as many calls
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in (
            0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)))
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        counts = {}
        for L in (3, 5):
            params = ModelParams(tau=0.8j, r=1, L=L, s0=0.41 + 0.13j)
            us = B.solve_ground_state(0, 0, config, params)
            vs = B.solve_ground_state(1, 1, config, params)
            monkeypatch.setattr(ModelParams, "bracket", counted)
            calls.clear()
            M.mpme_det(us, vs, PATH1, 1)
            counts[L] = len(calls)
            monkeypatch.setattr(ModelParams, "bracket", bracket)
        assert counts[3] == counts[5], counts

    def test_bracket_calls_do_not_grow_with_tuples(self, monkeypatch):
        # one m = 3 mpme_det evaluates its brackets as tables, not once per
        # tuple: N = 4 (27 tuples) and N = 8 (125 tuples) make as many calls
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        params = ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j)
        path = M.vertical_path((0, 1, 2, 3))
        counts = {}
        for N in (4, 8):
            config = LatticeConfig(N=N, xi=tuple(0.5 + 1j * y for y in (
                0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)[:N]))
            us = B.solve_ground_state(0, 0, config, params)
            vs = B.solve_ground_state(1, 1, config, params)
            ipos, _ = M.slot_positions(path.alphas)
            assert len(M.enumerate_tuples(us.n, path.m, ipos)) == {
                4: 27, 8: 125}[N]
            monkeypatch.setattr(ModelParams, "bracket", counted)
            calls.clear()
            M.mpme_det(us, vs, path, 0)
            counts[N] = len(calls)
            monkeypatch.setattr(ModelParams, "bracket", bracket)
        assert counts[4] == counts[8], counts
        # each builder stacks its brackets into one call, and so do the
        # pair relations of check_zetas; the norms of the two states came
        # with their solve, and the Gaudin matrices from the Bethe
        # Jacobian, outside the bracket (one call per factor made 73, one
        # norm pass per state 10, norms taken at the table 9)
        assert counts[4] == 7, counts

    def test_partial_scalar_bracket_calls_do_not_grow_with_L(self,
                                                             monkeypatch):
        # one partial_scalar_det builds its L sector kernels as one stack
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in (
            0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)))
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        counts = {}
        for L in (3, 5):
            params = ModelParams(tau=0.8j, r=1, L=L, s0=0.41 + 0.13j)
            us = B.solve_ground_state(0, 0, config, params)
            vs = B.solve_ground_state(1, 1, config, params)
            monkeypatch.setattr(ModelParams, "bracket", counted)
            calls.clear()
            C.partial_scalar_det(us, vs.v, 1)
            counts[L] = len(calls)
            monkeypatch.setattr(ModelParams, "bracket", bracket)
        assert counts[3] == counts[5], counts


class TestFlatBasis:
    def test_rows_sum_to_one(self, ground4):
        # one flat matrix per height; its diagonal holds every label
        params = ground4[(0, 0)].params
        tot = sum(M.flat_matrix_element(
            M.AdjacentPath(vertices=((1, 1),), heights=(a,)), ground4)
            for a in range(params.L))
        assert np.all(np.abs(np.diag(tot) - 1.0) < 1e-9)

    def test_bethe_basis_route(self, ground4):
        val = M.finite_lhp(PATH1, ("bethe", 0, 0, 1, 1), ground4)
        direct = M.mpme_det(ground4[(0, 0)], ground4[(1, 1)], PATH1, 1)
        assert abs(val - direct) < 1e-12

    def test_bethe_basis_falls_back_as_the_flat_one(self, params):
        # |[z_1 - z_2]| = 1.1e-6 < PAIR_GAP_MIN: both bases take the dense
        # route through the one pair evaluator
        config = LatticeConfig(N=4, xi=(0.5, 0.5 + 1e-6j, 0.5 + 0.03j,
                                        0.5 - 0.02j))
        gs = B.all_ground_states(config, params)
        path = M.vertical_path((0, 1, 2))
        val = M.finite_lhp(path, ("bethe", 0, 0, 1, 1), gs)
        assert val == M.mpme_bruteforce(gs[(0, 0)], gs[(1, 1)], path, 0)
        assert abs(val - (0.0032302262498513476
                          + 0.0006011837310080592j)) < 1e-12

    def test_m1_bond_path_vs_inverse_problem(self, ground4, config4):
        # the single-step element equals the reconstructed bond operator
        # E_1^{aa} sandwiched with the height projector
        from csoslab.lattice import local_operator_apply
        import csoslab.bethe as BB
        params = ground4[(0, 0)].params
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        nrm = M.norm_root(us) * M.norm_root(vs)
        for heights, alpha in (((1, 2), 1), ((1, 0), -1)):
            path = M.vertical_path(heights)
            det = M.mpme_det(us, vs, path, 1)
            # dense route: delta_{s1} E_1^{alpha alpha} between the vectors
            emat = C.local_operator_dense("E", config4, params,
                                          i=1, alpha=alpha, beta=alpha)
            rv = BB.bethe_vector(vs, side="right")
            from csoslab.lattice import StateVector
            acted = StateVector(config4, params,
                                emat @ rv.amps.reshape(-1))
            acted = local_operator_apply("delta", acted, i=1, a=1)
            val = BB.bethe_vector(us, side="left").dot(acted) / nrm
            assert abs(det - val) / abs(val) < 1e-8

    def test_flat_basis_asymptotic_diagonality(self):
        # off-diagonal flat-basis elements shrink with N (tested at the
        # ordered point where N=8 is already deep in the asymptotic regime)
        params = ModelParams(tau=0.3j, r=1, L=3, s0=0.3 + 0.45j)
        ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
        gs = B.all_ground_states(config, params)
        flat = M.flat_matrix_element(PATH0, gs)
        assert flat.shape == (4, 4)
        assert np.max(np.abs(flat - np.diag(np.diag(flat)))) < 1e-4

    def test_flat_value_at_a_thermo_gamma_pole(self):
        # at this s0 the default gamma sits on a pole of the thermodynamic
        # one-point prefactor (pair (0,0)-(0,1), height s0); the finite
        # route reads no thermodynamic value
        params = ModelParams(tau=0.45j, r=1, L=3, s0=-0.2131 - 0.905985j)
        gs = B.all_ground_states(homogeneous_config(6), params)
        val = M.finite_lhp(M.vertical_path((1, 2)), ("flat", 0, 0), gs)
        assert np.isfinite(val)

    @pytest.mark.parametrize("L, r", [(3, 1), (3, 2), (5, 2), (7, 3)])
    @pytest.mark.parametrize("tau", [0.45j, 0.8j])
    def test_sign_rule_matches_thermo_branch(self, L, r, tau):
        # oracle: the thermodynamic one-point value of the pair (0,0)-key at
        # its largest height picks the nearer of +-1 for the finite element;
        # the sign (-1)^{k n} the norm roots give it must be that sign, by a
        # clear margin
        params = ModelParams(tau=tau, r=r, L=L, s0=tau * L / (2 * r))
        worst = 0.0
        for N in (4, 6, 8, 10):
            gs = B.all_ground_states(homogeneous_config(N), params)
            for key in sorted(gs)[1:]:
                pbs = S.gamma_retry(
                    lambda g: [C._pbar_bethe_pair(params.height(a), 0.0,
                                                  key[0], key[1], params, g)
                               for a in range(L)], params, None)
                a_max = int(np.argmax(np.abs(pbs)))
                pb = pbs[a_max]
                path = M.AdjacentPath(vertices=((1, 1),), heights=(a_max,))
                val = M.finite_lhp(path, ("bethe", 0, 0, *key), gs)
                worst = max(worst, abs(val - pb) / abs(val + pb))
        assert worst < 0.5, worst

    def test_horizontal_step(self, params, ground4):
        # a horizontal step draws its argument from the column list, which
        # must sit in the (possibly shifted) row-inhomogeneity family
        ys = (0.04, -0.03, 0.02, -0.05)
        xi = tuple(0.5 + 1j * y for y in ys)
        config = LatticeConfig(N=4, xi=xi, w=(xi[1],))
        gs = B.all_ground_states(config, params)
        path = M.AdjacentPath(vertices=((1, 1), (1, 2)), heights=(1, 2))
        assert path.zetas(config) == (xi[1],)
        us, vs = gs[(0, 0)], gs[(1, 1)]
        bf = M.mpme_bruteforce(us, vs, path, 1)
        det = M.mpme_det(us, vs, path, 1)
        assert abs(det - bf) / abs(bf) < 1e-8

    def test_anchor_factor(self, ground4, config4):
        # shifting the anchor down one row multiplies by an eigenvalue
        # ratio, on every pair of the K x K table
        shifted = M.AdjacentPath(vertices=((2, 1),), heights=(1,))
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        base = M.finite_lhp(shifted, ("bethe", 0, 0, 1, 1), ground4)
        plain = M.mpme_det(us, vs, shifted, 1)
        ratio = (B.eigenvalue_tau(config4.xi[0], us)
                 / B.eigenvalue_tau(config4.xi[0], vs))
        assert abs(base - plain * ratio) < 1e-12
        states = list(ground4.values())
        table = M._pair_table(shifted, states, states, "det")
        for row, u_set in zip(table, states):
            for val, v_set in zip(row, states):
                ratio = (B.eigenvalue_tau(config4.xi[0], u_set)
                         / B.eigenvalue_tau(config4.xi[0], v_set))
                ref = _per_pair_element(u_set, v_set, shifted)
                assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))
                plain = (M.mpme_bruteforce(u_set, v_set, shifted, 1)
                         * ratio)
                assert abs(val - plain) < 1e-10 * max(1.0, abs(plain))



def _physical(L, r, tau=0.45j):
    return ModelParams(tau=tau, r=r, L=L, s0=tau * L / (2 * r))


def _flat_states(gs):
    """The ground states in the order of the flat_matrix_element table."""
    params = next(iter(gs.values())).params
    return [gs[key] for key in M.flat_basis_phases(0, 0, params)]


def _per_pair_element(u_set, v_set, path):
    """The per-pair route, independent of the router: mpme_det, the dense
    route where mpme_det refuses, times the anchor factor."""
    try:
        val = M.mpme_det(u_set, v_set, path, path.heights[0])
    except DegenerateConfigError:
        val = M.mpme_bruteforce(u_set, v_set, path, path.heights[0])
    return val * (M._anchor_weight(path, u_set)
                  / M._anchor_weight(path, v_set))


def _per_pair_table(path, states):
    return np.array([[_per_pair_element(u_set, v_set, path)
                      for v_set in states] for u_set in states])


def _table(path, states):
    return np.array(M._pair_table(path, states, states, "det"))


def _branches(states, path):
    """The routes the pairs of a table take: distinct and mean-value pairs
    on the determinant route; twist partners with different omega^2,
    shifted representatives and a root x on a path argument z or z +- 1
    on the dense one."""
    z = np.asarray(path.zetas(states[0].config), dtype=complex)
    found = set()
    for st in states:
        xz = st.v[:, None] - z[None, :]
        brs = st.params.bracket(np.stack([xz, xz + 1, xz - 1]))
        if np.min(np.abs(brs)) < 1e-10:
            found.add("root_on_path")
    for u_set in states:
        for v_set in states:
            try:
                found.add("mean_value" if M._mean_value_pair(u_set, v_set)
                          else "distinct")
            except DegenerateConfigError:
                found.add("twist_omega2" if abs((v_set.omega / u_set.omega)
                                                ** 2 - 1.0) > 1e-8
                          else "shifted_reps")
    return found


ORACLE_COLUMN = LatticeConfig(N=4, xi=tuple(0.5 + 1j * y for y in (
    0.04, -0.03, 0.02, -0.05)))

# name -> ((L, r) at tau = 0.45i and physical s0, or None for the oracle
# model on ORACLE_COLUMN; N; heights; the branch the table must take;
# bound relative to the largest entry)
COLUMN_CASES = {
    "distinct_31": ((3, 1), 6, (1, 2), "distinct", 1e-14),
    "mean_value_31": ((3, 1), 6, (1, 2), "mean_value", 1e-14),
    "distinct_52": ((5, 2), 6, (1, 2), "distinct", 1e-14),
    "mean_value_52": ((5, 2), 6, (1, 2), "mean_value", 1e-14),
    "twist_partners_41": ((4, 1), 6, (1, 2), "twist_omega2", 1e-14),
    "shifted_reps_43": ((4, 3), 6, (1, 2), "shifted_reps", 1e-14),
    "root_on_path_32": ((3, 2), 6, (1, 2), "root_on_path", 1e-14),
    "m2_upward": (None, 4, (0, 1, 2), "distinct", 5e-13),
}


class TestColumnPass:
    """flat_matrix_element's pair table, one determinant kernel and one
    stacked pass for all its pairs, against the per-pair route: mpme_det,
    the dense route where it refuses."""

    @staticmethod
    def _model(family, N):
        if family is None:
            return (ModelParams(tau=0.8j, r=1, L=3, s0=0.41 + 0.13j),
                    ORACLE_COLUMN)
        return _physical(*family), homogeneous_config(N)

    @pytest.mark.parametrize("name", sorted(COLUMN_CASES))
    def test_table_matches_per_pair_route(self, name):
        family, N, heights, branch, bound = COLUMN_CASES[name]
        params, config = self._model(family, N)
        states = _flat_states(B.all_ground_states(config, params))
        path = M.vertical_path(heights)
        assert branch in _branches(states, path)
        table = _table(path, states)
        ref = _per_pair_table(path, states)
        assert np.all(np.isfinite(table))
        gap = np.max(np.abs(table - ref)) / np.max(np.abs(ref))
        assert gap <= bound, gap

    def test_pole_redraws_its_own_pair_only(self, ground4, monkeypatch):
        # draw 0 puts [t0] = [sum u - sum v + gamma] on a pole for the pair
        # (0,0)-(1,1) alone: that pair takes draw 1, every other pair keeps
        # draw 0, as mpme_det does pair by pair
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        params = us.params
        draw = S.default_gamma
        pole = complex(np.sum(vs.v) - np.sum(us.v))

        def patched(params, redraw=0):
            return pole if redraw == 0 else draw(params, redraw)

        with pytest.raises(PoleError):
            M.mpme_det(us, vs, PATH1, 1, gamma=pole)
        monkeypatch.setattr(S, "default_gamma", patched)
        states = _flat_states(ground4)
        table = _table(PATH1, states)
        ref = _per_pair_table(PATH1, states)
        keys = list(M.flat_basis_phases(0, 0, params))
        i, j = keys.index((0, 0)), keys.index((1, 1))
        scale = np.max(np.abs(ref))
        redrawn = M.mpme_det(us, vs, PATH1, 1, gamma=draw(params, 1))
        assert abs(table[i, j] - redrawn) <= 1e-14 * scale
        assert abs(ref[i, j] - redrawn) <= 1e-14 * scale
        others = np.ones(table.shape, dtype=bool)
        others[i, j] = False
        assert np.max(np.abs(table - ref)[others]) <= 1e-14 * scale
        # the other pairs kept draw 0: they differ from a table at draw 1
        monkeypatch.setattr(S, "default_gamma",
                            lambda params, redraw=0: draw(params, redraw + 1))
        at_draw_1 = _table(PATH1, states)
        assert abs(at_draw_1[i, j] - table[i, j]) <= 1e-14 * scale
        assert np.all(at_draw_1[others] != table[others])

    @pytest.mark.parametrize("name", sorted(COLUMN_CASES) + ["pole"])
    def test_table_bit_identical_to_per_pair_route(self, name, ground4,
                                                   monkeypatch):
        # every determinant entry of the one stacked table pass is the
        # per-pair route's value to the bit, the pair redrawn off a pole
        # ("pole": as in test_pole_redraws_its_own_pair_only) and the
        # mean-value pairs among them; each pair the table refuses (the
        # root-on-path pairs of root_on_path_32 among them) mpme_det
        # refuses with the same message
        if name == "pole":
            us, vs = ground4[(0, 0)], ground4[(1, 1)]
            pole = complex(np.sum(vs.v) - np.sum(us.v))
            draw = S.default_gamma
            monkeypatch.setattr(S, "default_gamma", lambda params, redraw=0:
                                pole if redraw == 0 else draw(params, redraw))
            states, path = _flat_states(ground4), PATH1
        else:
            family, N, heights, _, _ = COLUMN_CASES[name]
            params, config = self._model(family, N)
            states = _flat_states(B.all_ground_states(config, params))
            path = M.vertical_path(heights)
        a1 = path.heights[0]
        table, refused = M._det_table(path, a1, states, states)
        ref = _per_pair_table(path, states)
        for i, u_set in enumerate(states):
            for j, v_set in enumerate(states):
                if (i, j) not in refused:
                    assert repr(complex(table[i][j])) == repr(complex(
                        ref[i, j])), (i, j)
                    continue
                assert table[i][j] is None
                with pytest.raises(DegenerateConfigError) as info:
                    M.mpme_det(u_set, v_set, path, a1)
                assert str(info.value) == str(refused[i, j])
        if name == "root_on_path_32":
            assert any("path argument" in str(exc)
                       for exc in refused.values())

    def test_mean_value_pairs_build_no_root_set(self, monkeypatch):
        # a mean-value pair hands the kernel its right state's roots and d:
        # the table constructs no BetheRootSet
        family, N, heights, _, _ = COLUMN_CASES["mean_value_52"]
        params, config = self._model(family, N)
        states = _flat_states(B.all_ground_states(config, params))
        path = M.vertical_path(heights)
        assert "mean_value" in _branches(states, path)
        built = []
        init = B.BetheRootSet.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(B.BetheRootSet, "__init__", counted)
        table, _ = M._det_table(path, path.heights[0], states, states)
        assert all(table[i][i] is not None for i in range(len(states)))
        assert not built

    def test_table_bracket_calls_do_not_grow_with_K(self, monkeypatch):
        # a K x K flat table makes 7 bracket calls at K = 4 ((L, r) =
        # (3, 1)) as at K = 6 ((5, 2)): once per table the root-on-path
        # mask, lambda_pm and the G_b factors; once per gamma draw the pole
        # check, Q, H and the mean-value kernel.  The norms of the family
        # came with its solve (taken at the table, they made 9)
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        counts = {}
        for L, r in ((3, 1), (5, 2)):
            params = _physical(L, r)
            gs = B.all_ground_states(homogeneous_config(4), params)
            monkeypatch.setattr(ModelParams, "bracket", counted)
            calls.clear()
            M.flat_matrix_element(PATH1, gs)
            monkeypatch.setattr(ModelParams, "bracket", bracket)
            counts[len(gs)] = len(calls)
        assert counts[4] == counts[6] == 7, counts

    def test_root_on_path_mask_once_per_state(self, monkeypatch):
        # [x - z] and [x - z +- 1] are evaluated once per distinct state of
        # the table's lefts and rights: with the K = 4 states on the left,
        # the mask's bracket points do not grow with the number of columns
        states = _flat_states(B.all_ground_states(homogeneous_config(4),
                                                  _physical(3, 1)))
        mask, bracket = M._roots_on_path, ModelParams.bracket
        inside, points = [], []

        def counted_bracket(self, u, order=0):
            if inside:
                points.append(np.size(u))
            return bracket(self, u, order=order)

        def counted_mask(mask_states, zetas):
            inside.append(1)
            try:
                return mask(mask_states, zetas)
            finally:
                inside.pop()

        monkeypatch.setattr(ModelParams, "bracket", counted_bracket)
        monkeypatch.setattr(M, "_roots_on_path", counted_mask)
        per_columns = {}
        for cols in (1, 2, 4):
            points.clear()
            M._det_table(PATH1, 1, states, states[:cols])
            per_columns[cols] = sum(points)
        n, m = states[0].n, PATH1.m
        assert per_columns == {cols: 3 * len(states) * n * m
                               for cols in (1, 2, 4)}, per_columns

    def test_one_condition_number_per_state(self, monkeypatch):
        # a K x K table takes each state's Gaudin condition number once,
        # with its memoised matrix, where the norm and each column pass
        # took it before; the states' measures are cleared, so the table
        # takes them afresh
        states = _flat_states(B.all_ground_states(homogeneous_config(4),
                                                  _physical(3, 1)))
        for st in states:
            st.memo.clear()
        cond = np.linalg.cond
        matrices = []

        def counted(x, p=None):
            matrices.append(int(np.prod(np.shape(x)[:-2])))
            return cond(x, p)

        monkeypatch.setattr(np.linalg, "cond", counted)
        M._det_table(PATH1, 1, states, states)
        M._det_table(PATH1, 1, states, states)
        monkeypatch.undo()
        assert sum(matrices) == len(states)
        for st in states:
            assert st.memo["kappa"] == np.max(cond(st.memo["gaudin"]))

    @staticmethod
    def _count_vectors(monkeypatch):
        """Record the side of every Bethe vector the dense table builds."""
        built = []

        def counted(roots, side="right"):
            built.append(side)
            return B.bethe_vector(roots, side=side)

        monkeypatch.setattr(M, "bethe_vector", counted)
        return built

    @pytest.mark.parametrize("L, r", [(3, 1), (5, 2)])
    def test_dense_table_one_vector_per_state(self, L, r, monkeypatch):
        # a K x K dense table (K = 4, 6) builds each right vector and each
        # left covector once: 2K vectors for the K^2 pairs
        states = _flat_states(B.all_ground_states(homogeneous_config(4),
                                                  _physical(L, r)))
        built = self._count_vectors(monkeypatch)
        table = M._dense_table(PATH1, 1, states, states)
        K = len(states)
        assert sorted(built) == ["left"] * K + ["right"] * K
        assert np.all(np.isfinite(table))

    def test_dense_tables_share_vectors_across_paths(self, monkeypatch):
        # a tuple of paths builds each state's vector and covector once and
        # gives each path the table of its own call, bit for bit
        states = _flat_states(B.all_ground_states(homogeneous_config(4),
                                                  _physical(3, 1)))
        paths = (PATH0, PATH1)
        refs = [M._dense_table(path, 1, states, states) for path in paths]
        built = self._count_vectors(monkeypatch)
        tables = M._dense_table(paths, 1, states, states)
        K = len(states)
        assert sorted(built) == ["left"] * K + ["right"] * K
        assert len(tables) == 2
        for got, ref in zip(tables, refs):
            assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_dense_pass_only_over_refused_rows_and_columns(self,
                                                           monkeypatch):
        # at (4, 1) the determinant route refuses the twist partners with
        # different omega^2: the router's dense pass covers only the rows
        # and columns that hold them
        gs = B.all_ground_states(homogeneous_config(4), _physical(4, 1))
        states = _flat_states(gs)
        refused = M._det_table(PATH1, 1, states, states)[1]
        rows = {i for i, _ in refused}
        cols = {j for _, j in refused}
        assert 0 < len(rows) < len(states) and 0 < len(cols) < len(states)
        built = self._count_vectors(monkeypatch)
        table = M.flat_matrix_element(PATH1, gs)
        assert built.count("left") == len(rows)
        assert built.count("right") == len(cols)
        assert np.all(np.isfinite(table))

    def test_dense_table_counts_its_covectors(self, ground4, monkeypatch):
        # a budget that admits one covector, the right vector and a sweep
        # (eight vectors' bytes and one application's column weights, four
        # arrays of L (W - 1) cells) refuses the 4 x 4 table before any
        # vector is built
        states = _flat_states(ground4)
        config, params = states[0].config, states[0].params
        W = 1 << config.N
        monkeypatch.setattr(lattice, "DENSE_MAX_BYTES",
                            16 * params.L * (8 * W + 4 * (W - 1)))
        built = self._count_vectors(monkeypatch)
        with pytest.raises(SizeGuardError, match="dense table refused"):
            M._dense_table(PATH1, 1, states, states)
        assert built == []
        one = M._dense_table(PATH1, 1, states[:1], states[1:2])[0][0]
        assert one == M.mpme_bruteforce(states[0], states[1], PATH1, 1)

    @pytest.mark.parametrize("method", ["dett", "dense", None])
    def test_unknown_method_refused(self, ground4, method):
        # no method other than 'det' and 'brute' falls through to a route
        for call in (lambda: M.finite_lhp(PATH1, ("bethe", 0, 0, 1, 1),
                                          ground4, method=method),
                     lambda: M.flat_matrix_element(PATH1, ground4, method),
                     lambda: M.finite_lhp(PATH1, ("flat", 0, 0), ground4,
                                          method=method)):
            with pytest.raises(ValueError, match="method"):
                call()


# path -> outcome on the homogeneous and on the inhomogeneous N = 4 column:
# a coinciding pair, a unit pair {xi, xi - 1}, or neither
ONE_RULE_PATHS = {
    "down": (M.vertical_path((0, 1)), "plain", "plain"),
    "up": (M.AdjacentPath(vertices=((2, 1), (1, 1)), heights=(1, 0)),
           "plain", "plain"),
    "down_and_back": (M.AdjacentPath(vertices=((1, 1), (2, 1), (1, 1)),
                                     heights=(0, 1, 0)), "unit", "unit"),
    "m2": (M.vertical_path((0, 1, 2)), "collide", "plain"),
    "m3": (M.vertical_path((0, 1, 2, 1)), "collide", "plain"),
}


@functools.lru_cache(maxsize=None)
def _one_rule_model(L, r, homogeneous):
    params = ModelParams(tau=0.8j, r=r, L=L, s0=0.41 + 0.13j)
    config = (homogeneous_config(4) if homogeneous else LatticeConfig(
        N=4, xi=tuple(0.5 + 1j * y for y in (0.04, -0.03, 0.02, -0.05))))
    return params, config, B.all_ground_states(config, params)


@pytest.mark.parametrize("name", sorted(ONE_RULE_PATHS))
@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("L, r", [(3, 1), (5, 2)])
def test_one_degeneracy_rule_across_routes(L, r, homogeneous, name):
    # the determinant route, the dense route and the multiple integral
    # read one pair classification: a coinciding pair is refused by all
    # three, a unit pair by the determinant route and the integral (which
    # extrapolates it on request), and every other path has a value on all
    path, *kinds = ONE_RULE_PATHS[name]
    kind = kinds[not homogeneous]
    params, config, gs = _one_rule_model(L, r, homogeneous)
    us, vs, a1 = gs[(0, 0)], gs[(1, 1)], path.heights[0]

    def integral(**kw):
        return T.lhp_table(path, [(0, 0)], [0], config, params, 16,
                           **kw)[0, 0, 0][0]

    routes = {"det": lambda: M.mpme_det(us, vs, path, a1),
              "dense": lambda: M.mpme_bruteforce(us, vs, path, a1),
              "integral": integral}
    refused = {"collide": routes, "unit": ("det", "integral"),
               "plain": ()}[kind]
    for route, evaluate in routes.items():
        if route in refused:
            with pytest.raises(DegenerateConfigError):
                evaluate()
        else:
            assert np.isfinite(evaluate())
    if kind == "unit":
        assert np.isfinite(integral(perturb_degenerate=True))
