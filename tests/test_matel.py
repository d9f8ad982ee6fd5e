"""Multi-point matrix elements: oracle chain and determinant machinery."""

import numpy as np
import pytest

from csoslab.elliptic import DegenerateConfigError, ModelParams, PoleError
from csoslab.lattice import LatticeConfig
from csoslab import bethe as B
from csoslab import matel as M
from csoslab import scalar as S


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

    def test_zeta_collision_refused(self, params):
        config = LatticeConfig(N=4, xi=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(DegenerateConfigError):
            PATH2.check_zetas(config, params)

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

    def test_json_roundtrip(self, config4):
        doc = PATH2.to_json_dict(config4)
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
        tuples = M.enumerate_tuples(2, 1, (1,))
        got = {b[0]: inv for b, inv, _ in tuples}
        assert got == {1: 0, 2: 1, 3: 2}


class TestHeightFactor:
    def test_telescoping_identity(self, params, rng):
        s = params.height(1)
        for alphas in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
            a = M._f_alpha(s, alphas, 2, params)
            b = M._f_alpha_product_form(s, alphas, params, 2)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


class TestCommutationAction:
    def test_single_A_insertion_vs_operator(self, params, config4, ground4,
                                            rng):
        # m=1 coefficients reproduce the brute-force action of the full
        # element through the partial-scalar sum
        for (uu, vv) in (((0, 0), (0, 0)), ((0, 0), (1, 1))):
            us, vs = ground4[uu], ground4[vv]
            for path in (PATH1, path_down((1, 0))):
                bf = M.mpme_bruteforce(us, vs, path, 1)
                s4 = M.mpme_sum_partial(us, vs, path, 1)
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
        nu, nv = M.coherent_norms(us, vs)
        ff = S.delta_form_factor(us, vs, 1, route="brute") / (nu * nv)
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
        lhs, rhs = M.marginal_check(us, vs, PATH1, 1)
        assert abs(lhs - rhs) / abs(rhs) < 1e-7
        lhs, rhs = M.marginal_check(us, vs, PATH2, 0)
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
            res = M.appendixB_identity_residual(u, v, z, gamma, alup, bet, m,
                                                params)
            assert res < 1e-10

    def test_x_determinant_closed_form(self, params, rng):
        for n in (2, 3):
            u = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            v = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.2, 0.2, n)
            gamma = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
            assert M.x_determinant_residual(gamma, u, v, params) < 1e-11


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

    def test_dense_route_handles_partner(self, family_L4):
        path0 = M.AdjacentPath(vertices=((1, 1),), heights=(0,))
        val = M.mpme_bruteforce(family_L4[(0, 0)], family_L4[(1, 1)],
                                path0, 0)
        assert np.isfinite(val)


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
            lattice.transfer_dense(0.3, ground4[(0, 0)].config,
                                   ground4[(0, 0)].params)
        roots = ground4[(1, 0)]
        B.bethe_vector(roots, side="left")
        assert B.eigenstate_residual(roots, 0.23 + 0.11j, side="left") < 1e-8
        S.norm_det(roots)
        val = M.flat_matrix_element(PATH1, (0, 0), (0, 0), ground4)
        assert np.isfinite(val)


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
        val = M.flat_matrix_element(PATH1, (0, 0), (0, 0), gs)
        assert sorted(calls) == [0, 1, 10, 11]
        # the same value, to the bit, as a norm computed on every use
        monkeypatch.setattr(M, "_norm_sqrt",
                            lambda rs: complex(np.sqrt(norm_det(rs))))
        fresh = B.all_ground_states(config4, params)
        assert M.flat_matrix_element(PATH1, (0, 0), (0, 0), fresh) == val


class TestFlatBasis:
    def test_rows_sum_to_one(self, ground4):
        params = ground4[(0, 0)].params
        for eps in (0, 1):
            for t in (0, 1):
                tot = sum(M.finite_lhp(
                    M.AdjacentPath(vertices=((1, 1),), heights=(a,)),
                    ("flat", eps, t), ground4) for a in range(params.L))
                assert abs(tot - 1.0) < 1e-9

    def test_bethe_basis_route(self, ground4):
        val = M.finite_lhp(PATH1, ("bethe", 0, 0, 1, 1), ground4)
        direct = M.mpme_det(ground4[(0, 0)], ground4[(1, 1)], PATH1, 1)
        assert abs(val - direct) < 1e-12

    def test_m1_bond_path_vs_inverse_problem(self, ground4, config4):
        # the single-step element equals the reconstructed bond operator
        # E_1^{aa} sandwiched with the height projector
        from csoslab.lattice import local_operator_dense, transfer_dense
        from csoslab.scalar import project_height
        import csoslab.bethe as BB
        params = ground4[(0, 0)].params
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        nu, nv = M.coherent_norms(us, vs)
        for heights, alpha in (((1, 2), 1), ((1, 0), -1)):
            path = M.vertical_path(heights)
            det = M.mpme_det(us, vs, path, 1)
            # dense route: delta_{s1} E_1^{alpha alpha} between the vectors
            emat = local_operator_dense("E", config4, params,
                                        i=1, alpha=alpha, beta=alpha).matrix
            rv = BB.bethe_vector(vs, side="right")
            from csoslab.lattice import StateVector
            acted = StateVector(config4, params,
                                emat @ rv.amps.reshape(-1))
            acted = project_height(acted, 1)
            val = BB.left_contract(us, acted) / (nu * nv)
            assert abs(det - val) / abs(val) < 1e-8

    def test_flat_basis_asymptotic_diagonality(self):
        # off-diagonal flat-basis elements shrink with N (tested at the
        # ordered point where N=8 is already deep in the asymptotic regime)
        params = ModelParams(tau=0.3j, r=1, L=3, s0=0.3 + 0.45j)
        ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in ys))
        gs = B.all_ground_states(config, params)
        labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
        signs = M.calibrate_norm_signs(gs)
        worst = 0.0
        for l1 in labels:
            for l2 in labels:
                if l1 == l2:
                    continue
                val = M.flat_matrix_element(PATH0, l1, l2, gs, signs=signs)
                worst = max(worst, abs(val))
        assert worst < 1e-4

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
        # shifting the anchor down one row multiplies by an eigenvalue ratio
        shifted = M.AdjacentPath(vertices=((2, 1),), heights=(1,))
        us, vs = ground4[(0, 0)], ground4[(1, 1)]
        base = M.finite_lhp(shifted, ("bethe", 0, 0, 1, 1), ground4)
        plain = M.mpme_det(us, vs, shifted, 1)
        ratio = (B.eigenvalue_tau(config4.xi[0], us)
                 / B.eigenvalue_tau(config4.xi[0], vs))
        assert abs(base - plain * ratio) < 1e-12
