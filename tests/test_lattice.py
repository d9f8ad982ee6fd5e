"""Face weights, Yang-Baxter, monodromy algebra, and local operators."""

import functools

import numpy as np
import pytest

from csoslab.elliptic import (EllipticDomainError, ModelParams, PoleError,
                              SizeGuardError)
from csoslab.contract import (boltzmann_weight, inverse_problem_residual,
                              local_operator_dense, r_matrix, transfer_dense,
                              yang_baxter_residual, zero_weight_indices)
from csoslab.lattice import (LatticeConfig, StateVector, _column_weights,
                             _entries_apply, guard_dense, homogeneous_config,
                             local_operator_apply, monodromy_entry_apply,
                             monodromy_entry_dense, monodromy_product_apply,
                             transfer_apply)


class TestFaceWeights:
    def test_ice_rule(self, params):
        assert boltzmann_weight(0.3, 0.2 + 0.1j, (1, 1), (1, -1), params) == 0

    def test_b_vanishes_at_zero(self, params):
        s = 0.41 + 0.13j
        assert abs(boltzmann_weight(0.0, s, (1, -1), (1, -1), params)) < 1e-14

    def test_c_is_one_at_zero(self, params):
        s = 0.41 + 0.13j
        val = boltzmann_weight(0.0, s, (1, -1), (-1, 1), params)
        assert abs(val - 1.0) < 1e-14

    def test_r_at_zero_is_permutation(self, params):
        mat = r_matrix(0.0, 0.37 + 0.21j, params)
        perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.max(np.abs(mat - perm)) < 1e-13

    def test_r_matrix_one_bracket_call(self, params, monkeypatch):
        # the face weights come from one bracket call; boltzmann_weight reads
        # the matrix entry, and b, c are the scalar bracket ratios, bit for bit
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        u, s = 0.27 + 0.05j, 0.37 + 0.21j
        monkeypatch.setattr(ModelParams, "bracket", counted)
        mat = r_matrix(u, s, params)
        assert len(calls) == 1
        monkeypatch.setattr(ModelParams, "bracket", bracket)
        spins = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for i, up in enumerate(spins):
            for j, pr in enumerate(spins):
                val = boltzmann_weight(u, s, up, pr, params)
                assert type(val) is complex and val == mat[i, j]
        br = params.bracket
        for sg, i in ((1.0, 1), (-1.0, 2)):
            assert mat[i, i] == (br(sg * s + 1) * br(u)
                                 / (br(sg * s) * br(u + 1)))
            assert mat[i, 3 - i] == (br(sg * s + u) * br(1)
                                     / (br(sg * s) * br(u + 1)))


class TestYangBaxter:
    def test_random_draws(self, rng):
        params = ModelParams(tau=0.9j, r=2, L=5, s0=0.41 + 0.13j)
        worst = 0.0
        for _ in range(20):
            u1, u2, u3 = (complex(rng.uniform(-0.5, 0.5),
                                  rng.uniform(-0.3, 0.3)) for _ in range(3))
            s = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
            worst = max(worst, yang_baxter_residual(u1, u2, u3, s, params))
        assert worst < 1e-10

    def test_equal_arguments(self):
        params = ModelParams(tau=0.9j, r=2, L=5, s0=0.41 + 0.13j)
        u = 0.27 + 0.12j
        assert yang_baxter_residual(u, u, -0.3 + 0.1j, 0.33, params) < 1e-11


class TestMonodromy:
    def test_C_annihilates_reference(self, params, config4):
        ref = StateVector.reference(config4, params)
        out = monodromy_entry_apply("C", 0.31 + 0.22j, ref)
        assert np.max(np.abs(out.amps)) == 0.0

    def test_A_eigenaction_on_reference(self, params, config4):
        ref = StateVector.reference(config4, params)
        out = monodromy_entry_apply("A", 0.31 + 0.22j, ref)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-13

    def test_D_action_on_reference(self, params, config4):
        # D carries d(u) and the height-ratio bracket of the spin sector
        u = 0.3 + 0.25j
        ref = StateVector.reference(config4, params)
        out = monodromy_entry_apply("D", u, ref)
        d = 1.0
        for x in config4.xi:
            d *= params.bracket(u - x) / params.bracket(u - x + 1)
        for h in range(params.L):
            s = params.height(h)
            pred = d * params.bracket(s - 1) / params.bracket(s + config4.N - 1)
            assert abs(out.amps[h, 0] - pred) < 1e-12 * max(1.0, abs(pred))

    def test_weight_shifts(self, params, config4, rng):
        amps = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        state = StateVector(config4, params, amps)
        word_w = {w: 4 - 2 * bin(w).count("1") for w in range(16)}
        for entry, shift in (("B", -2), ("C", 2), ("A", 0), ("D", 0)):
            out = monodromy_entry_apply(entry, 0.21 + 0.15j, state)
            ws = out.spin_weights()
            src = state.spin_weights()
            assert all(w in {v + shift for v in src.values()}
                       for w in ws.values())

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("entry", "ABCD")
    def test_dual_matches_dense_transpose(self, params, rng, N, scaled,
                                          entry):
        # the matrix-free transpose against the dense entry as oracle; N = 4
        # homogeneous, N = 6 inhomogeneous
        ys = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02)
        config = homogeneous_config(4) if N == 4 else LatticeConfig(
            N=N, xi=tuple(0.5 + 1j * y for y in ys))
        amps = (rng.standard_normal((params.L, 1 << N))
                + 1j * rng.standard_normal((params.L, 1 << N)))
        u = 0.29 + 0.18j
        got = monodromy_entry_apply(entry, u, StateVector(config, params, amps),
                                    dual=True, scaled=scaled).amps.ravel()
        ref = amps.ravel() @ monodromy_entry_dense(entry, u, config, params,
                                                   scaled=scaled)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_B_strings_commute(self, params, config4):
        ref = StateVector.reference(config4, params)
        v1, v2 = 0.3 + 0.2j, -0.1 + 0.45j
        a = monodromy_entry_apply("B", v2, monodromy_entry_apply("B", v1, ref))
        b = monodromy_entry_apply("B", v1, monodromy_entry_apply("B", v2, ref))
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_rtt_relation_n2(self, params):
        config = homogeneous_config(2)
        L = params.L
        W = 4
        dim = 4 * L * W
        u1, u2 = 0.31 + 0.11j, -0.17 + 0.23j
        mats1 = {e: monodromy_entry_dense(e, u1, config, params)
                 for e in "ABCD"}
        mats2 = {e: monodromy_entry_dense(e, u2, config, params)
                 for e in "ABCD"}

        def tbig(mats, which):
            out = np.zeros((dim, dim), dtype=complex)
            ent = [["A", "B"], ["C", "D"]]
            for ao in range(2):
                for ai in range(2):
                    m = mats[ent[ao][ai]]
                    for other in range(2):
                        if which == 1:
                            rows = np.arange(L * W) + (ao * 2 + other) * L * W
                            cols = np.arange(L * W) + (ai * 2 + other) * L * W
                        else:
                            rows = np.arange(L * W) + (other * 2 + ao) * L * W
                            cols = np.arange(L * W) + (other * 2 + ai) * L * W
                        out[np.ix_(rows, cols)] += m
            return out

        words = np.arange(W)
        wt = 2 - 2 * np.array([bin(w).count("1") for w in words])

        def rbig(shift_weight):
            out = np.zeros((dim, dim), dtype=complex)
            for h in range(L):
                for iw in range(W):
                    s = params.s0 + h + (wt[iw] if shift_weight else 0)
                    m = r_matrix(u1 - u2, s, params)
                    base = h * W + iw
                    for ao in range(4):
                        for ai in range(4):
                            if m[ao, ai]:
                                out[ao * L * W + base, ai * L * W + base] += \
                                    m[ao, ai]
            return out

        lhs = rbig(True) @ tbig(mats1, 1) @ tbig(mats2, 2)
        rhs = tbig(mats2, 2) @ tbig(mats1, 1) @ rbig(False)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_transfer_commutator_on_zero_weight(self, params, config4_homog):
        idx = zero_weight_indices(config4_homog, params)
        u, v = 0.31 + 0.17j, -0.22 + 0.4j
        tu = transfer_dense(u, config4_homog, params)[np.ix_(idx, idx)]
        tv = transfer_dense(v, config4_homog, params)[np.ix_(idx, idx)]
        assert np.max(np.abs(tu @ tv - tv @ tu)) < 1e-10

    def test_transfer_inversion_property(self, params, config4):
        # t(xi_i) a(xi_i)^-1 t(xi_i - 1) d(xi_i - 1)^-1 = [s]/[s + h_total]
        i = 2
        t_reg = transfer_dense(config4.xi[i - 1], config4, params)
        t_scl = transfer_dense(config4.xi[i - 1] - 1.0, config4, params,
                               scaled=True)
        d_scl = np.prod([params.bracket(config4.xi[i - 1] - 1.0 - x)
                         for x in config4.xi])
        lhs = t_reg @ (t_scl / d_scl)
        W = 1 << config4.N
        rhs = np.zeros_like(lhs)
        weights = config4.N - 2 * np.array(
            [bin(w).count("1") for w in range(W)])
        for h in range(params.L):
            s = params.height(h)
            for iw in range(W):
                rhs[h * W + iw, h * W + iw] = (params.bracket(s)
                                               / params.bracket(s + weights[iw]))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestScaledGauge:
    def test_scaled_monodromy_is_product_multiple(self, params, config4):
        # the scaled gauge multiplies the monodromy by prod_k [u - xi_k + 1]
        u = 0.29 + 0.18j
        fac = np.prod([params.bracket(u - x + 1) for x in config4.xi])
        for entry in "ABCD":
            plain = monodromy_entry_dense(entry, u, config4, params)
            scaled = monodromy_entry_dense(entry, u, config4, params,
                                           scaled=True)
            assert np.max(np.abs(scaled - fac * plain)) < 1e-10 * abs(fac)


class TestColumnWeights:
    """The application gathers its face weights from a (site, height class)
    grid; the reference evaluates them on every (height, word) cell and
    runs each site as explicit word pairs."""

    _AUX = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}
    _SHIFT = {"A": -1, "B": 1, "C": -1, "D": 1}
    YS = (0.04, -0.03, 0.02, -0.05, 0.035, -0.02, 0.05, -0.04)

    @staticmethod
    def _cell_weights(u, k, config, params, scaled, reduced=True):
        # the weights are L-periodic in s: a cell (height a, prefix sum p)
        # is evaluated at the representative s0 + ((a + p) mod L) of its
        # class, or with reduced=False at its own argument (s0 + a) + p
        N, br = config.N, params.bracket
        words = np.arange(1 << N)
        pref = sum((1 - 2 * ((words >> (N - 1 - j)) & 1) for j in range(k)),
                   np.zeros_like(words))
        a = np.arange(params.L)[:, None]
        s = (params.s0 + (a + pref[None, :]) % params.L if reduced
             else (params.s0 + a) + pref[None, :])
        uk = u - config.xi[k]
        bu, bu1 = br(uk), br(uk + 1)
        den = 1.0 if scaled else bu1
        return ((bu1 if scaled else 1.0),
                br(s + 1) * bu / (br(s) * den),
                br(-s + 1) * bu / (br(-s) * den),
                br(s + uk) * br(1) / (br(s) * den),
                br(-s + uk) * br(1) / (br(-s) * den))

    def _reference(self, entry, u, amps, config, params, dual, scaled):
        N = config.N
        a_out, a_in = self._AUX[entry]
        phi = np.zeros((2,) + amps.shape, dtype=complex)
        if dual:
            phi[a_out] = amps
        else:
            phi[a_in] = np.roll(amps, self._SHIFT[entry], axis=0)
        words = np.arange(1 << N)
        for k in (reversed(range(N)) if dual else range(N)):
            corner, bp, bm, cp, cm = self._cell_weights(u, k, config,
                                                        params, scaled)
            if dual:  # the transposed step swaps the c weights
                cp, cm = cm, cp
            bit = 1 << (N - 1 - k)
            up, dn = words[words & bit == 0], words[words & bit != 0]
            new = np.empty_like(phi)
            new[0][:, up] = corner * phi[0][:, up]
            new[1][:, dn] = corner * phi[1][:, dn]
            new[0][:, dn] = (bp[:, dn] * phi[0][:, dn]
                             + cp[:, dn] * phi[1][:, up])
            new[1][:, up] = (cm[:, up] * phi[0][:, dn]
                             + bm[:, up] * phi[1][:, up])
            phi = new
        if dual:
            return np.roll(phi[a_in], -self._SHIFT[entry], axis=0)
        return phi[a_out]

    @pytest.mark.parametrize("N", [4, 6])
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_apply_equals_per_cell_reference(self, params, rng, N, dual,
                                             scaled):
        # bit for bit: the grid holds the cells' class representatives
        config = homogeneous_config(4) if N == 4 else LatticeConfig(
            N=N, xi=tuple(0.5 + 1j * y for y in self.YS[:N]))
        amps = (rng.standard_normal((params.L, 1 << N))
                + 1j * rng.standard_normal((params.L, 1 << N)))
        u = 0.29 + 0.18j
        for entry in "ABCD":
            got = monodromy_entry_apply(entry, u,
                                        StateVector(config, params, amps),
                                        dual=dual, scaled=scaled).amps
            ref = self._reference(entry, u, amps, config, params, dual,
                                  scaled)
            assert np.array_equal(got, ref), entry

    @pytest.mark.parametrize("r, L", [(1, 3), (2, 5)])
    def test_weights_periodic_in_height(self, params, r, L):
        # [x + L] = (-1)^r [x] cancels in every weight: at N = 8 the prefix
        # sum p wraps the class more than once, and the weights at the
        # cell's own argument (s0 + a) + p agree with those at s0 + c
        model = ModelParams(tau=params.tau, r=r, L=L, s0=params.s0)
        config = LatticeConfig(N=8, xi=tuple(0.5 + 1j * y for y in self.YS))
        for scaled in (False, True):
            for k in range(config.N):
                own = self._cell_weights(0.29 + 0.18j, k, config, model,
                                         scaled, reduced=False)
                rep = self._cell_weights(0.29 + 0.18j, k, config, model,
                                         scaled)
                for got, ref in zip(own[1:], rep[1:]):
                    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("model", ["oracle", "default"])
    def test_weights_against_mpmath(self, params, params_phys, model):
        # every gathered weight against b(u; +-s), c(u; +-s) at the cell's
        # unreduced argument s = (s0 + a) + p, to 40 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        model, config = ((params, LatticeConfig(
            N=6, xi=tuple(0.5 + 1j * y for y in self.YS[:6])))
            if model == "oracle" else (params_phys, homogeneous_config(6)))
        N, L, u = config.N, model.L, 0.29 + 0.18j
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(model.tau))
        eta = mpmath.mpf(model.r) / L

        @functools.lru_cache(maxsize=None)
        def br(x):
            return mpmath.jtheta(1, mpmath.pi * eta * x, q)

        [(corner, weights)] = _column_weights((u,), config, model, False)
        worst = 0.0
        for k in range(N):
            uk = mpmath.mpc(u) - mpmath.mpc(config.xi[k])
            for a in range(L):
                for w in range(1 << k):
                    p = k - 2 * bin(w).count("1")
                    s = mpmath.mpc(model.s0) + a + p
                    den = br(s) * br(uk + 1)
                    mden = br(-s) * br(uk + 1)
                    refs = (br(s + 1) * br(uk) / den,
                            br(-s + 1) * br(uk) / mden,
                            br(s + uk) * br(1) / den,
                            br(-s + uk) * br(1) / mden)
                    for got, ref in zip(weights[k], refs):
                        ref = complex(ref)
                        err = abs(got[a, w, 0, 0] - ref) / abs(ref)
                        worst = max(worst, err)
        assert worst <= 3e-15

    def test_one_bracket_call_per_application(self, params, config4, rng,
                                              monkeypatch):
        # every application on a fresh model, the first and each later one,
        # plain, dual or scaled, and t = A + D, makes one bracket call
        model = ModelParams(tau=params.tau, r=params.r, L=params.L,
                            s0=params.s0 + 0.01)
        state = StateVector(config4, model, rng.standard_normal((3, 16)))
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        monkeypatch.setattr(ModelParams, "bracket", counted)
        runs = (lambda: monodromy_entry_apply("B", 0.29 + 0.18j, state),
                lambda: monodromy_entry_apply("C", -0.13 + 0.05j, state,
                                              dual=True),
                lambda: monodromy_entry_apply("A", 0.21 + 0.15j, state,
                                              scaled=True),
                lambda: transfer_apply(0.27 + 0.1j, state))
        counts = []
        for run in runs:
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts == [1, 1, 1, 1]

    @pytest.mark.parametrize("dual", [False, True])
    def test_transfer_shares_weights_bit_for_bit(self, params, config4, rng,
                                                 dual):
        # A + D from one set of weights, summed in that order, equals the
        # sum of the two separate applications bit for bit
        amps = (rng.standard_normal((params.L, 16))
                + 1j * rng.standard_normal((params.L, 16)))
        state = StateVector(config4, params, amps)
        u = 0.27 + 0.1j
        ref = (monodromy_entry_apply("A", u, state, dual=dual).amps
               + monodromy_entry_apply("D", u, state, dual=dual).amps)
        got = _entries_apply(("A", "D"), u, state, dual=dual).amps
        assert np.array_equal(got, ref)
        if not dual:
            assert np.array_equal(transfer_apply(u, state).amps, ref)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_transfer_dense_shares_weights(self, params, config4, monkeypatch,
                                           scaled):
        # the dense A + D evaluates the column weights once, as the applied
        # one does, and equals the sum of the two dense entries bit for bit
        u = 0.27 + 0.1j
        ref = (monodromy_entry_dense("A", u, config4, params, scaled=scaled)
               + monodromy_entry_dense("D", u, config4, params,
                                       scaled=scaled))
        bracket = ModelParams.bracket
        calls = []

        def counted(self, u, order=0):
            calls.append(1)
            return bracket(self, u, order=order)

        monkeypatch.setattr(ModelParams, "bracket", counted)
        got = transfer_dense(u, config4, params, scaled=scaled)
        assert len(calls) == 1
        assert np.array_equal(got, ref)

    def test_height_pole(self, params):
        # [s0 + 2] = theta1(1) = 0: the model refuses it, so no column
        # meets a vanishing [s]
        with pytest.raises(EllipticDomainError,
                           match=r"bracket vanishes at height s0\+2"):
            ModelParams(tau=params.tau, r=1, L=3, s0=1.0)

    @pytest.mark.parametrize("dual", [False, True])
    def test_face_weight_pole(self, params, config4, rng, dual):
        # u = xi_2 - 1 is a pole of the plain weights, not of the scaled ones
        amps = (rng.standard_normal((params.L, 16))
                + 1j * rng.standard_normal((params.L, 16)))
        state = StateVector(config4, params, amps)
        u = config4.xi[1] - 1.0
        with pytest.raises(PoleError, match=r"\[u - xi_2 \+ 1\] vanishes"):
            monodromy_entry_apply("B", u, state, dual=dual)
        out = monodromy_entry_apply("B", u, state, dual=dual, scaled=True)
        assert np.all(np.isfinite(out.amps))
        assert np.max(np.abs(out.amps)) > 0.0

    @staticmethod
    def _bits(corner, weights):
        return [corner.tobytes()] + [w.tobytes() for ws in weights
                                     for w in ws]

    @pytest.mark.parametrize("scaled", [False, True])
    def test_stacked_weights_equal_one_u_calls(self, params, config4,
                                               scaled):
        # a stack of P = 1..4 spectral parameters gives each u the corner
        # and weights of its own one-u call, bit for bit; the scaled stack
        # holds u = xi_3 - 1, a pole of the plain weights
        us = [0.29 + 0.18j, -0.13 + 0.05j, 0.21 - 0.15j, 0.27 + 0.1j]
        if scaled:
            us[2] = config4.xi[2] - 1.0
        ones = [self._bits(*pair) for u in us
                for pair in _column_weights((u,), config4, params, scaled)]
        for P in range(1, 5):
            got = [self._bits(*pair) for pair in
                   _column_weights(np.array(us[:P]), config4, params, scaled)]
            assert got == ones[:P]

    @pytest.mark.parametrize("dual", [False, True])
    def test_product_pole_names_first_u_in_order(self, params, config4,
                                                 dual):
        # unscaled, the product raises the PoleError of the application
        # that one call per u, in order, raises first: the first u of the
        # stack with a pole, at its first site with one
        state = StateVector.reference(config4, params)
        us = np.array([0.29 + 0.18j, config4.xi[2] - 1.0,
                       config4.xi[0] - 1.0])
        with pytest.raises(PoleError) as ref:
            for u in us:
                state = monodromy_entry_apply("C", u, state, dual=dual)
        with pytest.raises(PoleError, match=r"xi_3 \+ 1\] vanishes") as got:
            monodromy_product_apply("C", us, StateVector.reference(
                config4, params), dual=dual)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("dual", [False, True])
    def test_product_equals_one_call_per_u(self, params, config4, rng, dual):
        # the product from one weight pass equals the applications one by
        # one, bit for bit, for each entry and side
        amps = (rng.standard_normal((params.L, 16))
                + 1j * rng.standard_normal((params.L, 16)))
        state = StateVector(config4, params, amps)
        us = np.array([0.29 + 0.18j, -0.13 + 0.05j, 0.21 - 0.15j])
        for entry in "ABCD":
            ref = state
            for u in us:
                ref = monodromy_entry_apply(entry, u, ref, dual=dual)
            got = monodromy_product_apply(entry, us, state, dual=dual)
            assert got.amps.tobytes() == ref.amps.tobytes()
        # the empty product is the identity, on a copy
        got = monodromy_product_apply("B", us[:0], state, dual=dual)
        assert got.amps is not state.amps
        assert got.amps.tobytes() == state.amps.tobytes()


class TestLocalOperators:
    def test_delta_site1(self, params, config4):
        st = StateVector.delta_state(config4, params, 1, 5)
        keep = local_operator_apply("delta", st, i=1, a=1)
        kill = local_operator_apply("delta", st, i=1, a=0)
        assert np.max(np.abs(keep.amps - st.amps)) == 0.0
        assert np.max(np.abs(kill.amps)) == 0.0

    def test_partition_of_unity(self, params, config4):
        dim = params.L * (1 << config4.N)
        total = np.zeros((dim, dim), dtype=complex)
        for a in range(params.L):
            total += local_operator_dense("delta", config4, params,
                                          i=3, a=a)
        assert np.max(np.abs(total - np.eye(dim))) == 0.0

    def test_delta_recursion(self, params, config4):
        # delta_s^(i) = delta_{s-1}^(i-1) E++ + delta_{s+1}^(i-1) E--
        i, a = 3, 1
        lhs = local_operator_dense("delta", config4, params, i=i, a=a)
        epp = local_operator_dense("E", config4, params,
                                   i=i - 1, alpha=1, beta=1)
        emm = local_operator_dense("E", config4, params,
                                   i=i - 1, alpha=-1, beta=-1)
        dm = local_operator_dense("delta", config4, params,
                                  i=i - 1, a=a - 1)
        dp = local_operator_dense("delta", config4, params,
                                  i=i - 1, a=a + 1)
        assert np.max(np.abs(lhs - (dm @ epp + dp @ emm))) == 0.0


class TestInverseProblem:
    def test_site1_delta_trivial(self, params, config4):
        assert inverse_problem_residual("delta", 1, config4, params, a=1) \
            < 1e-12

    def test_E_plus_plus_site2(self, params, config4):
        res = inverse_problem_residual("E", 2, config4, params,
                                       alpha=1, beta=1)
        assert res < 1e-9

    def test_delta_site3(self, params, config4):
        assert inverse_problem_residual("delta", 3, config4, params, a=1) \
            < 1e-9

    @pytest.mark.parametrize("L", [2, 3])
    def test_off_diagonal_E_refused(self, config4, L):
        # E^{+-} and E^{-+} move the spin weight by 2: on the zero-weight
        # block both sides vanish at L = 3, and at L = 2 the gap is 1.0
        params = ModelParams(tau=0.8j, r=1, L=L, s0=0.41 + 0.13j)
        for alpha, beta in ((1, -1), (-1, 1)):
            with pytest.raises(ValueError):
                inverse_problem_residual("E", 2, config4, params,
                                         alpha=alpha, beta=beta)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_diagonal_E_matches_stepwise_reconstruction(self, params,
                                                        config4, i, alpha):
        # the reconstruction t(xi_1)..t(xi_{i-1}) A|D(xi_i) t(xi_1..i)^-1,
        # product and solves in the order written out here, to the bit
        dim = params.L * 2 ** config4.N
        ts = [transfer_dense(x, config4, params)
              for x in config4.xi[:i]]
        left = np.eye(dim, dtype=complex)
        for t in ts[:i - 1]:
            left = left @ t
        recon = left @ monodromy_entry_dense("A" if alpha == 1 else "D",
                                             config4.xi[i - 1], config4,
                                             params)
        for t in ts:
            recon = np.linalg.solve(t.T, recon.T).T
        direct = local_operator_dense("E", config4, params, i=i,
                                      alpha=alpha, beta=alpha)
        idx = zero_weight_indices(config4, params)
        ref = float(np.max(np.abs(recon[np.ix_(idx, idx)]
                                  - direct[np.ix_(idx, idx)])))
        assert inverse_problem_residual("E", i, config4, params,
                                        alpha=alpha, beta=alpha) == ref


class TestInfrastructure:
    def test_size_guard(self, params):
        big = homogeneous_config(14)
        with pytest.raises(SizeGuardError):
            transfer_dense(0.3, big, params)

    def test_size_guard_counts_bytes(self, params):
        # only the estimate is checked; nothing of these sizes is allocated
        assert guard_dense(homogeneous_config(10), params) == 3 * 2 ** 10
        with pytest.raises(SizeGuardError):
            guard_dense(homogeneous_config(12), params)
        wide = ModelParams(tau=0.8j, r=1, L=48, s0=0.41 + 0.13j)
        with pytest.raises(SizeGuardError):
            guard_dense(homogeneous_config(12), wide)

    def test_sweep_guard_counts_bytes(self, params, monkeypatch):
        # a sweep holds six (L, W) complex arrays per vector and one
        # application's column weights, four complex arrays of L (W - 1)
        # cells: 4608 + 2880 = 7488 bytes at N = 4, L = 3; the budget is
        # patched, nothing large is allocated
        import csoslab.lattice as lattice
        state = StateVector.reference(homogeneous_config(4), params)
        monkeypatch.setattr(lattice, "DENSE_MAX_BYTES", 7488)
        monodromy_entry_apply("B", 0.3, state)
        monkeypatch.setattr(lattice, "DENSE_MAX_BYTES", 7487)
        with pytest.raises(SizeGuardError, match="sweep refused: N=4"):
            monodromy_entry_apply("B", 0.3, state)
        with pytest.raises(SizeGuardError):
            transfer_apply(0.3, state)

    def test_inhomogeneity_line_validation(self, params):
        bad = LatticeConfig(N=2, xi=(0.5, 0.6))
        with pytest.raises(ValueError):
            bad.validate(params)
