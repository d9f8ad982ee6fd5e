"""Property tests: the determinant routes against their oracles, within the
contract rows, over drawn models."""

import pytest

from csoslab import bethe as B
from csoslab import contract as C
from csoslab import elliptic as E
from csoslab import matel as M
from csoslab import scalar as S
from csoslab.lattice import LatticeConfig

# every failure the package may raise on a drawn model; the Bethe solve
# is not one of them
TYPED_ERRORS = (E.EllipticDomainError, E.PoleError, E.DegenerateConfigError,
                E.SizeGuardError, E.AccuracyError)
ACC = C.TOL["acceptance"]

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# every odd-L coprime family with L <= 7 and a (1, 1) label (L - r >= 2)
ODD_FAMILIES = ((3, 1), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3),
                (7, 4), (7, 5))


@st.composite
def models(draw, families=ODD_FAMILIES):
    """(L, r) from families, Im tau in [0.4, 1.2], a generic s0 and
    xi_j = 1/2 + i y_j with |y_j| <= 0.05, at N = 4.

    Even L, (4, 1), is drawn for the flat-basis test only: its twist
    partners (0, 0) and (1, 1) share their root set with different
    omega^2, so the determinant route refuses that pair with a typed error
    and the route comparison would end every example there.
    """
    L, r = draw(st.sampled_from(families))
    tau_im = draw(st.floats(0.4, 1.2))
    s0 = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.05, 0.5)))
    # equal offsets are refused exactly (a collision); near-equal ones are
    # drawn and must be refused or agree
    ys = draw(st.lists(st.floats(-0.05, 0.05), min_size=4, max_size=4,
                       unique=True))
    params = E.ModelParams(tau=1j * tau_im, r=r, L=L, s0=s0)
    return params, LatticeConfig(N=4, xi=tuple(0.5 + 1j * y for y in ys))


def test_routes_agree_or_raise_typed():
    # a typed error may end an example, but not most of them: the routes
    # are compared on 56 of the 60 examples drawn, and fewer than 45 would
    # mean the refusals hide what the comparison checks; every drawn
    # family solves, so a SolverError fails the test
    compared = []

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=60)
    @hypothesis.given(models())
    def check(model):
        params, config = model
        try:
            gs = B.all_ground_states(config, params)
            for roots in gs.values():
                dense = B.bethe_vector(roots, side="left").dot(
                    B.bethe_vector(roots, side="right"))
                gap = abs(S.norm_det(roots) - dense) / abs(dense)
                assert gap < ACC["norm_vs_dense"]
            us, vs = gs[(0, 0)], gs[(1, 1)]
            for heights in ((1, 2), (0, 1, 2)):
                path = M.vertical_path(heights)
                brute = M.mpme_bruteforce(us, vs, path, heights[0])
                det = M.mpme_det(us, vs, path, heights[0])
                assert abs(det - brute) / abs(brute) < ACC["mpme_vs_dense"]
            compared.append(model)
        except TYPED_ERRORS:
            pass

    check()
    assert len(compared) >= 45, len(compared)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=12)
@hypothesis.given(models(families=((4, 1),)))
def test_even_L_flat_one_point_is_a_probability(model):
    # the flat rotation mixes the dense partner elements with det ones;
    # flat label (0, 0) must still give a probability table
    params, config = model
    try:
        gs = B.all_ground_states(config, params)
    except TYPED_ERRORS:
        return
    vals = [M.finite_lhp(M.AdjacentPath(vertices=((1, 1),), heights=(a,)),
                         ("flat", 0, 0), gs) for a in range(params.L)]
    assert abs(sum(vals) - 1.0) < 1e-12
    assert min(v.real for v in vals) >= -ACC["flat_negative"]
