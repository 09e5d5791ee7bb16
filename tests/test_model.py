from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredprofile.classify import classify_analysis
from fredprofile.extvals import (
    INF,
    LINEAR_SEQ,
    UNDEF_INDEX,
    ZERO,
    ZERO_SEQ,
    EvAffineSeq,
    ExtIndex,
    ExtNat,
)
from fredprofile.model import (
    INVERTIBLE_PROFILE,
    Atom,
    LEFT_SHIFT,
    OperatorExpr,
    QNIL_SHIFT,
    QNIL_SHIFT_DUAL,
    RIGHT_SHIFT,
    StructuralProfile,
    direct_sum_profile,
    dual_expr,
    matrix_atom,
    matrix_chain_data,
    matrix_profile,
    point,
    power_profile,
    realified,
)
from fredprofile.structure import StructuralSummary, analyze_atom, analyze_expr

J2 = matrix_atom([[0, 1], [0, 0]])
J3 = matrix_atom([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def vals(seq, n=5):
    return [v.to_str() for v in map(seq.at, range(n))]


def test_point_parts_are_exact_rationals():
    assert point(1, "-2/3") == (F(1), F(-2, 3))
    assert point(F(1, 10)) == (F(1, 10), F(0))
    # 0.1 is the binary double 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="not an exact rational"):
        point(0.1)
    with pytest.raises(TypeError, match="not an exact rational"):
        point(0, 0.5)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("matrix")  # matrix atom needs a matrix
    with pytest.raises(ValueError):
        Atom("right_shift", J2.matrix)
    with pytest.raises(ValueError):
        OperatorExpr(())


def test_right_shift_inside_disk():
    p = analyze_atom(RIGHT_SHIFT, point(0)).profile
    assert vals(p.a) == ["0", "0", "0", "0", "0"]
    assert vals(p.r) == ["0", "1", "2", "3", "4"]
    assert vals(p.c) == ["0", "0", "0", "0", "0"]
    assert vals(p.b) == ["1", "1", "1", "1", "1"]
    assert p.range_closed is True
    assert not p.is_quasinilpotent
    assert p.nilpotency_degree == INF
    assert p.is_pseudofredholm_point
    # same table anywhere strictly inside the unit disk
    assert analyze_atom(RIGHT_SHIFT, point(F(1, 2), F(1, 3))).profile == p


def test_right_shift_on_circle():
    p = analyze_atom(RIGHT_SHIFT, point(F(3, 5), F(4, 5))).profile
    assert vals(p.a) == ["0", "0", "0", "0", "0"]
    assert vals(p.r) == ["0", "inf", "inf", "inf", "inf"]
    assert vals(p.c) == ["0", "0", "0", "0", "0"]
    assert vals(p.b) == ["inf", "inf", "inf", "inf", "inf"]
    assert p.range_closed is False
    assert not p.is_pseudofredholm_point
    assert analyze_atom(RIGHT_SHIFT, point(0, 1)).profile == p


def test_right_shift_outside_disk_invertible():
    p = analyze_atom(RIGHT_SHIFT, point(2)).profile
    assert vals(p.a) == ["0", "0", "0", "0", "0"]
    assert vals(p.r) == ["0", "0", "0", "0", "0"]
    assert vals(p.c) == ["0", "0", "0", "0", "0"]
    assert vals(p.b) == ["0", "0", "0", "0", "0"]
    assert p.range_closed is True
    assert p.is_pseudofredholm_point


def test_left_shift_mirrors_right_shift():
    p = analyze_atom(LEFT_SHIFT, point(0)).profile
    assert vals(p.a) == ["0", "1", "2", "3", "4"]
    assert vals(p.r) == ["0", "0", "0", "0", "0"]
    assert vals(p.c) == ["1", "1", "1", "1", "1"]
    assert vals(p.b) == ["0", "0", "0", "0", "0"]
    assert p.is_pseudofredholm_point
    on_circle = analyze_atom(LEFT_SHIFT, point(F(4, 5), F(3, 5))).profile
    assert vals(on_circle.a) == ["0", "0", "0", "0", "0"]
    assert vals(on_circle.r) == ["0", "inf", "inf", "inf", "inf"]
    assert vals(on_circle.c) == ["0", "0", "0", "0", "0"]
    assert vals(on_circle.b) == ["inf", "inf", "inf", "inf", "inf"]
    assert not on_circle.is_pseudofredholm_point


def test_qnil_shift_at_zero():
    p = analyze_atom(QNIL_SHIFT, point(0)).profile
    assert vals(p.a) == ["0", "0", "0", "0", "0"]
    assert vals(p.r) == ["0", "inf", "inf", "inf", "inf"]
    assert vals(p.c) == ["0", "0", "0", "0", "0"]
    assert vals(p.b) == ["inf", "inf", "inf", "inf", "inf"]
    assert p.range_closed is False
    assert p.is_quasinilpotent
    assert p.nilpotency_degree == INF
    assert p.is_pseudofredholm_point


def test_qnil_shift_elsewhere_invertible():
    for lam in (point(F(1, 3)), point(0, F(-2, 7)), point(1)):
        p = analyze_atom(QNIL_SHIFT, lam).profile
        assert vals(p.a) == ["0", "0", "0", "0", "0"]
        assert vals(p.r) == ["0", "0", "0", "0", "0"]
        assert vals(p.c) == ["0", "0", "0", "0", "0"]
        assert vals(p.b) == ["0", "0", "0", "0", "0"]
        assert not p.is_quasinilpotent


def test_qnil_dual_at_zero():
    p = analyze_atom(QNIL_SHIFT_DUAL, point(0)).profile
    assert vals(p.a) == ["0", "1", "2", "3", "4"]
    assert vals(p.r) == ["0", "inf", "inf", "inf", "inf"]
    assert vals(p.c) == ["1", "1", "1", "1", "1"]
    assert vals(p.b) == ["inf", "inf", "inf", "inf", "inf"]
    assert p.is_quasinilpotent
    assert p.is_pseudofredholm_point


def test_matrix_profile_diag_one_zero():
    p = analyze_expr(OperatorExpr.of(matrix_atom([[1, 0], [0, 0]])), point(0)).full
    assert vals(p.a) == ["0", "1", "1", "1", "1"]
    assert vals(p.r) == ["0", "1", "1", "1", "1"]
    assert vals(p.c) == ["1", "0", "0", "0", "0"]
    assert vals(p.b) == ["1", "0", "0", "0", "0"]
    assert p.range_closed is True
    assert p.nilpotency_degree == INF


def test_matrix_profile_shifted_eigenvalue():
    # diag(1,0) - 1 has the same shape with the roles of the eigenvalues swapped
    p = analyze_expr(OperatorExpr.of(matrix_atom([[1, 0], [0, 0]])), point(1)).full
    assert vals(p.a) == ["0", "1", "1", "1", "1"]
    assert vals(p.r) == ["0", "1", "1", "1", "1"]


def test_jordan_sum_kernel_chain():
    p = analyze_expr(OperatorExpr.of(J2, J3), point(0)).full
    assert vals(p.a, 6) == ["0", "2", "4", "5", "5", "5"]
    assert vals(p.r, 6) == ["0", "2", "4", "5", "5", "5"]
    assert p.nilpotency_degree == ExtNat(3)
    assert p.is_quasinilpotent


def test_matrix_chain_data_fitting_index():
    # ranks through the stabilized power, nu = len(ranks) - 2; the profile's
    # kernel chain stabilizes at nu
    ranks = matrix_chain_data(J3.matrix)
    assert ranks == (3, 2, 1, 0, 0)
    assert matrix_profile(ranks).a.stabilization_point() == ExtNat(3)
    ranks2 = matrix_chain_data(matrix_atom([[2, 0], [0, 3]]).matrix)
    assert ranks2 == (2, 2)
    # off the spectrum: the one shared invertible profile, not a new copy
    assert matrix_profile(ranks2) is INVERTIBLE_PROFILE
    ranks3 = matrix_chain_data(matrix_atom([[0, 0], [0, 1]]).matrix)
    assert ranks3 == (2, 1, 1)
    assert matrix_profile(ranks3).a.stabilization_point() == ExtNat(1)


def test_realified_even_and_halved():
    rot = matrix_atom([[0, -1], [1, 0]])
    m = realified(rot.matrix, F(0), F(1))
    assert m.rows == 4
    assert matrix_chain_data(rot.matrix, point(0, 1)) == (2, 1, 1)
    p = analyze_expr(OperatorExpr.of(rot), point(0, 1)).full
    assert vals(p.a) == ["0", "1", "1", "1", "1"]
    assert vals(p.r) == ["0", "1", "1", "1", "1"]
    # real points stay in the original space
    m2 = realified(rot.matrix, F(1, 2), F(0))
    assert m2 == rot.matrix.minus_scalar(F(1, 2))
    assert matrix_chain_data(rot.matrix, point(F(1, 2))) == (2, 2)


def test_complex_point_invertible_matrix():
    p = analyze_expr(OperatorExpr.of(J2), point(0, F(1, 10))).full
    assert vals(p.a) == ["0", "0", "0", "0", "0"]
    assert vals(p.r) == ["0", "0", "0", "0", "0"]


def test_direct_sum_adds_chains():
    pr = analyze_atom(RIGHT_SHIFT, point(0)).profile
    pl = analyze_atom(LEFT_SHIFT, point(0)).profile
    total = direct_sum_profile([pr, pl])
    assert vals(total.a) == ["0", "1", "2", "3", "4"]
    assert vals(total.r) == ["0", "1", "2", "3", "4"]
    assert vals(total.c) == ["1", "1", "1", "1", "1"]
    assert vals(total.b) == ["1", "1", "1", "1", "1"]
    assert total.is_pseudofredholm_point


def test_invertible_summand_adds_zero_chains():
    two = OperatorExpr.of(RIGHT_SHIFT, matrix_atom([[2]]))
    alone = analyze_expr(OperatorExpr.of(RIGHT_SHIFT), point(0)).full
    both = analyze_expr(two, point(0)).full
    assert both == alone


def test_quasinilpotence_is_a_conjunction():
    p = analyze_expr(OperatorExpr.of(J2, matrix_atom([[2]])), point(0)).full
    assert not p.is_quasinilpotent
    assert p.nilpotency_degree == INF
    assert vals(p.a) == ["0", "1", "2", "2", "2"]


def test_dual_expr_atomwise():
    e = OperatorExpr.of(RIGHT_SHIFT, J2, QNIL_SHIFT)
    d = dual_expr(e)
    assert d.atoms[0] == LEFT_SHIFT
    assert d.atoms[1].matrix.to_rows() == [[F(0), F(0)], [F(1), F(0)]]
    assert d.atoms[2] == QNIL_SHIFT_DUAL
    for e2 in (OperatorExpr.of(LEFT_SHIFT), OperatorExpr.of(J3), OperatorExpr.of(QNIL_SHIFT)):
        assert dual_expr(dual_expr(e2)) == e2


def test_power_profile_of_nilpotent_matches_direct_computation():
    sq = power_profile(analyze_expr(OperatorExpr.of(J2), point(0)).full, 2)
    direct = analyze_expr(OperatorExpr.of(matrix_atom([[0, 0], [0, 0]])), point(0)).full
    assert sq == direct


def test_power_profile_of_shift():
    cubed = power_profile(analyze_atom(RIGHT_SHIFT, point(0)).profile, 3)
    assert vals(cubed.r) == ["0", "3", "6", "9", "12"]
    assert vals(cubed.b) == ["3", "3", "3", "3", "3"]
    assert vals(cubed.a) == ["0", "0", "0", "0", "0"]
    assert cubed.range_closed is True
    lifted = power_profile(analyze_atom(LEFT_SHIFT, point(0)).profile, 3)
    assert vals(lifted.a) == ["0", "3", "6", "9", "12"]
    assert vals(lifted.c) == ["3", "3", "3", "3", "3"]


def test_power_one_is_identity():
    p = analyze_expr(OperatorExpr.of(J3, RIGHT_SHIFT), point(0)).full
    assert power_profile(p, 1) == p


def test_power_nilpotency_degree_divides():
    p = analyze_expr(OperatorExpr.of(J3), point(0)).full
    assert power_profile(p, 2).nilpotency_degree == ExtNat(2)
    assert power_profile(p, 3).nilpotency_degree == ExtNat(1)
    assert power_profile(p, 4).nilpotency_degree == ExtNat(1)


def test_profile_consistency_enforced():
    # a_0 and r_0 describe the identity power, which is injective and onto
    shifted = EvAffineSeq((), ExtNat(1), 1)
    for a, r in ((shifted, LINEAR_SEQ), (LINEAR_SEQ, shifted)):
        with pytest.raises(ValueError):
            StructuralProfile(
                a=a,
                r=r,
                range_closed=True,
                is_quasinilpotent=False,
                nilpotency_degree=INF,
                is_pseudofredholm_point=True,
            )


# points inside, on and outside the unit circle; matrices may have them as
# eigenvalues
POINTS = (
    point(0),
    point(F(1, 2), F(1, 3)),
    point(1),
    point(F(3, 5), F(4, 5)),
    point(0, -1),
    point(2),
    point(F(-1, 2), F(3, 2)),
)
SHIFTS = ("right_shift", "left_shift", "qnil_shift", "qnil_shift_dual")


@st.composite
def atoms_at_point(draw):
    """One to four atoms, shifts or upper triangular d <= 4 matrices, and a
    point. A matrix's diagonal draws from the point's real part and 0; at
    a complex point its leading 2 x 2 block may be [[re, -im], [im, re]],
    so the point is an eigenvalue of it."""
    lam = draw(st.sampled_from(POINTS))
    re, im = lam
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("matrix",) + SHIFTS))
        if kind != "matrix":
            atoms.append(Atom(kind))
            continue
        d = draw(st.integers(1, 4))
        rows = [
            [draw(st.integers(-1, 1)) if j > i else 0 for j in range(d)] for i in range(d)
        ]
        for i in range(d):
            rows[i][i] = draw(st.sampled_from((re, F(0))))
        if im and d >= 2 and draw(st.booleans()):
            rows[0][0], rows[0][1], rows[1][0], rows[1][1] = re, -im, im, re
        atoms.append(matrix_atom(rows))
    return atoms, lam


@settings(max_examples=200, deadline=None)
@given(atoms_at_point())
def test_derived_chains_commute_with_direct_sums(case):
    atoms, lam = case
    ps = [analyze_atom(a, lam).profile for a in atoms]
    total = direct_sum_profile(ps)
    assert total.c == reduce(EvAffineSeq.add, [p.c for p in ps])
    assert total.b == reduce(EvAffineSeq.add, [p.b for p in ps])


# the profile of the map on {0}: the neutral element of direct sums, for a
# side with no piece
_NOTHING = StructuralProfile(ZERO_SEQ, ZERO_SEQ, True, True, ZERO, True)


def _summed_side(profiles, power):
    return power_profile(direct_sum_profile(profiles or [_NOTHING]), power)


@settings(max_examples=200, deadline=None)
@given(atoms_at_point(), st.integers(1, 3))
def test_summary_from_semi_regular_pieces_equals_summed_profiles(case, power):
    # the summary and the b-Fredholm flag against the route that sums each
    # side's pieces into one profile and takes its power
    atoms, lam = case
    an = analyze_expr(OperatorExpr(tuple(atoms)), lam, power)
    dis = an.full.c.stabilization_point()
    want = StructuralSummary(None, None, None, None, UNDEF_INDEX, dis)
    b_fredholm = False
    if an.decomposable:
        m = _summed_side([p.m_profile for p in an.parts if p.m_profile is not None], power)
        n = _summed_side([p.n_profile for p in an.parts if p.n_profile is not None], power)
        alpha, beta = m.a.at(1), m.r.at(1)
        p, q = m.a.stabilization_point(), m.r.stabilization_point()
        index = ExtIndex.from_alpha_beta(alpha, beta)
        want = StructuralSummary(alpha, beta, p, q, index, dis)
        b_fredholm = alpha.is_finite and beta.is_finite and n.nilpotency_degree.is_finite
    assert an.summary == want
    assert classify_analysis(an).flag("b_fredholm") == b_fredholm


def test_matrix_ambient():
    e = OperatorExpr.of(RIGHT_SHIFT, J2, J3)
    assert e.matrix_ambient() == 5
