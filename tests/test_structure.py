from fractions import Fraction as F
from random import Random

import pytest

from fredprofile.extvals import INF, ExtIndex, ExtNat
from fredprofile.linalg import ExactMatrix, kernel_basis, rank, restrict
from fredprofile.model import (
    LEFT_SHIFT,
    OperatorExpr,
    QNIL_SHIFT,
    RIGHT_SHIFT,
    matrix_atom,
    matrix_chain_data,
    point,
)
from fredprofile.structure import (
    StructuralSummary,
    analyze_atom,
    analyze_expr,
    drazin_inverse,
    gkd_pair,
    matrix_split,
)
from fredprofile.verify import (
    alpha_beta_core_oracle,
    index_with_nilpotent_regrouped,
    random_matrix,
)

J2 = matrix_atom([[0, 1], [0, 0]])
J3 = matrix_atom([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
J2_DIAG2 = matrix_atom([[0, 1, 0], [0, 0, 0], [0, 0, 2]])


def mat(rows):
    return ExactMatrix.from_rows([[F(x) for x in r] for r in rows])


def decomposable_analysis(e, lam):
    an = analyze_expr(e, lam)
    assert an.decomposable
    return an


def test_jordan3_chains():
    p = analyze_expr(OperatorExpr.of(J3), point(0)).full
    assert [v.to_str() for v in map(p.a.at, range(5))] == ["0", "1", "2", "3", "3"]
    assert [v.to_str() for v in map(p.c.at, range(5))] == ["1", "1", "1", "0", "0"]
    assert [v.to_str() for v in map(p.c.diff().at, range(5))] == ["0", "0", "1", "0", "0"]
    assert p.c.stabilization_point() == ExtNat(3)  # dis
    assert p.a.stabilization_point() == ExtNat(3)  # the Fitting index


def test_gkd_nilpotent_matrix_is_all_nilpotent_part():
    pair = gkd_pair(decomposable_analysis(OperatorExpr.of(J3), point(0)))
    assert pair.m_part is None
    assert pair.n_part is not None and len(pair.n_part.atoms) == 1
    split = pair.splits[0]
    assert split.m_basis.dim == 0
    assert split.n_basis.dim == 3


def test_gkd_mixed_matrix_split_bases():
    pair = gkd_pair(decomposable_analysis(OperatorExpr.of(J2_DIAG2), point(0)))
    split = pair.splits[0]
    assert split.m_basis.vectors == ((F(0), F(0), F(1)),)
    assert split.n_basis.vectors == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    # restriction to the invertible side is the 1x1 block [2]
    m_block = pair.m_part.atoms[0].matrix
    assert m_block.to_rows() == [[F(2)]]


def test_gkd_shift_atoms_go_wholesale():
    pair = gkd_pair(decomposable_analysis(OperatorExpr.of(RIGHT_SHIFT, QNIL_SHIFT), point(0)))
    assert pair.m_part.atoms == (RIGHT_SHIFT,)
    assert pair.n_part.atoms == (QNIL_SHIFT,)
    assert pair.splits == ()


def test_gkd_rejects_circle_points():
    for e, lam in (
        (OperatorExpr.of(RIGHT_SHIFT), point(F(3, 5), F(4, 5))),
        (OperatorExpr.of(LEFT_SHIFT), point(0, 1)),
    ):
        an = analyze_expr(e, lam)
        assert not an.decomposable
        s = an.summary
        assert (s.alpha, s.beta, s.p, s.q) == (None,) * 4
        assert s.index.to_str() == "undef"


def test_summary_right_shift():
    s = decomposable_analysis(OperatorExpr.of(RIGHT_SHIFT), point(0)).summary
    assert (s.alpha, s.beta) == (ExtNat(0), ExtNat(1))
    assert (s.p, s.q) == (ExtNat(0), INF)
    assert s.index == ExtIndex.of(-1)


def test_summary_left_plus_right():
    s = decomposable_analysis(OperatorExpr.of(LEFT_SHIFT, RIGHT_SHIFT), point(0)).summary
    assert (s.alpha, s.beta) == (ExtNat(1), ExtNat(1))
    assert (s.p, s.q) == (INF, INF)
    assert s.index == ExtIndex.of(0)


def test_summary_quasinilpotent_trivial_m_part():
    s = decomposable_analysis(OperatorExpr.of(J3), point(0)).summary
    assert (s.alpha, s.beta, s.p, s.q) == (ExtNat(0),) * 4
    assert s.index.is_zero()


def test_undecomposable_summary_has_undefined_fields():
    an = analyze_expr(OperatorExpr.of(RIGHT_SHIFT), point(1))
    assert not an.decomposable
    s = an.summary
    assert s.alpha is None and s.beta is None and s.p is None and s.q is None
    assert s.index.to_str() == "undef"
    assert s.dis == ExtNat(0)


def test_summary_validation():
    with pytest.raises(ValueError):
        StructuralSummary(ExtNat(1), None, None, None, ExtIndex.of(1), ExtNat(0))
    with pytest.raises(ValueError):
        StructuralSummary(
            ExtNat(1), ExtNat(0), ExtNat(0), ExtNat(0), ExtIndex.of(0), ExtNat(0)
        )


def test_index_shortcuts():
    e = OperatorExpr.of(RIGHT_SHIFT, RIGHT_SHIFT, LEFT_SHIFT)
    assert analyze_expr(e, point(0)).summary.index == ExtIndex.of(-1)
    assert analyze_expr(OperatorExpr.of(RIGHT_SHIFT), point(0, 1)).summary.index.to_str() == "undef"


def test_h0_and_core():
    split = matrix_split(analyze_atom(J2_DIAG2, point(0)), 0)
    h0, core = split.n_basis, split.m_basis
    assert h0.vectors == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert core.vectors == ((F(0), F(0), F(1)),)
    spliti = matrix_split(analyze_atom(matrix_atom([[1, 0], [0, 1]]), point(0)), 0)
    assert spliti.n_basis.dim == 0 and spliti.m_basis.dim == 2


def test_core_oracle_zero_for_matrices():
    for m in (J2_DIAG2.matrix, J3.matrix, mat([[1, 2], [3, 4]])):
        split = matrix_split(analyze_atom(matrix_atom(m.to_rows()), point(0)), 0)
        assert alpha_beta_core_oracle(split) == (ExtNat(0), ExtNat(0))


def test_drazin_diag():
    dz = drazin_inverse(mat([[1, 0], [0, 0]]))
    assert dz.to_rows() == [[F(1), F(0)], [F(0), F(0)]]


def test_drazin_jordan2_with_invertible_block():
    dz = drazin_inverse(J2_DIAG2.matrix)
    assert dz.to_rows() == [
        [F(0), F(0), F(0)],
        [F(0), F(0), F(0)],
        [F(0), F(0), F(1, 2)],
    ]


def test_drazin_of_invertible_is_inverse():
    m = mat([[2, 1], [1, 1]])
    dz = drazin_inverse(m)
    assert (m @ dz).to_rows() == ExactMatrix.identity(2).to_rows()


def test_drazin_of_nilpotent_is_zero():
    assert drazin_inverse(J3.matrix).is_zero()


def test_drazin_axioms_on_random_matrices():
    rng = Random(7)
    for _ in range(25):
        m = random_matrix(rng)
        nu = len(matrix_chain_data(m)) - 2
        dz = drazin_inverse(m)
        assert (dz @ m).entries == (m @ dz).entries
        assert (dz @ m @ dz).entries == dz.entries
        assert (m.power(nu + 1) @ dz).entries == m.power(nu).entries


def test_restriction_profile_examples():
    p3 = analyze_expr(OperatorExpr.of(J3), point(0)).full
    # c_n and b_n, the defects of the restriction to the range of the n-th
    # power, and their index
    cn, bn = p3.c.at(2), p3.b.at(2)
    assert (cn, bn) == (ExtNat(1), ExtNat(1))
    assert ExtIndex.from_alpha_beta(cn, bn).is_zero()
    pr = analyze_expr(OperatorExpr.of(RIGHT_SHIFT), point(0)).full
    cn, bn = pr.c.at(5), pr.b.at(5)
    assert (cn, bn) == (ExtNat(0), ExtNat(1))
    assert ExtIndex.from_alpha_beta(cn, bn) == ExtIndex.of(-1)


def test_restriction_index_stabilizes_at_summary_index():
    # once past dis, restricting changes nothing about the index
    for atoms in ((RIGHT_SHIFT, J3), (LEFT_SHIFT, J2), (J2, J3)):
        e = OperatorExpr.of(*atoms)
        an = analyze_expr(e, point(0))
        d = int(an.summary.dis)
        for n in range(d, d + 3):
            restricted = ExtIndex.from_alpha_beta(an.full.c.at(n), an.full.b.at(n))
            assert restricted == an.summary.index


def test_regrouping_invariance():
    e = OperatorExpr.of(RIGHT_SHIFT, J3, QNIL_SHIFT)
    assert index_with_nilpotent_regrouped(e, point(0)) == analyze_expr(e, point(0)).summary.index
    e2 = OperatorExpr.of(LEFT_SHIFT, J2)
    assert index_with_nilpotent_regrouped(e2, point(0)) == analyze_expr(e2, point(0)).summary.index
    with pytest.raises(ValueError):
        index_with_nilpotent_regrouped(OperatorExpr.of(RIGHT_SHIFT), point(0))


def test_relation_between_p_q_and_defects():
    # finite p forces alpha <= beta, finite q forces alpha >= beta
    rng = Random(11)
    exprs = [
        OperatorExpr.of(RIGHT_SHIFT),
        OperatorExpr.of(LEFT_SHIFT),
        OperatorExpr.of(RIGHT_SHIFT, LEFT_SHIFT),
        OperatorExpr.of(QNIL_SHIFT, J3),
    ] + [OperatorExpr.of(matrix_atom(random_matrix(rng).to_rows())) for _ in range(10)]
    for e in exprs:
        s = analyze_expr(e, point(0)).summary
        if s.alpha is None:
            continue
        if s.p.is_finite:
            assert s.alpha <= s.beta
        if s.q.is_finite:
            assert s.alpha >= s.beta
        if s.p.is_finite and s.q.is_finite:
            assert s.p == s.q and s.alpha == s.beta


def test_m_part_is_semi_regular_and_n_part_nilpotency_matches():
    rng = Random(13)
    for _ in range(20):
        m = random_matrix(rng)
        e = OperatorExpr.of(matrix_atom(m.to_rows()))
        an = analyze_expr(e, point(0))
        nu = len(matrix_chain_data(m)) - 2
        assert an.summary.alpha == an.summary.beta == ExtNat(0)
        # an invertible m (nu = 0) has no quasi-nilpotent piece
        n_prof = an.parts[0].n_profile
        assert (n_prof is None) == (nu == 0)
        assert nu == 0 or n_prof.nilpotency_degree == ExtNat(nu)


def test_gkd_restrictions_recompose():
    # applying the operator inside each split piece stays in that piece
    m = mat([[0, 1, 1], [0, 0, 1], [0, 0, 3]])
    e = OperatorExpr.of(matrix_atom(m.to_rows()))
    pair = gkd_pair(decomposable_analysis(e, point(0)))
    split = pair.splits[0]
    for basis in (split.m_basis, split.n_basis):
        if basis.dim:
            blk = restrict(m, basis)
            assert blk.rows == basis.dim
    assert split.m_basis.dim + split.n_basis.dim == 3
