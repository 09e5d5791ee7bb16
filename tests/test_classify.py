import dataclasses
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredprofile.catalog import CATALOG, by_name
from fredprofile.classify import (
    _EQUIVALENT,
    _IMPLIES,
    _NEED_PSEUDO_FREDHOLM,
    FLAG_NAMES,
    ClassificationRecord,
    check_lattice,
    classify,
    classify_analysis,
)
from fredprofile.extvals import INF, UNDEF_INDEX, ExtIndex, ExtNat
from fredprofile.model import (
    LEFT_SHIFT,
    OperatorExpr,
    QNIL_SHIFT,
    QNIL_SHIFT_DUAL,
    RIGHT_SHIFT,
    dual_expr,
    matrix_atom,
    point,
)
from fredprofile.structure import StructuralSummary, analyze_expr
from fredprofile.verify import random_matrix

ZERO = ExtNat(0)


def test_flag_names_fixed_order():
    assert FLAG_NAMES[0] == "invertible"
    assert FLAG_NAMES[-1] == "gen_drazin"
    assert len(FLAG_NAMES) == 25
    assert len(set(FLAG_NAMES)) == 25
    fields = [f.name for f in dataclasses.fields(ClassificationRecord)]
    assert FLAG_NAMES == tuple(fields[:-1]) and fields[-1] == "summary"


def test_right_shift_record():
    rec = classify(OperatorExpr.of(RIGHT_SHIFT), point(0))
    assert rec.bounded_below and not rec.surjective and not rec.invertible
    assert rec.fredholm and rec.semi_regular
    assert not rec.weyl and rec.upper_semi_weyl and not rec.lower_semi_weyl
    assert rec.b_fredholm and rec.pseudo_b_fredholm
    assert not rec.pseudo_b_weyl
    assert rec.left_gen_drazin and not rec.right_gen_drazin
    assert rec.summary.index.to_str() == "-1"


def test_left_shift_record_is_the_mirror():
    rec = classify(OperatorExpr.of(LEFT_SHIFT), point(0))
    assert rec.surjective and not rec.bounded_below
    assert rec.right_gen_drazin and not rec.left_gen_drazin
    assert rec.lower_semi_weyl and not rec.upper_semi_weyl
    assert rec.summary.index.to_str() == "1"


def test_qnil_record():
    rec = classify(OperatorExpr.of(QNIL_SHIFT), point(0))
    assert rec.quasi_nilpotent and not rec.nilpotent
    assert rec.pseudo_b_fredholm and rec.pseudo_b_weyl and rec.gen_drazin
    assert not rec.b_fredholm
    assert not rec.fredholm and not rec.semi_regular
    assert rec.summary.index.is_zero()


def test_shift_plus_qnil_record():
    rec = classify(OperatorExpr.of(RIGHT_SHIFT, QNIL_SHIFT), point(0))
    assert rec.pseudo_b_fredholm and not rec.b_fredholm
    assert rec.summary.index.to_str() == "-1"
    assert not rec.upper_semi_fredholm  # the quasi-nilpotent part spoils closedness


def test_invertible_point_has_every_two_sided_flag():
    rec = classify(OperatorExpr.of(RIGHT_SHIFT), point(2))
    for name in FLAG_NAMES:
        if name in ("quasi_nilpotent", "nilpotent"):
            assert not rec.flag(name)
        else:
            assert rec.flag(name), name


def test_circle_point_record():
    rec = classify(OperatorExpr.of(RIGHT_SHIFT), point(0, 1))
    assert not rec.pseudo_fredholm
    assert not rec.semi_regular and not rec.pseudo_b_fredholm
    assert not rec.gen_drazin
    assert rec.summary.alpha is None
    assert rec.summary.index.to_str() == "undef"


def test_pure_matrix_points_degenerate():
    # every square matrix is b-Fredholm with index 0 and generalized Drazin
    rng = Random(3)
    for _ in range(15):
        e = OperatorExpr.of(matrix_atom(random_matrix(rng).to_rows()))
        rec = classify(e, point(0))
        assert rec.b_fredholm and rec.gen_drazin and rec.summary.index.is_zero()


def test_nilpotent_flag_only_for_nilpotent_exprs():
    assert classify(by_name("jordan3").expr, point(0)).nilpotent
    assert not classify(by_name("jordan2_diag2").expr, point(0)).nilpotent
    assert not classify(OperatorExpr.of(QNIL_SHIFT), point(0)).nilpotent


def test_lattice_clean_on_catalog_points():
    pts = [point(0), point(F(1, 2)), point(0, 1), point(F(3, 5), F(4, 5)), point(2)]
    for entry in CATALOG:
        for lam in pts:
            rec = classify(entry.expr, lam, entry.power)
            assert check_lattice(rec) == []


def test_lattice_flags_hand_corrupted_records():
    rec = classify(OperatorExpr.of(RIGHT_SHIFT), point(0))
    bad = dataclasses.replace(rec, fredholm=True, b_fredholm=False)
    assert any("b_fredholm" in v for v in check_lattice(bad))
    bad2 = dataclasses.replace(rec, invertible=True)
    assert check_lattice(bad2) != []
    bad3 = dataclasses.replace(rec, pseudo_fredholm=False)
    assert any("pseudo_fredholm" in v for v in check_lattice(bad3))


def test_semi_b_fredholm_iff_semi_fredholm_plus_nilpotent_split():
    # with only nilpotent matrices as quasi-nilpotent atoms, the one-sided
    # b-flags match having a semi-Fredholm part next to a nilpotent part
    cases = [
        (OperatorExpr.of(RIGHT_SHIFT, matrix_atom([[0, 1], [0, 0]])), True, True),
        (OperatorExpr.of(LEFT_SHIFT, matrix_atom([[0, 0], [0, 0]])), True, True),
        (OperatorExpr.of(matrix_atom([[0, 1], [0, 0]])), True, True),
        (OperatorExpr.of(RIGHT_SHIFT, LEFT_SHIFT), True, True),
    ]
    for e, want_u, want_l in cases:
        rec = classify(e, point(0))
        assert rec.upper_semi_b_fredholm == want_u
        assert rec.lower_semi_b_fredholm == want_l


def test_dual_record_swaps_one_sided_flags():
    swap = {
        "bounded_below": "surjective",
        "surjective": "bounded_below",
        "upper_semi_fredholm": "lower_semi_fredholm",
        "lower_semi_fredholm": "upper_semi_fredholm",
        "upper_semi_weyl": "lower_semi_weyl",
        "lower_semi_weyl": "upper_semi_weyl",
        "upper_semi_b_fredholm": "lower_semi_b_fredholm",
        "lower_semi_b_fredholm": "upper_semi_b_fredholm",
        "upper_pseudo_semi_b_fredholm": "lower_pseudo_semi_b_fredholm",
        "lower_pseudo_semi_b_fredholm": "upper_pseudo_semi_b_fredholm",
        "upper_pseudo_semi_b_weyl": "lower_pseudo_semi_b_weyl",
        "lower_pseudo_semi_b_weyl": "upper_pseudo_semi_b_weyl",
        "left_gen_drazin": "right_gen_drazin",
        "right_gen_drazin": "left_gen_drazin",
    }
    for entry in CATALOG:
        rec = classify(entry.expr, point(0), entry.power)
        drec = classify(dual_expr(entry.expr), point(0), entry.power)
        if not rec.pseudo_fredholm:
            continue
        for name in FLAG_NAMES:
            assert drec.flag(swap.get(name, name)) == rec.flag(name), (entry.name, name)
        assert drec.summary.index == rec.summary.index.neg()


def test_classify_powers():
    rec = classify(OperatorExpr.of(RIGHT_SHIFT), point(0), power=3)
    assert rec.summary.index.to_str() == "-3"
    assert rec.bounded_below
    rec2 = classify(by_name("jordan3").expr, point(0), power=2)
    assert rec2.nilpotent and rec2.summary.index.is_zero()


def _closed_at(atom, lam, n):
    """Whether R((atom - lam)^n) is closed, per power: always for a matrix
    and at n = 0; for a plain shift off the unit circle; for a weighted
    shift off 0, where it is invertible."""
    if atom.kind == "matrix" or n == 0:
        return True
    if atom.kind in ("right_shift", "left_shift"):
        return lam[0] ** 2 + lam[1] ** 2 != 1
    return lam != (0, 0)


def _exists_closed_pair_with_finite(closed, chain):
    """The per-power definition of the semi-B-Fredholm flags: some n with
    R(S^n) and R(S^(n+1)) closed and the chain finite at n. closed[n] says
    whether R(S^n) is closed and holds from its last n on; both sequences
    are then constant, so one step past both tails decides it."""
    horizon = max(len(closed), chain.tail_start) + 1
    closed += closed[-1:] * (horizon + 1)
    return any(closed[n] and closed[n + 1] and chain.at(n).is_finite for n in range(horizon + 1))


_ORACLE_ATOMS = (
    RIGHT_SHIFT,
    LEFT_SHIFT,
    QNIL_SHIFT,
    QNIL_SHIFT_DUAL,
    matrix_atom([[0, 1], [0, 0]]),
    matrix_atom([["1/2", 1], [0, 2]]),
)
_ORACLE_POINTS = (point(0), point("1/2"), point(1), point("3/5", "4/5"), point(0, 1), point(2))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(_ORACLE_ATOMS), min_size=1, max_size=3),
    st.sampled_from(_ORACLE_POINTS),
    st.integers(1, 3),
)
def test_closedness_bit_matches_per_power_definition(atoms, lam, k):
    e = OperatorExpr(tuple(atoms))
    an = analyze_expr(e, lam, k)
    # R(S^(k*n)) of the sum is the sum of the atoms' ranges, closed exactly
    # when each is; every atom's closedness is constant from n = 1 on
    closed = tuple(all(_closed_at(a, lam, k * n) for a in atoms) for n in range(5))
    assert all(an.full.range_closed == closed[n] for n in range(1, 5))
    rec = classify_analysis(an)
    assert rec.upper_semi_b_fredholm == _exists_closed_pair_with_finite(closed, an.full.c)
    assert rec.lower_semi_b_fredholm == _exists_closed_pair_with_finite(closed, an.full.b)


def _reference_check_lattice(rec):
    """The hand-written checker the rule tables replaced, kept verbatim as
    the reference."""
    out: list[str] = []
    f = rec.flag
    idx = rec.summary.index

    def implies(name: str, a: bool, b: bool):
        if a and not b:
            out.append(name)

    def equiv(name: str, a: bool, b: bool):
        if a != b:
            out.append(name)

    implies("invertible => bounded_below", f("invertible"), f("bounded_below"))
    implies("invertible => surjective", f("invertible"), f("surjective"))
    equiv(
        "invertible <=> bounded_below and surjective",
        f("invertible"),
        f("bounded_below") and f("surjective"),
    )
    implies("bounded_below => upper_semi_fredholm", f("bounded_below"), f("upper_semi_fredholm"))
    implies("bounded_below => semi_regular", f("bounded_below"), f("semi_regular"))
    implies("bounded_below => left_gen_drazin", f("bounded_below"), f("left_gen_drazin"))
    implies("surjective => lower_semi_fredholm", f("surjective"), f("lower_semi_fredholm"))
    implies("surjective => semi_regular", f("surjective"), f("semi_regular"))
    implies("surjective => right_gen_drazin", f("surjective"), f("right_gen_drazin"))
    equiv(
        "fredholm <=> upper and lower semi_fredholm",
        f("fredholm"),
        f("upper_semi_fredholm") and f("lower_semi_fredholm"),
    )
    equiv(
        "weyl <=> fredholm with index 0",
        f("weyl"),
        f("fredholm") and idx.is_zero(),
    )
    equiv(
        "upper_semi_weyl <=> upper_semi_fredholm with index <= 0",
        f("upper_semi_weyl"),
        f("upper_semi_fredholm") and idx.le_zero(),
    )
    equiv(
        "lower_semi_weyl <=> lower_semi_fredholm with index >= 0",
        f("lower_semi_weyl"),
        f("lower_semi_fredholm") and idx.ge_zero(),
    )
    equiv(
        "weyl <=> upper and lower semi_weyl",
        f("weyl"),
        f("upper_semi_weyl") and f("lower_semi_weyl"),
    )
    implies(
        "upper_semi_fredholm => upper_semi_b_fredholm",
        f("upper_semi_fredholm"),
        f("upper_semi_b_fredholm"),
    )
    implies(
        "lower_semi_fredholm => lower_semi_b_fredholm",
        f("lower_semi_fredholm"),
        f("lower_semi_b_fredholm"),
    )
    implies(
        "upper_semi_b_fredholm => upper_pseudo_semi_b_fredholm",
        f("upper_semi_b_fredholm"),
        f("upper_pseudo_semi_b_fredholm"),
    )
    implies(
        "lower_semi_b_fredholm => lower_pseudo_semi_b_fredholm",
        f("lower_semi_b_fredholm"),
        f("lower_pseudo_semi_b_fredholm"),
    )
    implies("fredholm => b_fredholm", f("fredholm"), f("b_fredholm"))
    implies("b_fredholm => pseudo_b_fredholm", f("b_fredholm"), f("pseudo_b_fredholm"))
    implies(
        "b_fredholm => upper_semi_b_fredholm",
        f("b_fredholm"),
        f("upper_semi_b_fredholm"),
    )
    implies(
        "b_fredholm => lower_semi_b_fredholm",
        f("b_fredholm"),
        f("lower_semi_b_fredholm"),
    )
    implies("semi_regular => pseudo_fredholm", f("semi_regular"), f("pseudo_fredholm"))
    implies("nilpotent => quasi_nilpotent", f("nilpotent"), f("quasi_nilpotent"))
    implies("nilpotent => b_fredholm", f("nilpotent"), f("b_fredholm"))
    implies(
        "quasi_nilpotent => pseudo_b_fredholm",
        f("quasi_nilpotent"),
        f("pseudo_b_fredholm"),
    )
    implies("quasi_nilpotent => gen_drazin", f("quasi_nilpotent"), f("gen_drazin"))
    if f("quasi_nilpotent") and not idx.is_zero():
        out.append("quasi_nilpotent => index 0")
    equiv(
        "pseudo_b_fredholm <=> upper and lower pseudo_semi_b_fredholm",
        f("pseudo_b_fredholm"),
        f("upper_pseudo_semi_b_fredholm") and f("lower_pseudo_semi_b_fredholm"),
    )
    equiv(
        "pseudo_b_weyl <=> upper and lower pseudo_semi_b_weyl",
        f("pseudo_b_weyl"),
        f("upper_pseudo_semi_b_weyl") and f("lower_pseudo_semi_b_weyl"),
    )
    equiv(
        "upper_pseudo_semi_b_weyl <=> upper_pseudo_semi_b_fredholm with index <= 0",
        f("upper_pseudo_semi_b_weyl"),
        f("upper_pseudo_semi_b_fredholm") and idx.le_zero(),
    )
    equiv(
        "lower_pseudo_semi_b_weyl <=> lower_pseudo_semi_b_fredholm with index >= 0",
        f("lower_pseudo_semi_b_weyl"),
        f("lower_pseudo_semi_b_fredholm") and idx.ge_zero(),
    )
    equiv(
        "pseudo_b_weyl <=> pseudo_b_fredholm with index 0",
        f("pseudo_b_weyl"),
        f("pseudo_b_fredholm") and idx.is_zero(),
    )
    implies(
        "upper_pseudo_semi_b_fredholm => pseudo_fredholm",
        f("upper_pseudo_semi_b_fredholm"),
        f("pseudo_fredholm"),
    )
    implies(
        "lower_pseudo_semi_b_fredholm => pseudo_fredholm",
        f("lower_pseudo_semi_b_fredholm"),
        f("pseudo_fredholm"),
    )
    equiv(
        "pseudo_b_fredholm <=> some pseudo_semi_b flag with integer index",
        f("pseudo_b_fredholm"),
        (f("upper_pseudo_semi_b_fredholm") or f("lower_pseudo_semi_b_fredholm"))
        and idx.is_int,
    )
    equiv(
        "gen_drazin <=> left and right gen_drazin",
        f("gen_drazin"),
        f("left_gen_drazin") and f("right_gen_drazin"),
    )
    # summary consistency with the flags derived from it
    s = rec.summary
    if f("pseudo_fredholm"):
        if s.alpha is None:
            out.append("pseudo_fredholm point must carry a summary")
        else:
            equiv(
                "upper_pseudo_semi_b_fredholm <=> finite alpha",
                f("upper_pseudo_semi_b_fredholm"),
                s.alpha.is_finite,
            )
            equiv(
                "lower_pseudo_semi_b_fredholm <=> finite beta",
                f("lower_pseudo_semi_b_fredholm"),
                s.beta.is_finite,
            )
            equiv("left_gen_drazin <=> p == 0", f("left_gen_drazin"), s.p == ZERO)
            equiv("right_gen_drazin <=> q == 0", f("right_gen_drazin"), s.q == ZERO)
    else:
        if s.alpha is not None or idx != UNDEF_INDEX:
            out.append("non pseudo_fredholm point must have an undefined summary")
        for name in (
            "semi_regular",
            "upper_pseudo_semi_b_fredholm",
            "lower_pseudo_semi_b_fredholm",
            "pseudo_b_fredholm",
            "left_gen_drazin",
            "right_gen_drazin",
            "gen_drazin",
        ):
            if f(name):
                out.append(f"{name} requires pseudo_fredholm")
    return out


_REPORTED_BY_IMPLIES = (
    "semi_regular",
    "upper_pseudo_semi_b_fredholm",
    "lower_pseudo_semi_b_fredholm",
)
_POINTS = [point(0), point(F(1, 2)), point(0, 1), point(F(3, 5), F(4, 5)), point(2), point(-1)]
_NATS = st.sampled_from([ExtNat(0), ExtNat(1), ExtNat(2), INF])


@st.composite
def _summaries(draw):
    """A defined summary (alpha, beta, p, q drawn freely) or the undefined one."""
    dis = draw(_NATS)
    if draw(st.booleans()):
        return StructuralSummary(None, None, None, None, UNDEF_INDEX, dis)
    alpha, beta = draw(_NATS), draw(_NATS)
    return StructuralSummary(
        alpha, beta, draw(_NATS), draw(_NATS), ExtIndex.from_alpha_beta(alpha, beta), dis
    )


@st.composite
def _records(draw):
    """classify output at a catalog or random-matrix point, then some flags
    flipped and, sometimes, the summary replaced."""
    lam = draw(st.sampled_from(_POINTS))
    if draw(st.booleans()):
        entry = draw(st.sampled_from(CATALOG))
        rec = classify(entry.expr, lam, entry.power)
    else:
        m = random_matrix(Random(draw(st.integers(0, 10**6))))
        rec = classify(OperatorExpr.of(RIGHT_SHIFT, matrix_atom(m.to_rows())), lam)
    flips = draw(st.sets(st.sampled_from(FLAG_NAMES), max_size=4))
    rec = dataclasses.replace(rec, **{n: not rec.flag(n) for n in flips})
    if draw(st.booleans()):
        rec = dataclasses.replace(rec, summary=draw(_summaries()))
    return rec


@settings(max_examples=300, deadline=None)
@given(_records())
def test_lattice_table_matches_reference_checker(rec):
    got = check_lattice(rec)
    want = _reference_check_lattice(rec)
    # the reference reports each of these flags twice on a point without a
    # decomposition: as "X => pseudo_fredholm" and as "X requires
    # pseudo_fredholm"; the table reports it once
    twice = (
        0
        if rec.pseudo_fredholm
        else sum(rec.flag(n) for n in _REPORTED_BY_IMPLIES)
    )
    assert len(got) == len(want) - twice, (got, want)
    assert (got == []) == (want == [])


def _table_check_lattice(rec: ClassificationRecord) -> list[str]:
    """The checker that read the rule tables record by record, before they
    were compiled into bit masks, kept verbatim as the reference."""
    f = rec.flags()
    s = rec.summary
    idx = s.index
    out = [f"{a} => {b}" for a, b in _IMPLIES if f[a] and not f[b]]
    for a, bs, test in _EQUIVALENT:
        if f[a] != (all(f[b] for b in bs) and (test is None or getattr(idx, test)())):
            rule = " and ".join(bs) + (f" and index.{test}()" if test else "")
            out.append(f"{a} <=> {rule}")
    if f["quasi_nilpotent"] and not idx.is_zero():
        out.append("quasi_nilpotent => index.is_zero()")
    some_pseudo_semi_b = f["upper_pseudo_semi_b_fredholm"] or f["lower_pseudo_semi_b_fredholm"]
    if f["pseudo_b_fredholm"] != (some_pseudo_semi_b and idx.is_int):
        out.append("pseudo_b_fredholm <=> some pseudo_semi_b flag and index.is_int")
    # the summary must match the flags derived from it
    if not f["pseudo_fredholm"]:
        if s.alpha is not None or idx != UNDEF_INDEX:
            out.append("non pseudo_fredholm point must have an undefined summary")
        out += [f"{n} requires pseudo_fredholm" for n in _NEED_PSEUDO_FREDHOLM if f[n]]
    elif s.alpha is None:
        out.append("pseudo_fredholm point must carry a summary")
    else:
        for name, holds, value in (
            ("upper_pseudo_semi_b_fredholm", s.alpha.is_finite, "finite alpha"),
            ("lower_pseudo_semi_b_fredholm", s.beta.is_finite, "finite beta"),
            ("left_gen_drazin", s.p == ZERO, "p == 0"),
            ("right_gen_drazin", s.q == ZERO, "q == 0"),
        ):
            if f[name] != holds:
                out.append(f"{name} <=> {value}")
    return out


@settings(max_examples=400, deadline=None)
@given(_records())
def test_lattice_masks_match_table_checker(rec):
    assert check_lattice(rec) == _table_check_lattice(rec)


@pytest.mark.parametrize("name", FLAG_NAMES)
def test_single_flips_match_table_checker(name):
    # each flag flipped alone, at points with and without a decomposition
    for entry in CATALOG:
        for lam in (point(0), point(1), point(F(1, 2))):
            rec = classify(entry.expr, lam, entry.power)
            bad = dataclasses.replace(rec, **{name: not rec.flag(name)})
            assert check_lattice(bad) == _table_check_lattice(bad)
