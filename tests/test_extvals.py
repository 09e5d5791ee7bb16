import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredprofile.extvals import (
    INF,
    EvAffineSeq,
    ExtIndex,
    ExtNat,
    LINEAR_SEQ,
    NEG_INF_INDEX,
    POS_INF_INDEX,
    UNDEF_INDEX,
    ZERO_SEQ,
)


def test_extnat_ordering_and_arithmetic():
    assert ExtNat(2) < ExtNat(5) < INF
    assert not INF < INF
    assert ExtNat(2) + ExtNat(3) == ExtNat(5)
    assert ExtNat(2) + INF == INF
    assert INF.sub(ExtNat(7)) == INF
    assert ExtNat(5).sub(ExtNat(2)) == ExtNat(3)
    with pytest.raises(ValueError):
        ExtNat(2).sub(ExtNat(5))
    with pytest.raises(ValueError):
        ExtNat(3).sub(INF)
    with pytest.raises(ValueError):
        ExtNat(-1)


@pytest.mark.parametrize("flag", [True, False])
def test_extnat_rejects_bool(flag):
    # bool is an int subclass; a flag passed where a dimension belongs is a bug
    with pytest.raises(ValueError):
        ExtNat(flag)


def test_extnat_strings():
    assert ExtNat(4).to_str() == "4"
    assert INF.to_str() == "inf"
    assert ExtNat.from_str("inf") == INF
    assert ExtNat.from_str("12") == ExtNat(12)


def test_extindex_from_defects():
    assert ExtIndex.from_alpha_beta(ExtNat(2), ExtNat(5)) == ExtIndex.of(-3)
    assert ExtIndex.from_alpha_beta(ExtNat(2), INF) == NEG_INF_INDEX
    assert ExtIndex.from_alpha_beta(INF, ExtNat(0)) == POS_INF_INDEX
    assert ExtIndex.from_alpha_beta(INF, INF) == UNDEF_INDEX


def test_extindex_arithmetic():
    assert ExtIndex.of(2).add(ExtIndex.of(-5)) == ExtIndex.of(-3)
    assert ExtIndex.of(2).add(POS_INF_INDEX) == POS_INF_INDEX
    assert UNDEF_INDEX.add(ExtIndex.of(1)) == UNDEF_INDEX
    with pytest.raises(ValueError):
        POS_INF_INDEX.add(NEG_INF_INDEX)
    assert ExtIndex.of(-2).neg() == ExtIndex.of(2)
    assert POS_INF_INDEX.neg() == NEG_INF_INDEX
    assert ExtIndex.of(-3).times(4) == ExtIndex.of(-12)
    assert NEG_INF_INDEX.times(3) == NEG_INF_INDEX


def test_extindex_sign_predicates():
    assert ExtIndex.of(0).is_zero()
    assert ExtIndex.of(-1).le_zero() and not ExtIndex.of(-1).ge_zero()
    assert POS_INF_INDEX.ge_zero() and not POS_INF_INDEX.le_zero()
    assert not UNDEF_INDEX.le_zero() and not UNDEF_INDEX.ge_zero()


def test_extindex_strings():
    assert ExtIndex.of(-7).to_str() == "-7"
    assert POS_INF_INDEX.to_str() == "inf"
    assert NEG_INF_INDEX.to_str() == "-inf"
    assert UNDEF_INDEX.to_str() == "undef"
    for s in ("-7", "inf", "-inf", "undef", "0"):
        assert ExtIndex.from_str(s).to_str() == s


# not ASCII digits; int() reads several: signs, spaces, underscores, other scripts' digits
NOT_NUMERALS = (" \u0661_0", "\u0663", "+1", "1_0", "zz", " 2", "", "-", "--1", "\uff11")


@pytest.mark.parametrize("s", NOT_NUMERALS + ("-1", "-inf", "undef", 3))
def test_extnat_from_str_takes_ascii_digits_only(s):
    with pytest.raises(ValueError):
        ExtNat.from_str(s)


@pytest.mark.parametrize("s", NOT_NUMERALS + ("-+1", "- 1"))
def test_extindex_from_str_takes_ascii_digits_only(s):
    with pytest.raises(ValueError):
        ExtIndex.from_str(s)


def test_seq_canonical_trim():
    # a prefix that already matches the tail collapses away
    assert EvAffineSeq((ExtNat(5),), ExtNat(5), 0) == EvAffineSeq((), ExtNat(5), 0)
    assert EvAffineSeq((ExtNat(0), ExtNat(1)), ExtNat(2), 1) == LINEAR_SEQ
    seq = EvAffineSeq((ExtNat(0), ExtNat(2)), ExtNat(3), 0)
    assert seq.tail_start == 2


def test_seq_values_and_formula():
    seq = EvAffineSeq((ExtNat(0), ExtNat(1), ExtNat(2)), ExtNat(3), 0)
    assert [v.to_str() for v in map(seq.at, range(6))] == ["0", "1", "2", "3", "3", "3"]
    assert seq.tail_formula() == "3 for n >= 3"
    assert LINEAR_SEQ.tail_formula() == "n for n >= 0"
    assert ZERO_SEQ.at(17) == ExtNat(0)
    ramp = EvAffineSeq((ExtNat(0), ExtNat(0)), ExtNat(1), 2)
    assert [int(v) for v in map(ramp.at, range(5))] == [0, 0, 1, 3, 5]
    assert ramp.tail_formula() == "2*n - 3 for n >= 2"


def test_seq_stabilization_point():
    assert ZERO_SEQ.stabilization_point() == ExtNat(0)
    assert LINEAR_SEQ.stabilization_point() == INF
    seq = EvAffineSeq((ExtNat(0), ExtNat(1), ExtNat(2)), ExtNat(3), 0)
    assert seq.stabilization_point() == ExtNat(3)
    inf_tail = EvAffineSeq((ExtNat(0),), INF, 0)
    assert inf_tail.stabilization_point() == ExtNat(1)


def test_seq_diff():
    seq = EvAffineSeq((ExtNat(3), ExtNat(2), ExtNat(2), ExtNat(1)), ExtNat(0), 0)
    d = seq.diff()
    assert [int(v) for v in map(d.at, range(6))] == [1, 0, 1, 1, 0, 0]


def test_from_samples():
    seq = EvAffineSeq.from_samples(
        [ExtNat(0), ExtNat(1), ExtNat(2), ExtNat(2)], stable_from=2
    )
    assert seq == EvAffineSeq((ExtNat(0), ExtNat(1)), ExtNat(2), 0)


small_nat = st.integers(0, 6).map(ExtNat)


@settings(max_examples=60)
@given(
    st.lists(small_nat, max_size=4).map(tuple),
    small_nat | st.just(INF),
    st.integers(0, 3),
)
def test_seq_at_matches_affine_formula(prefix, base, slope):
    if base == INF:
        slope = 0
    seq = EvAffineSeq(prefix, base, slope)
    for n in range(len(prefix) + 5):
        if n < len(prefix):
            assert seq.at(n) == prefix[n]
        elif base == INF:
            assert seq.at(n) == INF
        else:
            assert int(seq.at(n)) == int(base) + slope * (n - len(prefix))


@settings(max_examples=60)
@given(
    st.lists(small_nat, max_size=4).map(tuple),
    small_nat,
    st.integers(0, 3),
    st.integers(1, 4),
)
def test_subsample_agrees_pointwise(prefix, base, slope, k):
    seq = EvAffineSeq(prefix, base, slope)
    sub = seq.subsample(k)
    for n in range(8):
        assert sub.at(n) == seq.at(k * n)


@settings(max_examples=60)
@given(
    st.lists(small_nat, max_size=3).map(tuple),
    small_nat,
    st.lists(small_nat, max_size=3).map(tuple),
    small_nat,
)
def test_add_agrees_pointwise(p1, b1, p2, b2):
    s1 = EvAffineSeq(p1, b1, 0)
    s2 = EvAffineSeq(p2, b2, 1)
    total = s1.add(s2)
    for n in range(10):
        assert total.at(n) == s1.at(n) + s2.at(n)


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 3), max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
)
def test_steps_agree_pointwise(jumps, base_jump, slope, infinite_tail):
    # a nondecreasing sequence: partial sums of the jumps, then an affine
    # or infinite tail
    prefix = [sum(jumps[:i]) for i in range(len(jumps))]
    start = sum(jumps) + base_jump
    seq = EvAffineSeq(
        tuple(ExtNat(v) for v in prefix),
        INF if infinite_tail else ExtNat(start),
        0 if infinite_tail else slope,
    )
    steps = seq.steps()
    for n in range(10):
        nxt = seq.at(n + 1)
        assert steps.at(n) == (nxt if not nxt.is_finite else nxt.sub(seq.at(n)))


@pytest.mark.parametrize("slope", [True, 0.5, "1", -1])
def test_seq_tail_slope_must_be_a_natural_int(slope):
    with pytest.raises(ValueError):
        EvAffineSeq((ExtNat(0), ExtNat(1)), ExtNat(2), slope)


def _general_add(s1, s2):
    """EvAffineSeq.add without its shortcut for a zero operand."""
    s = max(s1.tail_start, s2.tail_start)
    prefix = tuple(s1.at(i) + s2.at(i) for i in range(s))
    b1, b2 = s1.at(s), s2.at(s)
    if not b1.is_finite or not b2.is_finite:
        return EvAffineSeq(prefix, INF, 0)
    return EvAffineSeq(prefix, b1 + b2, s1.tail_slope + s2.tail_slope)


# the zero operand of add is matched by value: ZERO_SEQ, and an equal chain
# built apart from it
_ZEROS = (ZERO_SEQ, EvAffineSeq((ExtNat(0), ExtNat(0)), ExtNat(0), 0))


@settings(max_examples=100)
@given(
    st.lists(small_nat | st.just(INF), max_size=4).map(tuple),
    small_nat | st.just(INF),
    st.integers(0, 3),
    st.sampled_from(_ZEROS),
)
def test_add_of_zero_equals_general_route(prefix, base, slope, zero):
    seq = EvAffineSeq(prefix, base, 0 if base == INF else slope)
    assert zero.add(seq) == _general_add(zero, seq) == seq
    assert seq.add(zero) == _general_add(seq, zero) == seq
    general = _general_add(seq, seq)
    assert seq.add(seq) == general
    for n in range(10):
        assert general.at(n) == seq.at(n) + seq.at(n)


def test_neutral_operands_are_matched_by_value():
    # a zero chain of its own, whose redundant prefix the constructor drops
    zero = EvAffineSeq((ExtNat(0), ExtNat(0)), ExtNat(0), 0)
    assert zero == ZERO_SEQ and zero is not ZERO_SEQ
    assert LINEAR_SEQ.add(zero) is LINEAR_SEQ and zero.add(LINEAR_SEQ) is LINEAR_SEQ


def _reference_canonical(prefix, base, slope):
    """(prefix, tail_base) of EvAffineSeq(prefix, base, slope) as the
    constructor built them by popping a list, or its ValueError: the
    reference for the one-pass constructor."""
    if type(slope) is not int or slope < 0:
        raise ValueError(f"tail slope must be a natural: {slope!r}")
    if not base.is_finite and slope != 0:
        raise ValueError("infinite tail must have slope 0")
    pfx = list(prefix)
    while pfx:
        if base.is_finite:
            prev = base.value - slope
            if prev < 0:
                break
            cand = ExtNat(prev)
        else:
            cand = INF
        if pfx[-1] == cand:
            pfx.pop()
            base = cand
        else:
            break
    return tuple(pfx), base


def _tail_back(base, slope, k):
    """The k entries before position 0 of the tail base + slope*n, as far
    as they are naturals."""
    if not base.is_finite:
        return (INF,) * k
    vals = [base.value - slope * j for j in range(k, 0, -1)]
    return tuple(ExtNat(v) for v in vals if v >= 0)


@settings(max_examples=300)
@given(
    st.lists(small_nat | st.just(INF), max_size=4).map(tuple),
    small_nat | st.just(INF),
    st.integers(0, 3) | st.sampled_from([-1, -3, True, False, 0.0, 1.5, "1", None]),
    st.integers(0, 4),
    st.sampled_from([tuple, list, iter]),
)
def test_seq_constructor_matches_reference_canonicalizer(prefix, base, slope, pad, container):
    # prefixes already canonical and ones that repeat the tail extended back
    # for up to pad more entries; finite and infinite tails, slopes 0-3, and
    # slopes that are no natural int or that an infinite tail refuses
    padded = prefix + (_tail_back(base, slope, pad) if type(slope) is int and slope >= 0 else ())
    try:
        want = _reference_canonical(padded, base, slope)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            EvAffineSeq(container(padded), base, slope)
        return
    seq = EvAffineSeq(container(padded), base, slope)
    assert (seq.prefix, seq.tail_base, seq.tail_slope) == (*want, slope)
    assert type(seq.prefix) is tuple
    assert seq == EvAffineSeq(want[0], want[1], slope)
