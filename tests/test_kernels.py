"""Differential tests of linalg's integer kernels against the Fraction
reference in fraction_reference.py, with sympy as a third oracle for rank
and the reduced echelon form."""
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from fredprofile.errors import NotInvariant
from fredprofile.linalg import (
    ExactMatrix,
    SubspaceBasis,
    image_basis,
    inverse,
    kernel_basis,
    rank,
    restrict,
    rref,
)

ENTRIES = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


def _from_rows(rows, cols):
    return ExactMatrix(len(rows), cols, tuple(x for r in rows for x in r))


@st.composite
def matrices(draw, max_dim=7, shape=None, min_dim=1):
    """Dense; low-rank (a product through k < min(r, c) columns); or dense
    with later rows replaced by combinations of earlier ones. Then some
    rows and columns are zeroed. 1 x n and n x 1 shapes included."""
    if shape is None:
        r, c = draw(st.integers(min_dim, max_dim)), draw(st.integers(min_dim, max_dim))
    else:
        r, c = shape
    mode = draw(st.sampled_from(("dense", "product", "combination")))
    if mode == "product":
        k = draw(st.integers(0, max(min(r, c) - 1, 0)))
        left = [[draw(ENTRIES) for _ in range(k)] for _ in range(r)]
        right = [[draw(ENTRIES) for _ in range(c)] for _ in range(k)]
        rows = ref.matmul(_from_rows(left, k), _from_rows(right, c)).to_rows()
    else:
        rows = [[draw(ENTRIES) for _ in range(c)] for _ in range(r)]
    if mode == "combination":
        for i in range(1, r):
            if draw(st.booleans()):
                cf = [draw(st.integers(-2, 2)) for _ in range(i)]
                rows[i] = [sum(f * rows[t][j] for t, f in enumerate(cf)) for j in range(c)]
    zero_rows = draw(st.sets(st.integers(0, r - 1), max_size=r))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c))
    rows = [
        [F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return _from_rows(rows, c)


def square_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(lambda d: matrices(shape=(d, d)))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_fraction_reference(m):
    red, pivots, rk = rref(m)
    ref_red, ref_pivots, ref_rk = ref.rref(m)
    assert red == ref_red
    assert pivots == ref_pivots
    assert rk == ref_rk


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), matrices(min_dim=4)))
# rank 2, the third row the sum of the first two; dividing the second
# step by anything but the first pivot, 3, gets this rank wrong
@example(ExactMatrix.from_rows([[3, -2, 1], [-1, 1, 0], [2, -1, 1]]))
def test_rank_matches_fraction_reference(m):
    # an inexact division only shows in the rank after a few pivot steps
    assert rank(m) == ref.rref(m)[2]


def _reference_inverse(m):
    n = m.rows
    aug = ExactMatrix.from_rows(
        [list(m.row(i)) + [F(int(i == j)) for j in range(n)] for i in range(n)]
    )
    red, pivots, rk = ref.rref(aug)
    if rk != n or any(p >= n for p in pivots):
        return None
    return ExactMatrix.from_rows([list(red.row(i)[n:]) for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_inverse_matches_fraction_reference(m):
    expected = _reference_inverse(m)
    if expected is None:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert inverse(m) == expected
        assert ref.matmul(m, expected) == ExactMatrix.identity(m.rows)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda s: st.tuples(matrices(shape=(s[0], s[1])), matrices(shape=(s[1], s[2])))
    )
)
def test_matmul_matches_fraction_reference(pair):
    a, b = pair
    assert a @ b == ref.matmul(a, b)


def _outcome(fn, m, b):
    try:
        return fn(m, b)
    except NotInvariant:
        return NotInvariant


@settings(max_examples=80, deadline=None)
@given(square_matrices(), st.integers(0, 2), st.data())
def test_restrict_matches_fraction_reference(m, k, data):
    """Images and kernels of powers are invariant; a random span usually
    is not, and then both sides raise NotInvariant."""
    p = m.power(k)
    spans = [image_basis(p), kernel_basis(p)]
    vecs = data.draw(
        st.lists(st.lists(ENTRIES, min_size=m.rows, max_size=m.rows), max_size=m.rows)
    )
    spans.append(SubspaceBasis.from_vectors(m.rows, vecs))
    for b in spans:
        assert _outcome(restrict, m, b) == _outcome(ref.restrict, m, b)
    assert restrict(m, spans[0]).rows == spans[0].dim


def test_restrict_rejects_a_non_invariant_subspace():
    m = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, F(10**30, 7)]])
    b = SubspaceBasis.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(NotInvariant):
        ref.restrict(m, b)
    with pytest.raises(NotInvariant):
        restrict(m, b)


def _sympy_matrix(sympy, m):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries]
    )


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=5))
def test_rref_and_rank_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    red, pivots, rk = rref(m)
    sred, spivots = _sympy_matrix(sympy, m).rref()
    assert pivots == tuple(spivots)
    assert rk == rank(m) == len(spivots)
    assert list(red.entries) == [F(int(x.p), int(x.q)) for x in sred]
