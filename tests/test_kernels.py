"""Differential tests of linalg's integer kernels against the Fraction
reference in fraction_reference.py, with sympy as a third oracle for rank
and the reduced echelon form, tests of the stored form itself, and of
verify's similar test matrices against the product route."""
import math
from fractions import Fraction as F
from random import Random

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
    subspace_intersection,
    subspace_sum,
)
from fredprofile.model import matrix_chain_data, real_quadratic, realified
from fredprofile.verify import _JORDAN_EIGENVALUES, random_matrix

ENTRIES = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


# every pivot of its elimination is negative, and one denominator has 31 digits
NEGATIVE_PIVOTS = ExactMatrix.from_rows(
    [[-3, 1, F(2, 7)], [F(5, -11), -2, 0], [0, F(-(10**30), 10**30 + 7), -1]]
)


# one integer matrix, its rows of content 1, per case of a row in a Bareiss
# step (linalg._forward): a unit first pivot, so the second step divides by
# nothing, and a second pivot 3, by which the third divides; zero
# multipliers under pivots 2 and 6, so those rows are rescaled, with no
# division and then by 2; a zero multiplier under a second pivot equal to
# the first, so that row is kept; a zero at the top of the first column,
# so the first pivot row is swapped up
UNIT_THEN_NON_UNIT = ExactMatrix.from_rows(
    [[1, 2, 3, 4], [2, 7, 1, 0], [3, 1, 5, 2], [1, 0, 2, 7]]
)
ZERO_MULTIPLIER_RESCALED = ExactMatrix.from_rows([[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 5, 1]])
ZERO_MULTIPLIER_KEPT = ExactMatrix.from_rows([[2, 1, 0], [4, 3, 1], [0, 0, 1]])
SWAP_NEEDED = ExactMatrix.from_rows([[0, 1, 2], [3, 4, 5], [6, 7, 9]])


def _columns_reversed(m):
    """m with its columns in reverse order: the rows a kernel eliminates."""
    return ExactMatrix.from_rows([row[::-1] for row in m.to_rows()])


def _from_rows(rows, cols):
    return ExactMatrix.from_rows(rows) if rows else ExactMatrix.zeros(0, cols)


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
@example(NEGATIVE_PIVOTS)
@example(ExactMatrix.zeros(2, 3))
# a pivot in every column: the reduced form is the identity, with no
# back-substitution
@example(ExactMatrix.from_rows([[0, 1, 2], [3, F(1, 2), 0], [1, 1, 1], [F(-2, 5), 0, 7]]))
# a zero first column, and free columns between and after the pivots
@example(ExactMatrix.from_rows([[0, 2, 4, 1, 3], [0, 1, 2, 5, F(1, 3)]]))
@example(UNIT_THEN_NON_UNIT)
@example(ZERO_MULTIPLIER_RESCALED)
@example(ZERO_MULTIPLIER_KEPT)
@example(SWAP_NEEDED)
def test_rref_matches_fraction_reference(m):
    # the row space's basis is the nonzero rows of the reduced echelon form
    basis = SubspaceBasis.from_vectors(m.cols, m.to_rows())
    ref_red, ref_pivots, ref_rk = ref.rref(m)
    assert basis.matrix.to_rows() == ref_red.to_rows()[:ref_rk]
    assert tuple(basis.pivots()) == ref_pivots
    assert basis.dim == ref_rk


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), matrices(min_dim=4)))
# rank 2, the third row the sum of the first two; dividing the second
# step by anything but the first pivot, 3, gets this rank wrong
@example(ExactMatrix.from_rows([[3, -2, 1], [-1, 1, 0], [2, -1, 1]]))
# a zero first column, and the first pivot below the top row
@example(ExactMatrix.from_rows([[0, 0, 1], [0, 2, 3], [0, 4, F(6, 5)]]))
@example(UNIT_THEN_NON_UNIT)
@example(ZERO_MULTIPLIER_RESCALED)
@example(ZERO_MULTIPLIER_KEPT)
@example(SWAP_NEEDED)
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
# NEGATIVE_PIVOTS' rows, each scaled by about 10^30: every numerator row
# has a content of 31 digits or more
@example(
    ExactMatrix.from_rows(
        [
            [s * x for x in NEGATIVE_PIVOTS.row(i)]
            for i, s in enumerate((10**30 + 1, -(10**30), 3 * 10**30 + 1))
        ]
    )
)
# singular, with the first two columns independent: only the last column
# has no pivot
@example(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
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
    basis = SubspaceBasis.from_vectors(m.cols, m.to_rows())
    sred, spivots = _sympy_matrix(sympy, m).rref()
    assert tuple(basis.pivots()) == tuple(spivots)
    assert basis.dim == rank(m) == len(spivots)
    nonzero = list(sred)[: basis.dim * m.cols]
    assert list(basis.matrix.entries) == [F(int(x.p), int(x.q)) for x in nonzero]


@settings(max_examples=30, deadline=None)
@given(matrices(), st.integers(-(10**30), 10**30).filter(bool))
@example(NEGATIVE_PIVOTS, -1)
@example(ExactMatrix.zeros(2, 3), -(10**30))
def test_stored_form_is_canonical(m, k):
    """The same rational matrix from numerators and a denominator scaled by
    k (negative k gives a negative denominator), from its Fraction rows and
    from its rational strings: equal, equally hashed, in lowest terms."""
    scaled = ExactMatrix(m.rows, m.cols, tuple(k * x for x in m.num), k * m.den)
    texts = [[str(x) for x in row] for row in m.to_rows()]
    for other in (scaled, ExactMatrix.from_rows(m.to_rows()), ExactMatrix.from_rows(texts)):
        assert other == m and hash(other) == hash(m)
        assert (other.num, other.den) == (m.num, m.den)
    assert m.den > 0 and math.gcd(m.den, *m.num) == 1
    b = image_basis(m)
    again = SubspaceBasis.from_vectors(m.rows, [[k * x for x in v] for v in b.vectors])
    assert again == b and hash(again) == hash(b)


@settings(max_examples=40, deadline=None)
@given(matrices())
@example(NEGATIVE_PIVOTS)
@example(ExactMatrix.zeros(3, 2))
@example(ExactMatrix.identity(3))
@example(ExactMatrix.from_rows([[F(10**30, 7), 1 - 10**30, F(3, 10**30 + 1), 0]]))
@example(ExactMatrix.from_rows([[10**30], [F(-(10**30) - 3, 11)], [0]]))
@example(
    ExactMatrix.from_rows(
        [[10**30 + 1, F(10**30, 3), -1], [0, 0, 0], [F(-(10**30), 7), 2, F(1, 10**30 - 1)]]
    )
)
@example(_columns_reversed(UNIT_THEN_NON_UNIT))
@example(_columns_reversed(ZERO_MULTIPLIER_RESCALED))
@example(_columns_reversed(ZERO_MULTIPLIER_KEPT))
@example(_columns_reversed(SWAP_NEEDED))
def test_kernel_and_image_match_fraction_reference(m):
    # zero and invertible matrices give empty kernels or images
    assert kernel_basis(m).vectors == ref.kernel_basis(m)
    assert image_basis(m).vectors == ref.image_basis(m)


def spanning_pairs():
    """An ambient dimension n and two spanning sets of n-vectors, as the
    rows of matrices with up to n + 1 rows; zeroed rows give empty spans."""
    def pair(n):
        rows = st.integers(1, n + 1)
        return st.tuples(
            st.just(n),
            rows.flatmap(lambda r: matrices(shape=(r, n))),
            rows.flatmap(lambda r: matrices(shape=(r, n))),
        )

    return st.integers(1, 6).flatmap(pair)


@settings(max_examples=40, deadline=None)
@given(spanning_pairs())
@example((3, ExactMatrix.zeros(2, 3), NEGATIVE_PIVOTS))
@example((3, NEGATIVE_PIVOTS, NEGATIVE_PIVOTS.power(2)))
@example(
    (
        3,
        ExactMatrix.from_rows([[1, 0, F(1, 3)], [0, 1, F(2, 3)]]),
        ExactMatrix.from_rows([[1, 0, F(2, 7)], [0, 1, F(5, 7)]]),
    )
)
@example((3, ExactMatrix.zeros(2, 3), ExactMatrix.zeros(1, 3)))
def test_subspace_sum_and_intersection_match_fraction_reference(case):
    n, x, y = case
    a = SubspaceBasis.from_vectors(n, x.to_rows())
    b = SubspaceBasis.from_vectors(n, y.to_rows())
    ra, rb = ref.span(n, x.to_rows()), ref.span(n, y.to_rows())
    assert a.vectors == ra and b.vectors == rb
    assert subspace_sum(a, b).vectors == ref.subspace_sum(n, ra, rb)
    assert subspace_intersection(a, b).vectors == ref.subspace_intersection(n, ra, rb)


COORDS = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@st.composite
def matrix_and_point(draw, max_dim=5):
    """A square matrix, a real or complex point, and whether the point was
    planted as an eigenvalue: then the matrix is upper block triangular,
    its first block the point or, for a complex one, [[re, -im], [im, re]]."""
    d = draw(st.integers(1, max_dim))
    m = draw(matrices(shape=(d, d)))
    re = draw(COORDS)
    im = draw(COORDS) if d > 1 and draw(st.booleans()) else F(0)
    planted = draw(st.booleans())
    if planted:
        rows = [[x if j >= i else F(0) for j, x in enumerate(r)] for i, r in enumerate(m.to_rows())]
        if im:
            rows[0][:2], rows[1][:2] = [re, -im], [im, re]
        else:
            rows[0][0] = re
        m = ExactMatrix.from_rows(rows)
    return m, re, im, planted


@settings(max_examples=60, deadline=None)
@given(matrix_and_point())
@example((NEGATIVE_PIVOTS, F(-3), F(0), False))
@example((ExactMatrix.zeros(2, 2), F(0), F(0), True))
def test_realified_and_is_eigenvalue_match_fraction_reference(case):
    m, re, im, planted = case
    s = realified(m, re, im)
    assert s == ref.realified(m, re, im)
    # ranks over C of the d x d m - lam, not of the realified 2d x 2d block
    ranks = matrix_chain_data(m, (re, im))
    assert ranks[0] == m.rows
    if im:
        assert real_quadratic(m, re, im) == ref.real_quadratic(m, re, im)
    # the eigenvalue decision at one point is the first rank
    assert (ranks[1] < m.rows) == ref.is_eigenvalue(m, re, im)
    if planted:
        assert ranks[1] < m.rows


def _product_route_matrix(rng):
    """verify.random_matrix with each similar matrix built as P·J·P⁻¹ from
    the first P of rank d and linalg's product and inverse: the same draws
    in the same order."""
    d = rng.randint(2, 6)
    if rng.random() < 0.3:
        rows = [[0] * d for _ in range(d)]
        i = 0
        while i < d:
            size = rng.randint(1, d - i)
            ev = rng.choice(_JORDAN_EIGENVALUES)
            for k in range(size):
                rows[i + k][i + k] = ev
                if k + 1 < size:
                    rows[i + k][i + k + 1] = 1
            i += size
        j = ExactMatrix.from_rows(rows)
        while True:
            p = ExactMatrix(d, d, tuple(rng.randint(-2, 2) for _ in range(d * d)))
            if rank(p) == d:
                return p @ j @ inverse(p)
    pairs = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d * d)]
    return ExactMatrix.from_ratios(d, d, pairs)


@pytest.mark.parametrize("seed", range(5))
def test_random_matrix_matches_the_product_route(seed):
    """The similar matrices read off one Gauss-Jordan equal the products,
    and both generators leave the random state equal after every draw."""
    new, old = Random(seed), Random(seed)
    for _ in range(500):
        assert random_matrix(new) == _product_route_matrix(old)
        assert new.getstate() == old.getstate()
