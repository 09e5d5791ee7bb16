from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from fredprofile import linalg
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


def mat(rows):
    return ExactMatrix.from_rows([[F(x) for x in r] for r in rows])


def _rows(d):
    return st.lists(
        st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d
    )


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(_rows).map(mat)


def matrix_pair(max_dim=3):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.tuples(_rows(d).map(mat), _rows(d).map(mat))
    )


def test_matmul_and_power():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[F(2), F(1)], [F(4), F(3)]]
    assert a.power(0).to_rows() == ExactMatrix.identity(2).to_rows()
    assert a.power(2).to_rows() == (a @ a).to_rows()


def test_rref_known():
    b = SubspaceBasis.from_vectors(3, [[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    assert b.dim == 2
    assert b.pivots() == [0, 2]
    assert b.matrix.to_rows() == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_kernel_canonical_representative():
    k = kernel_basis(mat([[1, 2], [2, 4]]))
    assert k.dim == 1
    assert k.vectors == ((F(1), F(-1, 2)),)


def test_kernel_of_invertible_is_zero():
    assert kernel_basis(mat([[1, 1], [0, 1]])).dim == 0


def test_image_basis_spans_columns():
    m = mat([[1, 2, 3], [0, 0, 1], [0, 0, 2]])
    img = image_basis(m)
    assert img.dim == 2
    for j in range(3):
        assert ref.contains(img, m.column(j))


def test_inverse_round_trip():
    m = mat([[2, 1], [1, 1]])
    assert (m @ inverse(m)).to_rows() == ExactMatrix.identity(2).to_rows()
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))


def test_subspace_membership_and_coordinates():
    b = SubspaceBasis.from_vectors(3, [(F(1), F(0), F(1)), (F(0), F(1), F(0))])
    assert ref.contains(b, (F(2), F(3), F(2)))
    assert not ref.contains(b, (F(0), F(0), F(1)))
    assert ref.coordinates(b, (F(2), F(3), F(2))) == (F(2), F(3))
    assert ref.coordinates(b, (F(0), F(0), F(1))) is None


def test_subspace_results_build_one_matrix_each(monkeypatch):
    """Kernels, images, spans and sums eliminate rows taken straight from
    their inputs' numerators: no reversed, transposed, stacked or reduced
    intermediate, only the result's own matrix."""
    m = mat([[1, 2, 3], [2, 4, 6], [0, F(1, 3), 1]])
    a = SubspaceBasis.from_vectors(3, [(1, 0, F(1, 3)), (0, 1, F(2, 3))])
    b = SubspaceBasis.from_vectors(3, [(1, 0, F(2, 7)), (0, 1, F(5, 7))])
    built = []
    post_init = ExactMatrix.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ExactMatrix, "__post_init__", counting)
    calls = (
        lambda: kernel_basis(m),
        lambda: image_basis(m),
        lambda: SubspaceBasis.from_vectors(3, [(1, F(1, 2), "2/3"), (2, 1, F(4, 3))]),
        lambda: subspace_sum(a, b),
    )
    for call in calls:
        built.clear()
        result = call()
        assert built == [result.matrix]


def test_one_forward_pass_per_result(monkeypatch):
    """rank counts the pivots of one forward elimination, and each reduced
    echelon form back-substitutes one: no result eliminates twice. An
    intersection takes two, the kernel of [A | B] and the span of its
    points."""
    m = mat([[1, 2, 3], [2, 4, 6], [0, F(1, 3), 1]])
    a = SubspaceBasis.from_vectors(3, [(1, 0, F(1, 3)), (0, 1, F(2, 3))])
    b = SubspaceBasis.from_vectors(3, [(1, 0, F(2, 7)), (0, 1, F(5, 7))])
    passes = []
    forward = linalg._forward

    def counting(rows, cols):
        passes.append(cols)
        return forward(rows, cols)

    monkeypatch.setattr(linalg, "_forward", counting)
    calls = (
        (lambda: rank(m), 1),
        (lambda: kernel_basis(m), 1),
        (lambda: image_basis(m), 1),
        (lambda: SubspaceBasis.from_vectors(3, [(1, F(1, 2), "2/3"), (2, 1, F(4, 3))]), 1),
        (lambda: subspace_sum(a, b), 1),
        (lambda: subspace_intersection(a, b), 2),
        (lambda: inverse(mat([[2, 1], [1, F(1, 2)]]).minus_scalar(1)), 1),
    )
    for call, want in calls:
        passes.clear()
        call()
        assert len(passes) == want


def test_restrict_requires_invariance():
    m = mat([[0, 1], [0, 0]])
    inv = SubspaceBasis.from_vectors(2, [(F(1), F(0))])
    blk = restrict(m, inv)
    assert blk.to_rows() == [[F(0)]]
    not_inv = SubspaceBasis.from_vectors(2, [(F(0), F(1))])
    with pytest.raises(NotInvariant):
        restrict(m, not_inv)


def test_restrict_composes_with_application():
    m = mat([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    b = SubspaceBasis.from_vectors(3, [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    blk = restrict(m, b)
    # column j of the block holds the coordinates of m applied to basis vector j
    for j, v in enumerate(b.vectors):
        image = ref.apply(m, v)
        coords = ref.coordinates(b, image)
        assert coords == tuple(blk.at(i, j) for i in range(blk.rows))


@settings(max_examples=60)
@given(small_matrix())
def test_rank_nullity(m):
    assert kernel_basis(m).dim + rank(m) == m.cols


@settings(max_examples=60)
@given(small_matrix())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60)
@given(small_matrix())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m).vectors:
        assert all(x == 0 for x in ref.apply(m, v))


@settings(max_examples=40)
@given(matrix_pair())
def test_grassmann_identity(pair):
    m1, m2 = pair
    a = image_basis(m1)
    b = image_basis(m2)
    s = subspace_sum(a, b)
    i = subspace_intersection(a, b)
    assert a.dim + b.dim == s.dim + i.dim
    assert ref.is_subspace_of(i, a) and ref.is_subspace_of(i, b)
    assert ref.is_subspace_of(a, s) and ref.is_subspace_of(b, s)


def _image_basis_two_step(m):
    # reference: reduce m for its pivot columns, then reduce those columns
    pivots = SubspaceBasis.from_vectors(m.cols, m.to_rows()).pivots()
    return SubspaceBasis.from_vectors(m.rows, [m.column(j) for j in pivots])


@settings(max_examples=80)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda rc: st.lists(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                     min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0],
        )
    )
)
def test_image_basis_matches_pivot_column_reduction(rows):
    m = ExactMatrix.from_rows(rows)
    assert image_basis(m) == _image_basis_two_step(m)


@settings(max_examples=40)
@given(small_matrix(4))
def test_from_vectors_is_canonical(m):
    b = image_basis(m)
    again = SubspaceBasis.from_vectors(b.ambient_dim, list(b.vectors))
    assert again == b


@settings(max_examples=40)
@given(small_matrix(4))
def test_image_of_power_is_invariant(m):
    img = image_basis(m @ m)
    blk = restrict(m, img)
    assert blk.rows == img.dim
