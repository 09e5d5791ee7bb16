"""Exact dense linear algebra over the rationals.

Entries are fractions.Fraction at the interface, ranks and dimensions come
from exact comparisons, and no tolerance appears anywhere. Subspaces are
stored in a canonical reduced echelon form, so two independent computations
of the same subspace yield identical objects and equality is plain ==.

Inside, rref, rank, the matrix product and restrict compute on integers.
Elimination scales each row by the lcm of its denominators, which keeps the
row space, the kernel and the pivot columns, and then runs Bareiss's
fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every entry it
holds is a minor of the scaled matrix, so each division by the previous
pivot is exact. The reduced echelon form of a matrix is unique, so rref
returns exactly the Fraction result of plain Gauss-Jordan; a product is
formed on integer entries over one common denominator per operand. The
outputs are therefore the same Fractions that Fraction arithmetic gives.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import AmbientMismatch, InternalInvariantError, NotInvariant

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _integer_entries(m: "ExactMatrix") -> tuple[list[int], int]:
    """(N, D) with D the lcm of m's denominators and N = D*m, row-major."""
    den = math.lcm(*(e.denominator for e in m.entries))
    return [e.numerator * (den // e.denominator) for e in m.entries], den


def _integer_rows(m: "ExactMatrix") -> list[list[int]]:
    """Each row of m times the lcm of its denominators: the same row space,
    kernel and pivot columns, in integers."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = math.lcm(*(e.denominator for e in row))
        out.append([e.numerator * (den // e.denominator) for e in row])
    return out


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rational matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(_frac(x) for x in row)
        return ExactMatrix(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n))
        )

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix(r, c, (_ZERO,) * (r * c))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """(A/Da)(B/Db) = AB/(Da*Db) for integer A and B: integer inner
        products and one Fraction per output entry."""
        if self.cols != other.rows:
            raise AmbientMismatch("matmul shape mismatch")
        a, da = _integer_entries(self)
        b, db = _integer_entries(other)
        n, ocols, den = self.cols, other.cols, da * db
        bcols = [b[j::ocols] for j in range(ocols)]
        out: list[Fraction] = []
        for i in range(self.rows):
            ai = a[i * n : (i + 1) * n]
            out.extend(Fraction(sum(map(mul, ai, bj)), den) for bj in bcols)
        return ExactMatrix(self.rows, ocols, tuple(out))

    def minus_scalar(self, q) -> "ExactMatrix":
        """self - q*I on a square matrix."""
        if self.rows != self.cols:
            raise ValueError("minus_scalar needs a square matrix")
        q = _frac(q)
        ent = list(self.entries)
        for i in range(self.rows):
            ent[i * self.cols + i] -= q
        return ExactMatrix(self.rows, self.cols, tuple(ent))

    def power(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        acc = ExactMatrix.identity(self.rows)
        for _ in range(k):
            acc = acc @ self
        return acc

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    @functools.cached_property
    def char_poly(self) -> tuple[Fraction, ...]:
        """Coefficients c_0, ..., c_d of det(xI - self), constant term first.

        Berkowitz's division-free recurrence (Berkowitz, IPL 18, 1984) runs
        on the integer matrix A = D*self, D the common denominator of the
        entries: bordering the leading k x k block A_k by a column c, a row
        r and a corner a gives det(xI - A_{k+1}) = (x - a) det(xI - A_k)
        - r adj(xI - A_k) c, and adj(xI - A_k) expands in powers of A_k
        with the coefficients of det(xI - A_k). Then c_m = e_m / D^(d-m)
        for the coefficients e_m of det(xI - A). Computed once per matrix.
        """
        if self.rows != self.cols:
            raise ValueError("char_poly needs a square matrix")
        n = self.rows
        flat, den = _integer_entries(self)
        a = [flat[i * n : (i + 1) * n] for i in range(n)]
        p = [1]  # det(xI - A_k), constant term first
        for k in range(n):
            r = a[k][:k]
            v = [a[i][k] for i in range(k)]
            w = []  # w[t] = r A_k^t c
            for _ in range(k):
                w.append(sum(x * y for x, y in zip(r, v)))
                v = [sum(x * y for x, y in zip(a[i][:k], v)) for i in range(k)]
            nxt = [0] + p
            for m, e in enumerate(p):
                nxt[m] -= a[k][k] * e
            for j in range(k):
                nxt[j] -= sum(p[m] * w[m - j - 1] for m in range(j + 1, k + 1))
            p = nxt
        return tuple(Fraction(e, den ** (n - m)) for m, e in enumerate(p))

    def is_eigenvalue(self, re, im=0) -> bool:
        """True when re + i*im is a root of char_poly, i.e. self minus that
        scalar is singular over the complex numbers. Horner's rule in exact
        Gaussian rationals, so the zero test is exact."""
        re, im = _frac(re), _frac(im)
        coeffs = self.char_poly
        x, y = coeffs[-1], _ZERO
        for c in reversed(coeffs[:-1]):
            x, y = x * re - y * im + c, x * im + y * re
        return not x and not y


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...], int]:
    """Reduced row echelon form. Returns (R, pivot columns, rank).

    Fraction-free Gauss-Jordan on the integer rows: each pivot step sets
    every other row to (pv*row - f*pivot_row) // prev, prev the previous
    pivot. After a step every pivot row holds pv at its pivot, so the
    pivot rows are divided by the last pivot once, at the end.
    """
    a = _integer_rows(m)
    pivots: list[int] = []
    prev = 1
    for pc in range(m.cols):
        pr = len(pivots)
        sel = next((r for r in range(pr, m.rows) if a[r][pc]), None)
        if sel is None:
            continue
        a[pr], a[sel] = a[sel], a[pr]
        prow = a[pr]
        pv = prow[pc]
        for r, row in enumerate(a):
            if r == pr:
                continue
            f = row[pc]
            if f:
                a[r] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
            elif pv != prev:
                a[r] = [pv * x // prev for x in row]
        prev = pv
        pivots.append(pc)
        if len(pivots) == m.rows:
            break
    rk = len(pivots)
    ent = [Fraction(x, prev) for row in a[:rk] for x in row]
    ent.extend([_ZERO] * ((m.rows - rk) * m.cols))
    return ExactMatrix(m.rows, m.cols, tuple(ent)), tuple(pivots), rk


def rank(m: ExactMatrix) -> int:
    """Rank by forward-only fraction-free elimination on the integer rows,
    with no back-substitution. rows holds the columns not yet eliminated
    of the rows not yet used as pivots."""
    rows = _integer_rows(m)
    rk, prev = 0, 1
    while rows and rows[0]:
        k = next((i for i, r in enumerate(rows) if r[0]), None)
        if k is None:
            rows = [r[1:] for r in rows]
            continue
        piv = rows.pop(k)
        pv, tail = piv[0], piv[1:]
        rows = [[(pv * x - r[0] * y) // prev for x, y in zip(r[1:], tail)] for r in rows]
        prev = pv
        rk += 1
    return rk


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square invertible matrix (Gauss-Jordan)."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    aug = ExactMatrix(
        n,
        2 * n,
        tuple(
            m.at(i, j) if j < n else (_ONE if j - n == i else _ZERO)
            for i in range(n)
            for j in range(2 * n)
        ),
    )
    red, pivots, rk = rref(aug)
    if rk != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return ExactMatrix(
        n, n, tuple(red.at(i, n + j) for i in range(n) for j in range(n))
    )


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of Q^ambient_dim in canonical reduced echelon form.

    The stored vectors are the nonzero rows of the reduced echelon form of
    any spanning set, so two bases of the same subspace compare equal. Build
    through from_vectors; the constructor validates the canonical shape.
    """

    ambient_dim: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        last_pivot = -1
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise AmbientMismatch("vector length != ambient dimension")
            p = next((j for j, x in enumerate(v) if x), None)
            if p is None:
                raise ValueError("zero vector stored in basis")
            if p <= last_pivot or v[p] != 1:
                raise ValueError("basis not in canonical echelon form")
            for w in self.vectors:
                if w is not v and w[p]:
                    raise ValueError("basis not fully reduced")
            last_pivot = p

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> "SubspaceBasis":
        vecs = [tuple(_frac(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length != ambient dimension")
        if not vecs:
            return SubspaceBasis(ambient_dim, ())
        red, _, rk = rref(ExactMatrix.from_rows(vecs))
        return SubspaceBasis(ambient_dim, tuple(red.row(i) for i in range(rk)))

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceBasis":
        ident = ExactMatrix.identity(ambient_dim)
        return SubspaceBasis(
            ambient_dim, tuple(ident.row(i) for i in range(ambient_dim))
        )

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def _pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(v) if x) for v in self.vectors]


def kernel_basis(m: ExactMatrix) -> SubspaceBasis:
    """Null space of m as a canonical subspace of Q^cols."""
    red, pivots, rk = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    vecs = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red.at(i, f)
        vecs.append(v)
    return SubspaceBasis.from_vectors(m.cols, vecs)


def image_basis(m: ExactMatrix) -> SubspaceBasis:
    """Column space of m as a canonical subspace of Q^rows: the nonzero
    rows of the reduced echelon form of the transpose, so one reduction."""
    red, _, rk = rref(m.transpose())
    return SubspaceBasis(m.rows, tuple(red.row(i) for i in range(rk)))


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("sum of subspaces of different ambient spaces")
    return SubspaceBasis.from_vectors(a.ambient_dim, a.vectors + b.vectors)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection via the kernel of the stacked column matrix.

    A kernel vector (u, w) of [A | B] gives A·u = -B·w, a point of the
    intersection; those points span it. The modular law
    dim a + dim b = dim(a+b) + dim(a∩b) is checked before returning.
    """
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("intersection of subspaces of different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis.zero(a.ambient_dim)
    stacked = ExactMatrix(
        a.ambient_dim,
        a.dim + b.dim,
        tuple(
            (a.vectors[j][i] if j < a.dim else b.vectors[j - a.dim][i])
            for i in range(a.ambient_dim)
            for j in range(a.dim + b.dim)
        ),
    )
    ker = kernel_basis(stacked)
    pts = []
    for kv in ker.vectors:
        pt = [_ZERO] * a.ambient_dim
        for j in range(a.dim):
            cf = kv[j]
            if cf:
                for i in range(a.ambient_dim):
                    pt[i] += cf * a.vectors[j][i]
        pts.append(pt)
    inter = SubspaceBasis.from_vectors(a.ambient_dim, pts)
    if a.dim + b.dim != subspace_sum(a, b).dim + inter.dim:
        raise InternalInvariantError("modular law fails for a subspace intersection")
    return inter


def restrict(m: ExactMatrix, b: SubspaceBasis) -> ExactMatrix:
    """Matrix of m restricted to the m-invariant subspace b, in b's basis.

    With b's vectors as the columns of B and P their pivot columns, the
    block is R = the rows of M B at P, since each basis vector is 1 at its
    own pivot and 0 at the others'. b is invariant exactly when B R = M B.
    """
    if m.rows != m.cols:
        raise ValueError("restrict needs a square matrix")
    if m.cols != b.ambient_dim:
        raise AmbientMismatch("matrix and subspace ambient dimensions differ")
    k = b.dim
    basis = ExactMatrix(k, b.ambient_dim, tuple(x for v in b.vectors for x in v))
    cols = basis.transpose()
    image = m @ cols
    block = ExactMatrix(k, k, tuple(x for p in b._pivots() for x in image.row(p)))
    if cols @ block != image:
        raise NotInvariant("subspace is not invariant under the matrix")
    return block
