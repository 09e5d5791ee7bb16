"""Exact dense linear algebra over the rationals.

A matrix is stored as integer numerators over one positive common
denominator: ExactMatrix(rows, cols, num, den) holds the entries
num[k] / den, row-major. The constructor brings (num, den) to lowest
terms, gcd(den, *num) = 1 with den > 0, which is the one such form of a
rational matrix, so == and hash are exact. A subspace is stored as the
nonzero rows of the reduced echelon form of any spanning set, held as such
a matrix, so two computations of the same subspace give equal objects.
Ranks and dimensions come from exact comparisons; no tolerance appears
anywhere.

Every kernel computes on integers: rref, rank, the product, inverse,
restrict and the subspace operations take and return the stored form.
Elimination runs Bareiss's fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) on the numerator rows, each divided by the gcd of its
entries, which keeps the row space, the kernel and the pivot columns:
every entry it holds is a minor of that integer matrix, so each division
by the previous pivot is exact. The reduced echelon form of a matrix is
unique, so rref returns exactly what Gauss-Jordan over the rationals
gives.

Fractions appear only at the boundary: from_rows and from_vectors accept
them (from_ratios takes the integer pairs a parsed document gives),
minus_scalar reads a Fraction's numerator and denominator, and the
read-only views at, row, column, entries, to_rows and
SubspaceBasis.vectors return them. No kernel builds one.
Only spectrum scans use the characteristic polynomial: gaussian_root
evaluates it in Gaussian integers, for the scans' keys on their integer
axes; analysis at one point decides eigenvalues by rank.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import AmbientMismatch, InternalInvariantError, NotInvariant


def exact_rational(x) -> Fraction:
    """An int, a Fraction or a "p/q" string as a Fraction. Anything else,
    a float above all (0.1 is not 1/10), is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rational matrix: entry (i, j) is num[i*cols + j] / den.

    The constructor divides out gcd(den, *num) and moves the sign of den
    into the numerators, so every rational matrix has one stored form.
    """

    rows: int
    cols: int
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.num) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        if not self.den:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(self.den, *self.num)
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "num", tuple([x // g for x in self.num]))
            object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        """The matrix with these rows of ints, Fractions or rational strings."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        vals = [x if isinstance(x, int) else exact_rational(x) for row in rows for x in row]
        return ExactMatrix.from_ratios(r, c, [(v.numerator, v.denominator) for v in vals])

    @staticmethod
    def from_ratios(rows: int, cols: int, pairs: Sequence[tuple[int, int]]) -> "ExactMatrix":
        """The matrix whose entries, row-major, are p/q for the integer
        pairs (p, q), q nonzero."""
        den = math.lcm(*(q for _, q in pairs))
        return ExactMatrix(rows, cols, tuple([p * (den // q) for p, q in pairs]), den)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        num = [0] * (n * n)
        num[:: n + 1] = [1] * n
        return ExactMatrix(n, n, tuple(num))

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix(r, c, (0,) * (r * c))

    def at(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(x, self.den) for x in self.num[i * self.cols : (i + 1) * self.cols]
        )

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num[j :: self.cols])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        c = self.cols
        num = tuple(x for j in range(c) for x in self.num[j::c])
        return ExactMatrix(c, self.rows, num, self.den)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """(A/Da)(B/Db) = AB/(Da*Db): integer inner products."""
        if self.cols != other.rows:
            raise AmbientMismatch("matmul shape mismatch")
        a, n, ocols = self.num, self.cols, other.cols
        arows = [a[i * n : (i + 1) * n] for i in range(self.rows)]
        bcols = [other.num[j::ocols] for j in range(ocols)]
        out = tuple([sum(map(mul, ai, bj)) for ai in arows for bj in bcols])
        return ExactMatrix(self.rows, ocols, out, self.den * other.den)

    def minus_scalar(self, q) -> "ExactMatrix":
        """self - q*I on a square matrix, q an int or a Fraction."""
        if self.rows != self.cols:
            raise ValueError("minus_scalar needs a square matrix")
        den = math.lcm(self.den, q.denominator)
        f = den // self.den
        num = [x * f for x in self.num]
        sub = q.numerator * (den // q.denominator)
        for k in range(0, len(num), self.cols + 1):
            num[k] -= sub
        return ExactMatrix(self.rows, self.cols, tuple(num), den)

    def power(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        acc = self if k else ExactMatrix.identity(self.rows)
        for _ in range(k - 1):
            acc = acc @ self
        return acc

    def select_rows(self, idx: Sequence[int]) -> "ExactMatrix":
        """The rows of self at the indices idx, in that order."""
        c = self.cols
        num = tuple(x for i in idx for x in self.num[i * c : (i + 1) * c])
        return ExactMatrix(len(idx), c, num, self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    @functools.cached_property
    def _scaled_char_poly(self) -> tuple[int, ...]:
        """Coefficients e_0, ..., e_d of det(xI - A) for the integer matrix
        A = den*self, constant term first.

        Berkowitz's division-free recurrence (Berkowitz, IPL 18, 1984):
        bordering the leading k x k block A_k by a column c, a row r and a
        corner a gives det(xI - A_{k+1}) = (x - a) det(xI - A_k)
        - r adj(xI - A_k) c, and adj(xI - A_k) expands in powers of A_k
        with the coefficients of det(xI - A_k). Computed once per matrix.
        """
        if self.rows != self.cols:
            raise ValueError("the characteristic polynomial needs a square matrix")
        n = self.rows
        a = [self.num[i * n : (i + 1) * n] for i in range(n)]
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
        return tuple(p)

    def weighted_char_poly(self, q: int) -> tuple[int, ...]:
        """e_m * q^(d-m), m = 0..d, for the coefficients e_m of
        det(xI - A), A = den*self (_scaled_char_poly): the polynomial that
        gaussian_root evaluates at z = den*q*lam for a point lam with
        denominators dividing q. Its value there is q^d den^d
        det(lam*I - self), so z is a root exactly when lam is an
        eigenvalue, whichever such q is taken."""
        d = self.rows
        return tuple([e * q ** (d - m) for m, e in enumerate(self._scaled_char_poly)])


def gaussian_root(coeffs: Sequence[int], zr: int, zi: int) -> bool:
    """True when sum_m coeffs[m] * z^m is 0 at the Gaussian integer
    z = zr + i*zi, coefficients constant term first: Horner's rule in ints,
    so the zero test is exact. The scans' eigenvalue test on their
    integer axes (spectra.scan)."""
    x, y = coeffs[-1], 0
    for e in coeffs[-2::-1]:
        x, y = x * zr - y * zi + e, x * zi + y * zr
    return not x and not y


def _content_rows(m: ExactMatrix) -> list[list[int]]:
    """The numerator rows of m, each divided by the gcd of its entries: the
    same row space, kernel and pivot columns, in smaller integers."""
    c, out = m.cols, []
    for i in range(m.rows):
        row = m.num[i * c : (i + 1) * c]
        g = math.gcd(*row)
        out.append([x // g for x in row] if g > 1 else list(row))
    return out


def _gauss_jordan(a: list[list[int]], cols: int) -> tuple[tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan on the integer rows a, in place. Returns
    the pivot columns and the last pivot p; the reduced echelon form is
    then the first len(pivots) rows of a divided by p.

    Each pivot step sets every other row to (pv*row - f*pivot_row) // prev,
    prev the previous pivot. After a step every pivot row holds pv at its
    pivot, so the division by the last pivot is left to the caller.
    """
    pivots: list[int] = []
    prev = 1
    for pc in range(cols):
        pr = len(pivots)
        sel = next((r for r in range(pr, len(a)) if a[r][pc]), None)
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
        if len(pivots) == len(a):
            break
    return tuple(pivots), prev


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...], int]:
    """Reduced row echelon form. Returns (R, pivot columns, rank)."""
    a = _content_rows(m)
    pivots, prev = _gauss_jordan(a, m.cols)
    rk = len(pivots)
    num = [x for row in a[:rk] for x in row]
    num.extend([0] * ((m.rows - rk) * m.cols))
    return ExactMatrix(m.rows, m.cols, tuple(num), prev), pivots, rk


def rank(m: ExactMatrix) -> int:
    """Rank by forward-only fraction-free elimination on the integer rows,
    with no back-substitution. rows holds the columns not yet eliminated
    of the rows not yet used as pivots."""
    rows = _content_rows(m)
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
    """Exact inverse of a square invertible matrix m = N/D: Gauss-Jordan
    on the integer [N | I] ends at [p*I | p*N^-1], p the last pivot, and
    m^-1 = D*N^-1."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    a = [list(m.num[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    pivots, prev = _gauss_jordan(a, 2 * n)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return ExactMatrix(n, n, tuple(m.den * x for row in a for x in row[n:]), prev)


def stack(top: ExactMatrix, bottom: ExactMatrix) -> ExactMatrix:
    """The rows of top above the rows of bottom."""
    if top.cols != bottom.cols:
        raise AmbientMismatch("stacked matrices differ in column count")
    den = math.lcm(top.den, bottom.den)
    ft, fb = den // top.den, den // bottom.den
    num = tuple(x * ft for x in top.num) + tuple(x * fb for x in bottom.num)
    return ExactMatrix(top.rows + bottom.rows, top.cols, num, den)


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of Q^ambient_dim in canonical reduced echelon form.

    matrix is dim x ambient_dim; its rows are the nonzero rows of the
    reduced echelon form of any spanning set, so two bases of the same
    subspace compare equal. Build through from_vectors or the functions
    below; the constructor validates the canonical shape.
    """

    matrix: ExactMatrix

    def __post_init__(self):
        m = self.matrix
        c, pivots = m.cols, self.pivots()
        for i, p in enumerate(pivots):
            if p is None:
                raise ValueError("zero vector stored in basis")
            if (i and p <= pivots[i - 1]) or m.num[i * c + p] != m.den:
                raise ValueError("basis not in canonical echelon form")
            # the pivot is the only nonzero entry of its column
            if m.num[p::c].count(0) != m.rows - 1:
                raise ValueError("basis not fully reduced")

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> "SubspaceBasis":
        """The span of vectors of ints, Fractions or rational strings."""
        if any(len(v) != ambient_dim for v in vectors):
            raise AmbientMismatch("vector length != ambient dimension")
        if not vectors:
            return SubspaceBasis.zero(ambient_dim)
        return _span(ExactMatrix.from_rows(vectors))

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ExactMatrix.zeros(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ExactMatrix.identity(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.cols

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.matrix.row(i) for i in range(self.dim))

    def pivots(self) -> list[int | None]:
        """Each basis vector's pivot column, its first nonzero entry."""
        m, c = self.matrix, self.matrix.cols
        return [
            next((j for j, x in enumerate(m.num[i * c : (i + 1) * c]) if x), None)
            for i in range(m.rows)
        ]


def _span(m: ExactMatrix) -> SubspaceBasis:
    """The row space of m."""
    red, _, rk = rref(m)
    return SubspaceBasis(ExactMatrix(rk, m.cols, red.num[: rk * m.cols], red.den))


def kernel_basis(m: ExactMatrix) -> SubspaceBasis:
    """Null space of m as a canonical subspace of Q^cols, from one reduction.

    m is reduced with its columns in reverse order, R = N/D. There each
    free column f gives the kernel vector e_f minus the sum of R[i][f]
    e_(pivot i) over the pivots before f. Back in the original order the
    vector is 1 at f, 0 at every other free column and nonzero elsewhere
    only after f, so these vectors, ordered by f, are already the reduced
    echelon basis of the kernel. They are held here times D.
    """
    c = m.cols
    rev = tuple(x for i in range(m.rows) for x in m.num[i * c : (i + 1) * c][::-1])
    red, pivots, _ = rref(ExactMatrix(m.rows, c, rev, m.den))
    pivset = set(pivots)
    free = [f for f in range(c - 1, -1, -1) if f not in pivset]
    num = [0] * (len(free) * c)
    for k, f in enumerate(free):
        row = k * c + c - 1  # reversed column j lands at row - j
        num[row - f] = red.den
        for i, p in enumerate(pivots):
            num[row - p] = -red.num[i * c + f]
    return SubspaceBasis(ExactMatrix(len(free), c, tuple(num), red.den))


def image_basis(m: ExactMatrix) -> SubspaceBasis:
    """Column space of m as a canonical subspace of Q^rows: the row space
    of the transpose, so one reduction."""
    return _span(m.transpose())


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("sum of subspaces of different ambient spaces")
    return _span(stack(a.matrix, b.matrix))


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
    ker = kernel_basis(stack(a.matrix, b.matrix).transpose()).matrix
    w, ka = ker.cols, a.dim
    u = tuple(x for i in range(ker.rows) for x in ker.num[i * w : i * w + ka])
    inter = _span(ExactMatrix(ker.rows, ka, u, ker.den) @ a.matrix)
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
    cols = b.matrix.transpose()
    image = m @ cols
    block = image.select_rows(b.pivots())
    if cols @ block != image:
        raise NotInvariant("subspace is not invariant under the matrix")
    return block
