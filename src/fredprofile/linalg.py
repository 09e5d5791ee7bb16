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

Every kernel computes on integers: rank, the product, inverse, restrict
and the subspace operations take and return the stored form.
The subspace operations eliminate rows taken straight from their inputs'
numerators: a matrix's rows, its columns or its rows reversed, or the
rows of two bases stacked with no common denominator, since scaling a
row changes neither a row space nor the span of an intersection's points
A·u. Each builds one matrix, and one basis, per result.
Every elimination is one forward pass of Bareiss's fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) on the numerator rows, each
divided by the gcd of its entries, which keeps the row space, the kernel
and the pivot columns; rank counts its pivots, and a reduced echelon form
is read after back-substitution. Each entry held is a minor, so dividing
by the previous pivot is exact; so is back-substitution, as the last pivot
times the reduced form (unique, Gauss-Jordan's) is integral (Cramer).
A step works on rows in place and only where a row needs it: it swaps
only when the pivot row is not in place, divides nothing while the
previous pivot is 1, and keeps a row with a zero multiplier, or only
rescales it where the new pivot differs from the previous one.

Fractions appear only at the boundary: from_rows and from_vectors accept
them (from_ratios takes the integer pairs a parsed document gives),
minus_scalar reads a Fraction's numerator and denominator, and the
read-only views at, row, column, entries, to_rows and
SubspaceBasis.vectors return them. No kernel builds one. Strings are
read by exact_rational in the one "p" or "p/q" grammar that documents and
the command line use (extvals.ratio_numeral), never in Fraction's own.
Only spectrum scans use the characteristic polynomial, that of the
integer matrix den*M: an eigenvalue lam of M makes z = den*lam one of its
roots, a Gaussian integer, and root_multiplicity divides it by x - z in
Gaussian integers, which gives lam's algebraic multiplicity, where the
chain of ranks stops; analysis at one point decides eigenvalues by rank.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .errors import AmbientMismatch, NotInvariant
from .extvals import ratio_numeral


def exact_rational(x) -> Fraction:
    """An int, a Fraction or a "p" or "p/q" string (extvals.ratio_numeral,
    the grammar of documents) as a Fraction. A malformed string is a
    ValueError; anything else, a float above all (0.1 is not 1/10), is a
    TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*ratio_numeral(x))
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

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("sum shape mismatch")
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        num = tuple([f * x + g * y for x, y in zip(self.num, other.num)])
        return ExactMatrix(self.rows, self.cols, num, den)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scaled(-1)

    def scaled(self, p: int, q: int = 1) -> "ExactMatrix":
        """self * p/q for integers p and q, q nonzero."""
        return ExactMatrix(self.rows, self.cols, tuple([p * x for x in self.num]), self.den * q)

    def minus_scalar(self, q) -> "ExactMatrix":
        """self - q*I on a square matrix, q an int or a Fraction."""
        if self.rows != self.cols:
            raise ValueError("minus_scalar needs a square matrix")
        if not q:
            return self
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


def block(grid: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    """The block matrix whose rows of blocks are grid's rows, over the lcm
    of the blocks' denominators."""
    den = math.lcm(*[b.den for row in grid for b in row])
    num = []
    for row in grid:
        for i in range(row[0].rows):
            for b in row:
                f = den // b.den
                num += [f * x for x in b.num[i * b.cols : (i + 1) * b.cols]]
    rows, cols = sum(row[0].rows for row in grid), sum(b.cols for b in grid[0])
    return ExactMatrix(rows, cols, tuple(num), den)


def root_multiplicity(coeffs: Sequence[int], zr: int, zi: int) -> int:
    """The multiplicity of the Gaussian integer z = zr + i*zi as a root of
    sum_m coeffs[m] * x^m, integer coefficients constant term first and the
    last nonzero; 0 off the roots. Each pass is Horner's rule in Gaussian
    integers, so every zero test is exact: its partial sums, leading first,
    are the coefficients of the quotient by x - z, and its last is the
    remainder. A pass whose remainder is 0 divides exactly, and the next
    runs on the quotient. Off the roots one pass in ints, which keeps
    nothing, decides. The scans' eigenvalue test on their integer axes
    (spectra.scan)."""
    x, y = coeffs[-1], 0
    for e in coeffs[-2::-1]:
        x, y = x * zr - y * zi + e, x * zi + y * zr
    if x or y:
        return 0
    mult, p = 0, [(e, 0) for e in coeffs[::-1]]
    while True:
        sums, x, y = [], 0, 0
        for e, f in p:
            x, y = x * zr - y * zi + e, x * zi + y * zr + f
            sums.append((x, y))
        if x or y:
            return mult
        mult, p = mult + 1, sums[:-1]


def _content(row: Sequence[int]) -> Sequence[int]:
    """An integer row divided by the gcd of its entries: the same row
    space, kernel and pivot columns, in smaller integers."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _num_rows(m: ExactMatrix) -> list[tuple[int, ...]]:
    """The numerator rows of m."""
    c = m.cols
    return [m.num[i * c : (i + 1) * c] for i in range(m.rows)]


def _forward(a: list[Sequence[int]], cols: int) -> tuple[list[int], list[int]]:
    """Bareiss's forward elimination on the integer rows a, in place, until
    every row is a pivot row; a step sets each row below the pivot row to
    (pv*row - row[pc]*pivot_row) // prev. A row with 0 at pc is kept where
    pv = prev and rescaled to pv*row // prev otherwise, and nothing is
    divided while prev is 1. Returns the pivots and values."""
    pivots, vals, prev, n = [], [], 1, len(a)
    for pc in range(cols):
        pr = len(pivots)
        if pr == n:
            break
        for sel in range(pr, n):
            if a[sel][pc]:
                break
        else:
            continue
        if sel != pr:
            a[sel], a[pr] = a[pr], a[sel]
        prow = a[pr]
        pv = prow[pc]
        for i in range(pr + 1, n):
            r = a[i]
            f = r[pc]
            if f:
                if prev == 1:
                    a[i] = [pv * x - f * y for x, y in zip(r, prow)]
                else:
                    a[i] = [(pv * x - f * y) // prev for x, y in zip(r, prow)]
            elif pv != prev:
                a[i] = [pv * x for x in r] if prev == 1 else [pv * x // prev for x in r]
        pivots.append(pc)
        vals.append(pv)
        prev = pv
    return pivots, vals


def _gauss_jordan(a: list[Sequence[int]], cols: int) -> tuple[tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan on the integer rows a, in place: returns
    the pivot columns and the last pivot p, and a's first len(pivots) rows
    are then p times the reduced echelon form. _forward's row i becomes, from
    the last up, (p*row_i - sum over later k of row_i[pivot_k]*row_k) // vals[i]."""
    pivots, vals = _forward(a, cols)
    p, rk = vals[-1] if vals else 1, len(pivots)
    if rk == cols:  # a pivot in every column: the reduced form is the identity
        for i in range(rk):
            a[i] = [0] * cols
            a[i][i] = p
        return tuple(pivots), p
    for i in range(rk - 2, -1, -1):
        row, acc = a[i], [p * x for x in a[i]]
        for k in range(i + 1, rk):
            f = row[pivots[k]]
            if f:
                acc = [x - f * y for x, y in zip(acc, a[k])]
        a[i] = [x // vals[i] for x in acc]
    return tuple(pivots), p


def rank(m: ExactMatrix) -> int:
    """The number of pivots of m's content-reduced numerator rows."""
    return len(_forward([_content(row) for row in _num_rows(m)], m.cols)[0])


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
        return _span([_integer_row(v) for v in vectors], ambient_dim)

    @staticmethod
    @functools.cache
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ExactMatrix.zeros(0, ambient_dim))

    @staticmethod
    @functools.cache
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
        cols = range(self.matrix.cols)
        return [next(compress(cols, row), None) for row in _num_rows(self.matrix)]


def _integer_row(vector: Sequence) -> list[int]:
    """A vector of ints, Fractions or rational strings times the lcm of its
    denominators: a row of integers spanning the same line."""
    vals = [x if isinstance(x, int) else exact_rational(x) for x in vector]
    den = math.lcm(*[v.denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals]


def _span(rows: Sequence[Sequence[int]], cols: int) -> SubspaceBasis:
    """The span of integer rows of length cols. Scaling a row keeps the
    span, so the rows need no common denominator; the reduced echelon form
    is the first rank rows after elimination, over the last pivot."""
    a = [_content(row) for row in rows]
    pivots, prev = _gauss_jordan(a, cols)
    rk = len(pivots)
    return SubspaceBasis(ExactMatrix(rk, cols, tuple([x for row in a[:rk] for x in row]), prev))


def _kernel(rows: Sequence[Sequence[int]], cols: int) -> tuple[list[list[int]], int]:
    """The null space of integer rows of length cols, as the reduced
    echelon basis held as integer vectors over one denominator: (vectors,
    den), the same space for rows scaled one by one.

    The rows are reduced with their columns in reverse order, to the
    reduced echelon form R = N/p, p the last pivot (_gauss_jordan). There
    each free column f gives the kernel vector e_f minus the sum of R[i][f]
    e_(pivot i) over the pivots before f. Back in the original order the
    vector is 1 at f, 0 at every other free column and nonzero elsewhere
    only after f, so these vectors, ordered by f, are already the reduced
    echelon basis of the kernel. They are held here times p.
    """
    a = [_content(row[::-1]) for row in rows]
    pivots, prev = _gauss_jordan(a, cols)
    pivset, last = set(pivots), cols - 1  # reversed column j is column last - j
    vectors = []
    for f in range(last, -1, -1):
        if f in pivset:
            continue
        v = [0] * cols
        v[last - f] = prev
        for row, p in zip(a, pivots):
            v[last - p] = -row[f]
        vectors.append(v)
    return vectors, prev


def kernel_basis(m: ExactMatrix) -> SubspaceBasis:
    """Null space of m as a canonical subspace of Q^cols, from one reduction
    of its numerator rows."""
    vectors, den = _kernel(_num_rows(m), m.cols)
    return SubspaceBasis(
        ExactMatrix(len(vectors), m.cols, tuple([x for v in vectors for x in v]), den)
    )


def image_basis(m: ExactMatrix) -> SubspaceBasis:
    """Column space of m as a canonical subspace of Q^rows: the span of its
    numerator columns, so one reduction."""
    return _span([m.num[j :: m.cols] for j in range(m.cols)], m.rows)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """The span of both bases' numerator rows."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("sum of subspaces of different ambient spaces")
    return _span(_num_rows(a.matrix) + _num_rows(b.matrix), a.ambient_dim)


def subspace_intersection(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection via the kernel of the column matrix [A | B].

    A kernel vector (u, w) of [A | B] gives A·u = -B·w, a point of the
    intersection; those points span it. A and B are taken as their
    numerators, which scales u and w but keeps the span of the points A·u.
    """
    n = a.ambient_dim
    if n != b.ambient_dim:
        raise AmbientMismatch("intersection of subspaces of different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return SubspaceBasis.zero(n)
    an, bn, ka = a.matrix.num, b.matrix.num, a.dim
    acols = [an[j::n] for j in range(n)]
    kernel, _ = _kernel([col + bn[j::n] for j, col in enumerate(acols)], ka + b.dim)
    points = [[sum(map(mul, v, col)) for col in acols] for v in kernel]  # A·u, u = v[:ka]
    return _span(points, n)


def restrict(m: ExactMatrix, b: SubspaceBasis) -> ExactMatrix:
    """Matrix of m restricted to the m-invariant subspace b, in b's basis.

    With b's vectors as the columns of B and P their pivot columns, the
    block is R = the rows of M B at P, since each basis vector is 1 at its
    own pivot and 0 at the others'. b is invariant exactly when B R = M B.
    On numerators, M = N/Dm and B = V/Db, M B = W/(Dm Db) with W = N V and
    R = W_P/(Dm Db), so the test is V W_P = Db W in integers. At the pivot
    row of vector t, V is Db at t and 0 elsewhere, so both sides are Db
    R[t]: only the other rows are tested.
    """
    if m.rows != m.cols:
        raise ValueError("restrict needs a square matrix")
    n = m.cols
    if n != b.ambient_dim:
        raise AmbientMismatch("matrix and subspace ambient dimensions differ")
    vecs = _num_rows(b.matrix)
    image = [[sum(map(mul, row, v)) for v in vecs] for row in _num_rows(m)]
    pivots = b.pivots()
    block = [image[p] for p in pivots]
    bcols = list(zip(*block))
    num, db = b.matrix.num, b.matrix.den
    for j in [j for j in range(n) if j not in pivots]:
        if [sum(map(mul, num[j::n], col)) for col in bcols] != [db * x for x in image[j]]:
            raise NotInvariant("subspace is not invariant under the matrix")
    return ExactMatrix(b.dim, b.dim, tuple([x for row in block for x in row]), m.den * db)
