"""Fraction-arithmetic reference for the integer kernels of fredprofile.linalg.

These are the Fraction-entry rref, matrix product and restriction that
linalg used before it moved to integer elimination, kept verbatim as the
oracle for the differential tests, with the matrix-vector product and the
subspace membership tests they are built on; and, on top of that rref,
Fraction versions of the kernel, image, subspace sum and intersection,
the realified block, q(m), the characteristic polynomial's Fraction
coefficients and the Horner eigenvalue test. Nothing in the package
imports them.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from fredprofile.errors import AmbientMismatch, NotInvariant
from fredprofile.linalg import ExactMatrix, SubspaceBasis, exact_rational

_ZERO = Fraction(0)


def _matrix(rows: int, cols: int, flat: Sequence[Fraction]) -> ExactMatrix:
    if not rows:
        return ExactMatrix.zeros(0, cols)
    return ExactMatrix.from_rows([flat[i * cols : (i + 1) * cols] for i in range(rows)])


def apply(m: ExactMatrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(vec) != m.cols:
        raise AmbientMismatch("vector length mismatch")
    return tuple(
        sum((m.at(i, j) * vec[j] for j in range(m.cols)), _ZERO)
        for i in range(m.rows)
    )


def coordinates(b: SubspaceBasis, vec: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Coordinates of vec in b's stored basis, or None if outside.

    Reduced echelon rows make this a read-off: the coefficient of row i
    is vec[pivot_i] because no other row has support on that pivot.
    """
    v = tuple(exact_rational(x) for x in vec)
    if len(v) != b.ambient_dim:
        raise AmbientMismatch("vector length != ambient dimension")
    coords = tuple(v[p] for p in b.pivots())
    residue = list(v)
    for cf, row in zip(coords, b.vectors):
        if cf:
            for j in range(b.ambient_dim):
                residue[j] -= cf * row[j]
    if any(residue):
        return None
    return coords


def contains(b: SubspaceBasis, vec: Sequence[Fraction]) -> bool:
    return coordinates(b, vec) is not None


def is_subspace_of(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspaces in different ambient spaces")
    return all(contains(b, v) for v in a.vectors)


def matmul(self: ExactMatrix, other: ExactMatrix) -> ExactMatrix:
    if self.cols != other.rows:
        raise AmbientMismatch("matmul shape mismatch")
    out: list[Fraction] = []
    ocols = other.cols
    for i in range(self.rows):
        ri = self.row(i)
        for j in range(ocols):
            s = _ZERO
            for k in range(self.cols):
                a = ri[k]
                if a:
                    s += a * other.entries[k * ocols + j]
            out.append(s)
    return _matrix(self.rows, ocols, out)


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...], int]:
    """Reduced row echelon form. Returns (R, pivot columns, rank)."""
    data = m.to_rows()
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        sel = None
        for r in range(pr, m.rows):
            if data[r][pc]:
                sel = r
                break
        if sel is None:
            continue
        data[pr], data[sel] = data[sel], data[pr]
        pv = data[pr][pc]
        if pv != 1:
            data[pr] = [x / pv for x in data[pr]]
        for r in range(m.rows):
            if r != pr and data[r][pc]:
                f = data[r][pc]
                data[r] = [x - f * y for x, y in zip(data[r], data[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    out = ExactMatrix.from_rows(data) if m.rows else m
    return out, tuple(pivots), len(pivots)


def restrict(m: ExactMatrix, b: SubspaceBasis) -> ExactMatrix:
    """Matrix of m restricted to the m-invariant subspace b, in b's basis."""
    if m.rows != m.cols:
        raise ValueError("restrict needs a square matrix")
    if m.cols != b.ambient_dim:
        raise AmbientMismatch("matrix and subspace ambient dimensions differ")
    cols: list[tuple[Fraction, ...]] = []
    for v in b.vectors:
        w = apply(m, v)
        coords = coordinates(b, w)
        if coords is None:
            raise NotInvariant("subspace is not invariant under the matrix")
        cols.append(coords)
    k = b.dim
    return _matrix(k, k, [cols[j][i] for i in range(k) for j in range(k)])


# Subspaces as the Fraction rows of their canonical reduced echelon basis,
# built only from the reference rref above.

Rows = tuple[tuple[Fraction, ...], ...]


def span(ambient_dim: int, vectors: Sequence[Sequence[Fraction]]) -> Rows:
    if not vectors:
        return ()
    red, _, rk = rref(ExactMatrix.from_rows([list(v) for v in vectors]))
    return tuple(red.row(i) for i in range(rk))


def kernel_basis(m: ExactMatrix) -> Rows:
    red, pivots, _ = rref(m)
    vecs = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [_ZERO] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.at(i, f)
        vecs.append(v)
    return span(m.cols, vecs)


def image_basis(m: ExactMatrix) -> Rows:
    return span(m.rows, [m.column(j) for j in range(m.cols)])


def subspace_sum(n: int, a: Rows, b: Rows) -> Rows:
    return span(n, a + b)


def subspace_intersection(n: int, a: Rows, b: Rows) -> Rows:
    """Points A·u of the kernel vectors (u, w) of [A | B]."""
    if not a or not b:
        return ()
    stacked = _matrix(n, len(a) + len(b), [v[i] for i in range(n) for v in a + b])
    pts = []
    for kv in kernel_basis(stacked):
        pts.append([sum((kv[j] * a[j][i] for j in range(len(a))), _ZERO) for i in range(n)])
    return span(n, pts)


def realified(m: ExactMatrix, re: Fraction, im: Fraction) -> ExactMatrix:
    """[[m - re*I, im*I], [-im*I, m - re*I]], or m - re*I when im == 0."""
    d = m.rows
    s = [[m.at(i, j) - (re if i == j else 0) for j in range(d)] for i in range(d)]
    if im == 0:
        return ExactMatrix.from_rows(s)
    top = [s[i] + [im if j == i else _ZERO for j in range(d)] for i in range(d)]
    bottom = [[-im if j == i else _ZERO for j in range(d)] + s[i] for i in range(d)]
    return ExactMatrix.from_rows(top + bottom)


def real_quadratic(m: ExactMatrix, re: Fraction, im: Fraction) -> ExactMatrix:
    """(m - re*I)^2 + im^2*I, entry by entry."""
    d = m.rows
    s = [[m.at(i, j) - (re if i == j else 0) for j in range(d)] for i in range(d)]
    sq = [[sum((s[i][k] * s[k][j] for k in range(d)), _ZERO) for j in range(d)] for i in range(d)]
    for i in range(d):
        sq[i][i] += im * im
    return ExactMatrix.from_rows(sq)


def char_poly(m: ExactMatrix) -> tuple[Fraction, ...]:
    """Coefficients c_0, ..., c_d of det(xI - m), constant term first:
    c_m = e_m / den^(d-m) for the coefficients e_m of the integer matrix
    den*m's polynomial."""
    d = m.rows
    return tuple(Fraction(e, m.den ** (d - k)) for k, e in enumerate(m._scaled_char_poly))


def is_eigenvalue(m: ExactMatrix, re: Fraction, im: Fraction) -> bool:
    """Horner's rule on char_poly(m) in Gaussian rationals."""
    coeffs = char_poly(m)
    x, y = coeffs[-1], _ZERO
    for c in reversed(coeffs[:-1]):
        x, y = x * re - y * im + c, x * im + y * re
    return not x and not y
