"""Fraction-arithmetic reference for the integer kernels of fredprofile.linalg.

These are the Fraction-entry rref, matrix product and restriction that
linalg used before it moved to integer elimination, kept verbatim as the
oracle for the differential tests, with the matrix-vector product and the
subspace membership tests they are built on. Nothing in the package
imports them.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from fredprofile.errors import AmbientMismatch, NotInvariant
from fredprofile.linalg import ExactMatrix, SubspaceBasis, _frac

_ZERO = Fraction(0)


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
    v = tuple(_frac(x) for x in vec)
    if len(v) != b.ambient_dim:
        raise AmbientMismatch("vector length != ambient dimension")
    coords = tuple(v[p] for p in b._pivots())
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
    return ExactMatrix(self.rows, ocols, tuple(out))


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
    return ExactMatrix(k, k, tuple(cols[j][i] for i in range(k) for j in range(k)))
