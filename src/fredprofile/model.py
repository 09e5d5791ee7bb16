"""Operator model: atoms, direct-sum expressions, and structural profiles.

An operator is a finite direct sum of atoms: exact rational square matrices
and four fixed model shifts on a sequence space. For an expression e and an
exact rational point lam = (re, im), the structural profile of e - lam
records, as symbolic chains over the power n:

    a_n = dim N((e-lam)^n)                    kernel chain
    r_n = codim R((e-lam)^n)                  range codimension chain
    c_n = dim(R((e-lam)^n) ∩ N(e-lam))        meet chain
    b_n = codim(R(e-lam) + N((e-lam)^n))      join codimension chain

together with range closedness per power, quasi-nilpotence, nilpotency
degree, and whether the point admits a generalized Kato decomposition. A
profile stores a and r only: c and b are their step sizes, derived once on
access. Matrix kernel chains follow from the exact ranks of the powers,
the only thing kept (matrix_chain_data, then matrix_profile), computed at
every point: the first rank alone says whether lam is an eigenvalue, so
analysis at one point builds no characteristic polynomial. Shift chains come from closed-form tables, one profile per
region of the plane, whose justification is noted inline. A shift's region
(shift_region) is the sign of |lam|^2 - 1 or whether lam = 0, which a
grid scan finds by integer comparisons; a matrix atom's region, for scan
keys only, comes from its characteristic polynomial (atom_region).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AmbientMismatch, InternalInvariantError
from .extvals import (
    ALWAYS_CLOSED,
    BoolSeq,
    CLOSED_ONLY_AT_ZERO,
    EvAffineSeq,
    ExtNat,
    INF,
    LINEAR_SEQ,
    ZERO_SEQ,
)
from .linalg import ExactMatrix, exact_rational, rank

ATOM_KINDS = ("matrix", "right_shift", "left_shift", "qnil_shift", "qnil_shift_dual")

_SHIFT_DUALS = {
    "right_shift": "left_shift",
    "left_shift": "right_shift",
    "qnil_shift": "qnil_shift_dual",
    "qnil_shift_dual": "qnil_shift",
}

Point = tuple[Fraction, Fraction]


def point(re, im=0) -> Point:
    """The point re + i*im, each part exact (linalg.exact_rational)."""
    return (exact_rational(re), exact_rational(im))


@dataclass(frozen=True)
class Atom:
    """One direct summand: a square rational matrix or a model shift."""

    kind: str
    matrix: ExactMatrix | None = None

    def __post_init__(self):
        if self.kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.kind == "matrix":
            if self.matrix is None:
                raise ValueError("matrix atom needs a matrix")
            if self.matrix.rows != self.matrix.cols or self.matrix.rows < 1:
                raise ValueError("matrix atom must be square and nonempty")
        elif self.matrix is not None:
            raise ValueError("shift atoms carry no matrix")


RIGHT_SHIFT = Atom("right_shift")
LEFT_SHIFT = Atom("left_shift")
QNIL_SHIFT = Atom("qnil_shift")
QNIL_SHIFT_DUAL = Atom("qnil_shift_dual")


def matrix_atom(rows: Sequence[Sequence]) -> Atom:
    return Atom("matrix", ExactMatrix.from_rows(rows))


@dataclass(frozen=True)
class OperatorExpr:
    """Nonempty formal direct sum of atoms."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("empty direct sum")

    @staticmethod
    def of(*atoms: Atom) -> "OperatorExpr":
        return OperatorExpr(tuple(atoms))

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.atoms + other.atoms)

    def matrix_ambient(self) -> int:
        return sum(a.matrix.rows for a in self.atoms if a.kind == "matrix")


def dual_atom(a: Atom) -> Atom:
    if a.kind == "matrix":
        return Atom("matrix", a.matrix.transpose())
    return Atom(_SHIFT_DUALS[a.kind])


def dual_expr(e: OperatorExpr) -> OperatorExpr:
    """Formal adjoint: transposed matrices, shifts swapped with their duals."""
    return OperatorExpr(tuple(dual_atom(a) for a in e.atoms))


@dataclass(frozen=True)
class StructuralProfile:
    """Kernel and range chains and point flags of one operator (or direct
    sum) at one point; the meet and join chains are derived from them."""

    a: EvAffineSeq
    r: EvAffineSeq
    range_closed: BoolSeq
    is_quasinilpotent: bool
    nilpotency_degree: ExtNat
    is_pseudofredholm_point: bool

    def __post_init__(self):
        if self.a.at(0) != ExtNat(0) or self.r.at(0) != ExtNat(0):
            raise ValueError("chains must start at 0 for the identity power")

    @functools.cached_property
    def c(self) -> EvAffineSeq:
        """Meet chain c_n = a_{n+1} - a_n: the operator maps N(S^{n+1})
        onto R(S^n) ∩ N(S) with kernel N(S^n)."""
        return self.a.steps()

    @functools.cached_property
    def b(self) -> EvAffineSeq:
        """Join chain b_n = r_{n+1} - r_n, infinite where r_{n+1} is: with
        finite-dimensional kernels, a finite-dimensional enlargement cannot
        fix infinite codimension."""
        return self.r.steps()


# Identity-on-nothing profile: neutral element for direct sums. Internal only.
ZERO_DIM_PROFILE = StructuralProfile(
    a=ZERO_SEQ,
    r=ZERO_SEQ,
    range_closed=ALWAYS_CLOSED,
    is_quasinilpotent=True,
    nilpotency_degree=ExtNat(0),
    is_pseudofredholm_point=True,
)


def realify(x: ExactMatrix, y: ExactMatrix, t: Fraction) -> ExactMatrix:
    """[[x, -t*y], [t*y, x]]: the rational 2d x 2d matrix of the complex
    d x d matrix x + i*t*y acting on pairs (u, v) ~ u + i*v."""
    d = x.rows
    yden = y.den * t.denominator
    den = math.lcm(x.den, yden)
    fx, fy = den // x.den, den // yden * t.numerator
    top, bottom = [], []
    for i in range(d):
        xr = [v * fx for v in x.num[i * d : (i + 1) * d]]
        yr = [v * fy for v in y.num[i * d : (i + 1) * d]]
        top += xr + [-v for v in yr]
        bottom += yr + xr
    return ExactMatrix(2 * d, 2 * d, tuple(top + bottom), den)


def realified(m: ExactMatrix, re: Fraction, im: Fraction) -> ExactMatrix:
    """The rational matrix S with S ~ m - (re + i*im).

    For im == 0 this is m - re*I over Q. Otherwise the complex operator is
    realified (realify), giving the block matrix
    [[m - re*I, im*I], [-im*I, m - re*I]]: the realification commutes with
    the complex-structure matrix, so every kernel, image, intersection and
    sum it produces carries even rational dimension, and dividing by 2
    (matrix_data_at's scale) recovers the complex dimension exactly. Only
    reports build it at a complex point (structure.matrix_split); the
    ranks come from the d x d matrix q(m) (matrix_data_at).
    """
    s = m.minus_scalar(re)
    if im == 0:
        return s
    return realify(s, ExactMatrix.identity(s.rows), -im)


def real_quadratic(m: ExactMatrix, re: Fraction, im: Fraction) -> ExactMatrix:
    """q(m) = (m - re*I)^2 + im^2*I, where q(x) = (x - lam)(x - conj(lam))
    is the minimal polynomial over Q of lam = re + i*im, im != 0.

    With m - re*I = N/D (one product of integer matrices gives N^2/D^2) and
    im = c/e, q(m) = (e^2 N^2 + c^2 D^2 I) / (e^2 D^2): no Fraction is built.
    """
    s = m.minus_scalar(re)
    sq = s @ s
    e2 = im.denominator * im.denominator
    num = [x * e2 for x in sq.num]
    c2d = im.numerator * im.numerator * sq.den
    for k in range(0, len(num), sq.cols + 1):
        num[k] += c2d
    return ExactMatrix(sq.rows, sq.cols, tuple(num), sq.den * e2)


def matrix_chain_data(s: ExactMatrix) -> tuple[int, ...]:
    """ranks[n] = rank(S^n) for n = 0..nu+1, where nu is the least n with
    rank(S^n) = rank(S^(n+1)); for a square matrix the kernel and image
    chains both freeze exactly at nu. Only the current power is kept."""
    if s.rows != s.cols:
        raise AmbientMismatch("operator matrices must be square")
    power, ranks = s, [s.rows, rank(s)]
    while ranks[-1] != ranks[-2]:
        power = power @ s
        ranks.append(rank(power))
    return tuple(ranks)


def _scaled(v: int, scale: int) -> ExtNat:
    if v % scale:
        raise InternalInvariantError(
            f"realified dimension {v} is not a multiple of {scale}"
        )
    return ExtNat(v // scale)


def matrix_profile(ranks: Sequence[int], scale: int = 1) -> StructuralProfile:
    """Profile of a d x d matrix S from ranks[n] = rank(S^n), n = 0..nu+1,
    the last two equal (matrix_chain_data), so d = ranks[0]; scale divides
    the dimensions of a realified S (matrix_data_at).

    a_n = d - rank(S^n), and r_n = a_n by rank-nullity, so the derived
    meet and join chains agree too: c_n = b_n = a_{n+1} - a_n.
    """
    nu = len(ranks) - 2
    a_vals = [_scaled(ranks[0] - ranks[n], scale) for n in range(nu + 1)]
    a = EvAffineSeq.from_samples(a_vals, nu)
    nilpotent = ranks[nu] == 0
    return StructuralProfile(
        a=a,
        r=a,
        range_closed=ALWAYS_CLOSED,
        is_quasinilpotent=nilpotent,
        nilpotency_degree=ExtNat(nu) if nilpotent else INF,
        is_pseudofredholm_point=True,
    )


INVERTIBLE_PROFILE = StructuralProfile(
    a=ZERO_SEQ,
    r=ZERO_SEQ,
    range_closed=ALWAYS_CLOSED,
    is_quasinilpotent=False,
    nilpotency_degree=INF,
    is_pseudofredholm_point=True,
)

_PLAIN_SHIFTS = ("right_shift", "left_shift")
_INF_TAIL = EvAffineSeq((ExtNat(0),), INF, 0)

# Closed-form tables for the model shifts, keyed by (kind, shift_region).
#
# Plain shifts, by the sign of q2 - 1 with q2 = re^2 + im^2:
#   -1: right shift minus lam is injective with closed range of codimension
#     n at the n-th power; left shift minus lam is surjective with kernel
#     dimension n at the n-th power.
#   0: both are injective with dense, non-closed range at every power >= 1;
#     a dense non-closed operator range has infinite linear codimension
#     (finite codimension would force closedness), and no generalized Kato
#     decomposition exists at these points.
#   1: resolvent point, all chains vanish.
#
# Weighted shifts (weights 1/(k+1)), by whether lam = 0: spectral radius 0
# because the n-th power has norm 1/n!, so any nonzero point is a resolvent
# point. At 0 the forward one is injective and the backward one has kernel
# dimension n at the n-th power; both have dense non-closed ranges at every
# power >= 1, hence infinite range codimension, but being quasi-nilpotent
# they do admit the trivial decomposition, so the point flag stays true.
#
# No shift is nilpotent. Columns: a, r, range_closed, is_quasinilpotent,
# nilpotency_degree, is_pseudofredholm_point.
_ON_CIRCLE = StructuralProfile(ZERO_SEQ, _INF_TAIL, CLOSED_ONLY_AT_ZERO, False, INF, False)
_SHIFT_PROFILES: dict[tuple[str, int | bool], StructuralProfile] = {
    ("right_shift", -1): StructuralProfile(ZERO_SEQ, LINEAR_SEQ, ALWAYS_CLOSED, False, INF, True),
    ("left_shift", -1): StructuralProfile(LINEAR_SEQ, ZERO_SEQ, ALWAYS_CLOSED, False, INF, True),
    ("right_shift", 0): _ON_CIRCLE,
    ("left_shift", 0): _ON_CIRCLE,
    ("right_shift", 1): INVERTIBLE_PROFILE,
    ("left_shift", 1): INVERTIBLE_PROFILE,
    ("qnil_shift", True): StructuralProfile(
        ZERO_SEQ, _INF_TAIL, CLOSED_ONLY_AT_ZERO, True, INF, True
    ),
    ("qnil_shift_dual", True): StructuralProfile(
        LINEAR_SEQ, _INF_TAIL, CLOSED_ONLY_AT_ZERO, True, INF, True
    ),
    ("qnil_shift", False): INVERTIBLE_PROFILE,
    ("qnil_shift_dual", False): INVERTIBLE_PROFILE,
}


def shift_region(kind: str, circle: int, at_zero: bool) -> int | bool:
    """The region of lam on which the shift kind minus lam has one fixed
    profile, its key in _SHIFT_PROFILES: circle, the sign of |lam|^2 - 1,
    for a plain shift; at_zero, whether lam = 0, for a weighted one."""
    return circle if kind in _PLAIN_SHIFTS else at_zero


def atom_region(atom: Atom, lam: Point) -> object:
    """The region of lam on which atom - lam has one fixed profile:
    shift_region for a shift; for a matrix atom None off its eigenvalues
    (the invertible profile) and the point itself at one, so that no two
    eigenvalues share a region. This is the scan key: spectra.scan decides
    it by the same root test (linalg.gaussian_root) on its integer axes,
    with the matrix's polynomial weighted once per scan."""
    if atom.kind == "matrix":
        return lam if atom.matrix.is_eigenvalue(*lam) else None
    re, im = lam
    q2 = re * re + im * im
    return shift_region(atom.kind, (q2 > 1) - (q2 < 1), not q2)


def matrix_data_at(m: ExactMatrix, lam: Point) -> tuple[tuple[int, ...], int]:
    """The ranks of the powers of the shifted block S ~ m - lam
    (matrix_chain_data) and its dimension scale. The first rank decides
    whether lam is an eigenvalue: nu = 0 (rank d) exactly off the spectrum,
    where matrix_profile gives the invertible profile.

    At a real lam, S = m - lam and the scale is 1. At lam = re + i*im with
    im != 0 the ranks come from q(m) (real_quadratic), d x d, not from the
    2d x 2d realified block S. Over C, q(m)^n = (m - lam)^n (m - conj(lam))^n
    and the two generalized eigenspaces meet only in 0, so N(q(m)^n) is
    N((m - lam)^n) plus its conjugate: dim_Q N(q(m)^n) = 2 a_n = dim_Q N(S^n).
    Hence rank(S^n) = d + rank(q(m)^n), with the same nu, and the scale is 2.
    """
    re, im = lam
    if not im:
        return matrix_chain_data(m.minus_scalar(re)), 1
    return tuple([m.rows + r for r in matrix_chain_data(real_quadratic(m, re, im))]), 2


def atom_profile(atom: Atom, lam: Point) -> StructuralProfile:
    """Structural profile of (atom - lam)."""
    if atom.kind != "matrix":
        return _SHIFT_PROFILES[atom.kind, atom_region(atom, lam)]
    return matrix_profile(*matrix_data_at(atom.matrix, lam))


def direct_sum_profile(profiles: Sequence[StructuralProfile]) -> StructuralProfile:
    """Profile of a direct sum: kernel and range chains add pointwise (and
    with them the derived meet and join chains), closedness and the
    decomposition flag are conjunctions, nilpotency degree is the maximum."""
    if not profiles:
        raise ValueError("direct sum of no profiles")
    out = profiles[0]
    for p in profiles[1:]:
        out = StructuralProfile(
            a=out.a.add(p.a),
            r=out.r.add(p.r),
            range_closed=out.range_closed.and_with(p.range_closed),
            is_quasinilpotent=out.is_quasinilpotent and p.is_quasinilpotent,
            nilpotency_degree=max(out.nilpotency_degree, p.nilpotency_degree),
            is_pseudofredholm_point=out.is_pseudofredholm_point
            and p.is_pseudofredholm_point,
        )
    return out


def expr_profile(e: OperatorExpr, lam: Point) -> StructuralProfile:
    return direct_sum_profile([atom_profile(a, lam) for a in e.atoms])


def power_profile(p: StructuralProfile, k: int) -> StructuralProfile:
    """Profile of S^k given the profile of S (chains subsample at step k)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return p
    if p.nilpotency_degree.is_finite:
        deg = ExtNat((p.nilpotency_degree.value + k - 1) // k)
    else:
        deg = INF
    return StructuralProfile(
        a=p.a.subsample(k),
        r=p.r.subsample(k),
        range_closed=p.range_closed.subsample(k),
        is_quasinilpotent=p.is_quasinilpotent,
        nilpotency_degree=deg,
        is_pseudofredholm_point=p.is_pseudofredholm_point,
    )
