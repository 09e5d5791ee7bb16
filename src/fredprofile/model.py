"""Operator model: atoms, direct-sum expressions, and structural profiles.

An operator is a finite direct sum of atoms: exact rational square matrices
and four fixed model shifts on a sequence space. For an expression e and an
exact rational point lam = (re, im), the structural profile of e - lam
records, as symbolic chains over the power n:

    a_n = dim N((e-lam)^n)                    kernel chain
    r_n = codim R((e-lam)^n)                  range codimension chain
    c_n = dim(R((e-lam)^n) ∩ N(e-lam))        meet chain
    b_n = codim(R(e-lam) + N((e-lam)^n))      join codimension chain

together with one bit for range closedness (R((e-lam)^n) closed at every
n >= 1), quasi-nilpotence, nilpotency degree, and whether the point
admits a generalized Kato decomposition. A
profile stores a and r only: c and b are their step sizes, derived once on
access. These are dimensions over C. Matrix kernel chains follow from the
exact ranks over C of the powers of m - lam, the only thing kept
(matrix_chain_data, then matrix_profile): the first rank alone says
whether lam is an eigenvalue, so analysis at one point builds no
characteristic polynomial. A scan knows each eigenvalue's algebraic
multiplicity from the polynomial, and with it where the chain ends, so it
computes only the ranks that end leaves open. Shift chains come from
closed-form tables, one profile per region of the plane, whose
justification is noted inline. A shift's region (shift_region) is the
sign of |lam|^2 - 1 or whether lam = 0, which a grid scan finds by
integer comparisons.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import AmbientMismatch, InternalInvariantError
from .extvals import EvAffineSeq, ExtNat, INF, LINEAR_SEQ, ZERO, ZERO_SEQ
from .linalg import ExactMatrix, exact_rational, rank

_SHIFT_DUALS = {
    "right_shift": "left_shift",
    "left_shift": "right_shift",
    "qnil_shift": "qnil_shift_dual",
    "qnil_shift_dual": "qnil_shift",
}

ATOM_KINDS = ("matrix", *_SHIFT_DUALS)

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
    sum) at one point; the meet and join chains are derived from them.

    range_closed says that R(S^n) is closed for every n >= 1 (R(S^0) always
    is). One bit suffices: every profile built here has R(S^n) closed at
    all n >= 1 or at none. Each atom table row does: matrices, plain shifts
    off the unit circle and weighted shifts away from 0 at all n, plain
    shifts on the circle and weighted shifts at 0 at none. The range of a
    direct sum's power is the sum of its summands' ranges, closed exactly
    when each is. A power S^k keeps the bit, as (S^k)^n = S^(kn)."""

    a: EvAffineSeq
    r: EvAffineSeq
    range_closed: bool
    is_quasinilpotent: bool
    nilpotency_degree: ExtNat
    is_pseudofredholm_point: bool

    def __post_init__(self):
        if self.a.at(0) != ZERO or self.r.at(0) != ZERO:
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
    sum it produces carries even rational dimension, twice the complex
    one. Only reports build it at a complex point (structure.matrix_split),
    to print it and to restrict it to the split's bases; the ranks, the
    bases and the Drazin inverse come from the d x d matrix q(m)
    (real_quadratic).
    """
    s = m.minus_scalar(re)
    if im == 0:
        return s
    return realify(s, ExactMatrix.identity(s.rows), -im)


def real_quadratic(m: ExactMatrix, re: Fraction, im: Fraction) -> ExactMatrix:
    """q(m) = (m - re*I)^2 + im^2*I, where q(x) = (x - lam)(x - conj(lam))
    is the minimal polynomial over Q of lam = re + i*im, im != 0. At a
    complex point the chain's ranks are those of its powers
    (matrix_chain_data), and the Fitting split of the realified block is
    read off its own real split at the same nu (structure.matrix_split).

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


def matrix_chain_data(
    m: ExactMatrix, lam: Point = (Fraction(0), Fraction(0)), mult: int | None = None
) -> tuple[int, ...]:
    """ranks[n] = the rank over C of (m - lam)^n, n = 0..nu+1, nu the least
    n with ranks[n] = ranks[n+1]; for a square matrix the kernel and image
    chains both freeze exactly at nu. The first rank decides whether lam is
    an eigenvalue: nu = 0 (rank d) exactly off the spectrum, where
    matrix_profile gives the invertible profile.

    At a real lam they are the ranks of the powers of S = m - lam. At
    lam = re + i*im with im != 0 they come from q(m) (real_quadratic),
    d x d. Over C, q(m)^n = (m - lam)^n (m - conj(lam))^n and the two
    generalized eigenspaces meet only in 0, so N(q(m)^n) is N((m - lam)^n)
    plus its conjugate: dim_Q N(q(m)^n) = 2 a_n. Hence the rank over C of
    (m - lam)^n is (d + rank(q(m)^n)) / 2, with the same nu; an odd
    d + rank(q(m)^n) breaks that identity and is an internal error.

    mult, when given, is the algebraic multiplicity of lam (0 off the
    spectrum), so the chain ends at rank d - mult, dim N(S^nu) being mult.
    The ranks fall strictly until nu and never below d - mult, so a rank
    of d - mult ends the chain, and a rank of d - mult + 1 forces the next
    to be d - mult: such ranks are written down, not computed, and S or
    q(m) is built only for a rank that is computed; at a simple
    eigenvalue, ranks (d, d - 1, d - 1), none is. A computed rank below
    d - mult, or equal to the one before it above d - mult, contradicts
    mult and is an internal error. Only the current power is kept.
    """
    if m.rows != m.cols:
        raise AmbientMismatch("operator matrices must be square")
    (re, im), d = lam, m.rows
    end = None if mult is None else d - mult
    ranks, s = [d], None
    while len(ranks) < 2 or ranks[-1] != ranks[-2]:
        r = ranks[-1]
        if end is not None and r - end <= 1:
            ranks.append(end)
            continue
        if s is None:
            s = power = real_quadratic(m, re, im) if im else m.minus_scalar(re)
        else:
            power = power @ s
        k = rank(power)
        if im:
            if (d + k) % 2:
                raise InternalInvariantError(
                    f"q(m) of a {d} x {d} matrix has rank {k}, not of d's parity"
                )
            k = (d + k) // 2
        if end is not None and (k < end or k == r):
            raise InternalInvariantError(
                f"rank {k} after {ranks} contradicts multiplicity {mult} of a {d} x {d} matrix"
            )
        ranks.append(k)
    return tuple(ranks)


INVERTIBLE_PROFILE = StructuralProfile(
    a=ZERO_SEQ,
    r=ZERO_SEQ,
    range_closed=True,
    is_quasinilpotent=False,
    nilpotency_degree=INF,
    is_pseudofredholm_point=True,
)


def matrix_profile(ranks: Sequence[int]) -> StructuralProfile:
    """Profile of a d x d matrix S from ranks[n] = rank(S^n), n = 0..nu+1,
    the last two equal (matrix_chain_data), so d = ranks[0].

    a_n = d - rank(S^n), and r_n = a_n by rank-nullity, so the derived
    meet and join chains agree too: c_n = b_n = a_{n+1} - a_n. At nu = 0
    (ranks (d, d)) this is the shared INVERTIBLE_PROFILE.
    """
    nu = len(ranks) - 2
    if nu == 0:
        return INVERTIBLE_PROFILE
    a_vals = [ExtNat(ranks[0] - ranks[n]) for n in range(nu + 1)]
    a = EvAffineSeq.from_samples(a_vals, nu)
    nilpotent = ranks[nu] == 0
    return StructuralProfile(
        a=a,
        r=a,
        range_closed=True,
        is_quasinilpotent=nilpotent,
        nilpotency_degree=ExtNat(nu) if nilpotent else INF,
        is_pseudofredholm_point=True,
    )


_PLAIN_SHIFTS = ("right_shift", "left_shift")
_INF_TAIL = EvAffineSeq((ZERO,), INF, 0)

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
_ON_CIRCLE = StructuralProfile(ZERO_SEQ, _INF_TAIL, False, False, INF, False)
SHIFT_PROFILES: dict[tuple[str, int | bool], StructuralProfile] = {
    ("right_shift", -1): StructuralProfile(ZERO_SEQ, LINEAR_SEQ, True, False, INF, True),
    ("left_shift", -1): StructuralProfile(LINEAR_SEQ, ZERO_SEQ, True, False, INF, True),
    ("right_shift", 0): _ON_CIRCLE,
    ("left_shift", 0): _ON_CIRCLE,
    ("right_shift", 1): INVERTIBLE_PROFILE,
    ("left_shift", 1): INVERTIBLE_PROFILE,
    ("qnil_shift", True): StructuralProfile(ZERO_SEQ, _INF_TAIL, False, True, INF, True),
    ("qnil_shift_dual", True): StructuralProfile(LINEAR_SEQ, _INF_TAIL, False, True, INF, True),
    ("qnil_shift", False): INVERTIBLE_PROFILE,
    ("qnil_shift_dual", False): INVERTIBLE_PROFILE,
}


def shift_region(kind: str, circle: int, at_zero: bool) -> int | bool:
    """The region of lam on which the shift kind minus lam has one fixed
    profile, its key in SHIFT_PROFILES: circle, the sign of |lam|^2 - 1,
    for a plain shift; at_zero, whether lam = 0, for a weighted one."""
    return circle if kind in _PLAIN_SHIFTS else at_zero


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
            range_closed=out.range_closed and p.range_closed,
            is_quasinilpotent=out.is_quasinilpotent and p.is_quasinilpotent,
            nilpotency_degree=max(out.nilpotency_degree, p.nilpotency_degree),
            is_pseudofredholm_point=out.is_pseudofredholm_point
            and p.is_pseudofredholm_point,
        )
    return out


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
        range_closed=p.range_closed,
        is_quasinilpotent=p.is_quasinilpotent,
        nilpotency_degree=deg,
        is_pseudofredholm_point=p.is_pseudofredholm_point,
    )
