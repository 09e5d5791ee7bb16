"""Point classification: 25 boolean regularity flags per (expression, point)
plus the structural summary, and a lattice checker enforcing every
implication and equivalence the flags must satisfy."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .extvals import BoolSeq, EvAffineSeq, ExtIndex, ExtNat, UNDEF_INDEX
from .model import OperatorExpr, Point, StructuralProfile
from .structure import ExprAnalysis, StructuralSummary, analyze_expr

FLAG_NAMES: tuple[str, ...] = (
    "invertible",
    "bounded_below",
    "surjective",
    "upper_semi_fredholm",
    "lower_semi_fredholm",
    "fredholm",
    "weyl",
    "upper_semi_weyl",
    "lower_semi_weyl",
    "semi_regular",
    "quasi_nilpotent",
    "nilpotent",
    "b_fredholm",
    "upper_semi_b_fredholm",
    "lower_semi_b_fredholm",
    "pseudo_fredholm",
    "upper_pseudo_semi_b_fredholm",
    "lower_pseudo_semi_b_fredholm",
    "pseudo_b_fredholm",
    "upper_pseudo_semi_b_weyl",
    "lower_pseudo_semi_b_weyl",
    "pseudo_b_weyl",
    "left_gen_drazin",
    "right_gen_drazin",
    "gen_drazin",
)

ZERO = ExtNat(0)


@dataclass(frozen=True)
class ClassificationRecord:
    """All 25 flags for one point, together with the structural summary
    they were derived from. Field order matches FLAG_NAMES."""

    invertible: bool
    bounded_below: bool
    surjective: bool
    upper_semi_fredholm: bool
    lower_semi_fredholm: bool
    fredholm: bool
    weyl: bool
    upper_semi_weyl: bool
    lower_semi_weyl: bool
    semi_regular: bool
    quasi_nilpotent: bool
    nilpotent: bool
    b_fredholm: bool
    upper_semi_b_fredholm: bool
    lower_semi_b_fredholm: bool
    pseudo_fredholm: bool
    upper_pseudo_semi_b_fredholm: bool
    lower_pseudo_semi_b_fredholm: bool
    pseudo_b_fredholm: bool
    upper_pseudo_semi_b_weyl: bool
    lower_pseudo_semi_b_weyl: bool
    pseudo_b_weyl: bool
    left_gen_drazin: bool
    right_gen_drazin: bool
    gen_drazin: bool
    summary: StructuralSummary

    def flag(self, name: str) -> bool:
        if name not in FLAG_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}


def _exists_closed_pair_with_finite(closed: BoolSeq, chain: EvAffineSeq) -> bool:
    """True when some n has range of the n-th and (n+1)-th powers closed
    and chain value at n finite. Both sequences are eventually constant, so
    checking up to one step past both tails decides it."""
    horizon = max(len(closed.prefix), chain.tail_start) + 1
    for n in range(horizon + 1):
        if closed.at(n) and closed.at(n + 1) and chain.at(n).is_finite:
            return True
    return False


def classify(e: OperatorExpr, lam: Point, power: int = 1) -> ClassificationRecord:
    return classify_analysis(analyze_expr(e, lam, power))


def classify_analysis(an: ExprAnalysis) -> ClassificationRecord:
    """The flags of an analysis, checked against the implication lattice."""
    rec = _record_from_analysis(an)
    problems = check_lattice(rec)
    if problems:
        raise InternalInvariantError(
            "classification lattice violated: " + "; ".join(problems)
        )
    return rec


def _record_from_analysis(an: ExprAnalysis) -> ClassificationRecord:
    full: StructuralProfile = an.full
    s = an.summary
    a1 = full.a.at(1)
    r1 = full.r.at(1)
    closed1 = full.range_closed.at(1)

    invertible = a1 == ZERO and r1 == ZERO
    bounded_below = a1 == ZERO and closed1
    surjective = r1 == ZERO
    usf = closed1 and a1.is_finite
    lsf = closed1 and r1.is_finite
    fredholm = usf and lsf
    idx = s.index
    weyl = fredholm and idx.is_zero()
    upper_weyl = usf and idx.le_zero()
    lower_weyl = lsf and idx.ge_zero()
    semi_regular = closed1 and s.dis == ZERO
    qn = full.is_quasinilpotent
    nilpotent = full.nilpotency_degree.is_finite
    pf = full.is_pseudofredholm_point
    usbf = _exists_closed_pair_with_finite(full.range_closed, full.c)
    lsbf = _exists_closed_pair_with_finite(full.range_closed, full.b)
    b_fredholm = pf and an.n_profile is not None and an.n_profile.nilpotency_degree.is_finite and s.alpha is not None and s.alpha.is_finite and s.beta.is_finite
    upbf = pf and s.alpha is not None and s.alpha.is_finite
    lpbf = pf and s.beta is not None and s.beta.is_finite
    pbf = upbf and lpbf
    upbw = upbf and idx.le_zero()
    lpbw = lpbf and idx.ge_zero()
    pbw = pbf and idx.is_zero()
    left_gd = pf and s.p == ZERO
    right_gd = pf and s.q == ZERO
    gen_d = left_gd and right_gd

    return ClassificationRecord(
        invertible=invertible,
        bounded_below=bounded_below,
        surjective=surjective,
        upper_semi_fredholm=usf,
        lower_semi_fredholm=lsf,
        fredholm=fredholm,
        weyl=weyl,
        upper_semi_weyl=upper_weyl,
        lower_semi_weyl=lower_weyl,
        semi_regular=semi_regular,
        quasi_nilpotent=qn,
        nilpotent=nilpotent,
        b_fredholm=b_fredholm,
        upper_semi_b_fredholm=usbf,
        lower_semi_b_fredholm=lsbf,
        pseudo_fredholm=pf,
        upper_pseudo_semi_b_fredholm=upbf,
        lower_pseudo_semi_b_fredholm=lpbf,
        pseudo_b_fredholm=pbf,
        upper_pseudo_semi_b_weyl=upbw,
        lower_pseudo_semi_b_weyl=lpbw,
        pseudo_b_weyl=pbw,
        left_gen_drazin=left_gd,
        right_gen_drazin=right_gd,
        gen_drazin=gen_d,
        summary=s,
    )


def check_lattice(rec: ClassificationRecord) -> list[str]:
    """Return every violated implication or equivalence, as readable
    strings; an empty list means the record is consistent."""
    out: list[str] = []
    f = rec.flag
    idx = rec.summary.index

    def implies(name: str, a: bool, b: bool):
        if a and not b:
            out.append(name)

    def equiv(name: str, a: bool, b: bool):
        if a != b:
            out.append(name)

    implies("invertible => bounded_below", f("invertible"), f("bounded_below"))
    implies("invertible => surjective", f("invertible"), f("surjective"))
    equiv(
        "invertible <=> bounded_below and surjective",
        f("invertible"),
        f("bounded_below") and f("surjective"),
    )
    implies("bounded_below => upper_semi_fredholm", f("bounded_below"), f("upper_semi_fredholm"))
    implies("bounded_below => semi_regular", f("bounded_below"), f("semi_regular"))
    implies("bounded_below => left_gen_drazin", f("bounded_below"), f("left_gen_drazin"))
    implies("surjective => lower_semi_fredholm", f("surjective"), f("lower_semi_fredholm"))
    implies("surjective => semi_regular", f("surjective"), f("semi_regular"))
    implies("surjective => right_gen_drazin", f("surjective"), f("right_gen_drazin"))
    equiv(
        "fredholm <=> upper and lower semi_fredholm",
        f("fredholm"),
        f("upper_semi_fredholm") and f("lower_semi_fredholm"),
    )
    equiv(
        "weyl <=> fredholm with index 0",
        f("weyl"),
        f("fredholm") and idx.is_zero(),
    )
    equiv(
        "upper_semi_weyl <=> upper_semi_fredholm with index <= 0",
        f("upper_semi_weyl"),
        f("upper_semi_fredholm") and idx.le_zero(),
    )
    equiv(
        "lower_semi_weyl <=> lower_semi_fredholm with index >= 0",
        f("lower_semi_weyl"),
        f("lower_semi_fredholm") and idx.ge_zero(),
    )
    equiv(
        "weyl <=> upper and lower semi_weyl",
        f("weyl"),
        f("upper_semi_weyl") and f("lower_semi_weyl"),
    )
    implies(
        "upper_semi_fredholm => upper_semi_b_fredholm",
        f("upper_semi_fredholm"),
        f("upper_semi_b_fredholm"),
    )
    implies(
        "lower_semi_fredholm => lower_semi_b_fredholm",
        f("lower_semi_fredholm"),
        f("lower_semi_b_fredholm"),
    )
    implies(
        "upper_semi_b_fredholm => upper_pseudo_semi_b_fredholm",
        f("upper_semi_b_fredholm"),
        f("upper_pseudo_semi_b_fredholm"),
    )
    implies(
        "lower_semi_b_fredholm => lower_pseudo_semi_b_fredholm",
        f("lower_semi_b_fredholm"),
        f("lower_pseudo_semi_b_fredholm"),
    )
    implies("fredholm => b_fredholm", f("fredholm"), f("b_fredholm"))
    implies("b_fredholm => pseudo_b_fredholm", f("b_fredholm"), f("pseudo_b_fredholm"))
    implies(
        "b_fredholm => upper_semi_b_fredholm",
        f("b_fredholm"),
        f("upper_semi_b_fredholm"),
    )
    implies(
        "b_fredholm => lower_semi_b_fredholm",
        f("b_fredholm"),
        f("lower_semi_b_fredholm"),
    )
    implies("semi_regular => pseudo_fredholm", f("semi_regular"), f("pseudo_fredholm"))
    implies("nilpotent => quasi_nilpotent", f("nilpotent"), f("quasi_nilpotent"))
    implies("nilpotent => b_fredholm", f("nilpotent"), f("b_fredholm"))
    implies(
        "quasi_nilpotent => pseudo_b_fredholm",
        f("quasi_nilpotent"),
        f("pseudo_b_fredholm"),
    )
    implies("quasi_nilpotent => gen_drazin", f("quasi_nilpotent"), f("gen_drazin"))
    if f("quasi_nilpotent") and not idx.is_zero():
        out.append("quasi_nilpotent => index 0")
    equiv(
        "pseudo_b_fredholm <=> upper and lower pseudo_semi_b_fredholm",
        f("pseudo_b_fredholm"),
        f("upper_pseudo_semi_b_fredholm") and f("lower_pseudo_semi_b_fredholm"),
    )
    equiv(
        "pseudo_b_weyl <=> upper and lower pseudo_semi_b_weyl",
        f("pseudo_b_weyl"),
        f("upper_pseudo_semi_b_weyl") and f("lower_pseudo_semi_b_weyl"),
    )
    equiv(
        "upper_pseudo_semi_b_weyl <=> upper_pseudo_semi_b_fredholm with index <= 0",
        f("upper_pseudo_semi_b_weyl"),
        f("upper_pseudo_semi_b_fredholm") and idx.le_zero(),
    )
    equiv(
        "lower_pseudo_semi_b_weyl <=> lower_pseudo_semi_b_fredholm with index >= 0",
        f("lower_pseudo_semi_b_weyl"),
        f("lower_pseudo_semi_b_fredholm") and idx.ge_zero(),
    )
    equiv(
        "pseudo_b_weyl <=> pseudo_b_fredholm with index 0",
        f("pseudo_b_weyl"),
        f("pseudo_b_fredholm") and idx.is_zero(),
    )
    implies(
        "upper_pseudo_semi_b_fredholm => pseudo_fredholm",
        f("upper_pseudo_semi_b_fredholm"),
        f("pseudo_fredholm"),
    )
    implies(
        "lower_pseudo_semi_b_fredholm => pseudo_fredholm",
        f("lower_pseudo_semi_b_fredholm"),
        f("pseudo_fredholm"),
    )
    equiv(
        "pseudo_b_fredholm <=> some pseudo_semi_b flag with integer index",
        f("pseudo_b_fredholm"),
        (f("upper_pseudo_semi_b_fredholm") or f("lower_pseudo_semi_b_fredholm"))
        and idx.is_int,
    )
    equiv(
        "gen_drazin <=> left and right gen_drazin",
        f("gen_drazin"),
        f("left_gen_drazin") and f("right_gen_drazin"),
    )
    # summary consistency with the flags derived from it
    s = rec.summary
    if f("pseudo_fredholm"):
        if s.alpha is None:
            out.append("pseudo_fredholm point must carry a summary")
        else:
            equiv(
                "upper_pseudo_semi_b_fredholm <=> finite alpha",
                f("upper_pseudo_semi_b_fredholm"),
                s.alpha.is_finite,
            )
            equiv(
                "lower_pseudo_semi_b_fredholm <=> finite beta",
                f("lower_pseudo_semi_b_fredholm"),
                s.beta.is_finite,
            )
            equiv("left_gen_drazin <=> p == 0", f("left_gen_drazin"), s.p == ZERO)
            equiv("right_gen_drazin <=> q == 0", f("right_gen_drazin"), s.q == ZERO)
    else:
        if s.alpha is not None or idx != UNDEF_INDEX:
            out.append("non pseudo_fredholm point must have an undefined summary")
        for name in (
            "semi_regular",
            "upper_pseudo_semi_b_fredholm",
            "lower_pseudo_semi_b_fredholm",
            "pseudo_b_fredholm",
            "left_gen_drazin",
            "right_gen_drazin",
            "gen_drazin",
        ):
            if f(name):
                out.append(f"{name} requires pseudo_fredholm")
    return out
