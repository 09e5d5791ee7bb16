"""Point classification: 25 boolean regularity flags per (expression, point)
plus the structural summary, and a lattice checker enforcing every
implication and equivalence the flags must satisfy."""
from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InternalInvariantError
from .extvals import BoolSeq, EvAffineSeq, ExtNat, UNDEF_INDEX
from .model import OperatorExpr, Point, StructuralProfile
from .structure import ExprAnalysis, StructuralSummary, analyze_expr

ZERO = ExtNat(0)


@dataclass(frozen=True)
class ClassificationRecord:
    """All 25 flags for one point, together with the structural summary
    they were derived from. FLAG_NAMES lists the flag fields in order."""

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


FLAG_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(ClassificationRecord) if f.name != "summary"
)


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
    idx = s.index
    a1 = full.a.at(1)
    r1 = full.r.at(1)
    closed1 = full.range_closed.at(1)
    # the summary, and with it an.n_profile, is defined exactly where pf is
    pf = full.is_pseudofredholm_point

    f: dict[str, bool] = {}
    f["invertible"] = a1 == ZERO and r1 == ZERO
    f["bounded_below"] = a1 == ZERO and closed1
    f["surjective"] = r1 == ZERO
    f["upper_semi_fredholm"] = closed1 and a1.is_finite
    f["lower_semi_fredholm"] = closed1 and r1.is_finite
    f["fredholm"] = f["upper_semi_fredholm"] and f["lower_semi_fredholm"]
    f["weyl"] = f["fredholm"] and idx.is_zero()
    f["upper_semi_weyl"] = f["upper_semi_fredholm"] and idx.le_zero()
    f["lower_semi_weyl"] = f["lower_semi_fredholm"] and idx.ge_zero()
    f["semi_regular"] = closed1 and s.dis == ZERO
    f["quasi_nilpotent"] = full.is_quasinilpotent
    f["nilpotent"] = full.nilpotency_degree.is_finite
    f["upper_pseudo_semi_b_fredholm"] = pf and s.alpha.is_finite
    f["lower_pseudo_semi_b_fredholm"] = pf and s.beta.is_finite
    f["b_fredholm"] = (
        f["upper_pseudo_semi_b_fredholm"]
        and f["lower_pseudo_semi_b_fredholm"]
        and an.n_profile.nilpotency_degree.is_finite
    )
    f["upper_semi_b_fredholm"] = _exists_closed_pair_with_finite(full.range_closed, full.c)
    f["lower_semi_b_fredholm"] = _exists_closed_pair_with_finite(full.range_closed, full.b)
    f["pseudo_fredholm"] = pf
    f["pseudo_b_fredholm"] = f["upper_pseudo_semi_b_fredholm"] and f["lower_pseudo_semi_b_fredholm"]
    f["upper_pseudo_semi_b_weyl"] = f["upper_pseudo_semi_b_fredholm"] and idx.le_zero()
    f["lower_pseudo_semi_b_weyl"] = f["lower_pseudo_semi_b_fredholm"] and idx.ge_zero()
    f["pseudo_b_weyl"] = f["pseudo_b_fredholm"] and idx.is_zero()
    f["left_gen_drazin"] = pf and s.p == ZERO
    f["right_gen_drazin"] = pf and s.q == ZERO
    f["gen_drazin"] = f["left_gen_drazin"] and f["right_gen_drazin"]
    return ClassificationRecord(**f, summary=s)


# a => b
_IMPLIES: tuple[tuple[str, str], ...] = (
    ("invertible", "bounded_below"),
    ("invertible", "surjective"),
    ("bounded_below", "upper_semi_fredholm"),
    ("bounded_below", "semi_regular"),
    ("bounded_below", "left_gen_drazin"),
    ("surjective", "lower_semi_fredholm"),
    ("surjective", "semi_regular"),
    ("surjective", "right_gen_drazin"),
    ("upper_semi_fredholm", "upper_semi_b_fredholm"),
    ("lower_semi_fredholm", "lower_semi_b_fredholm"),
    ("upper_semi_b_fredholm", "upper_pseudo_semi_b_fredholm"),
    ("lower_semi_b_fredholm", "lower_pseudo_semi_b_fredholm"),
    ("fredholm", "b_fredholm"),
    ("b_fredholm", "pseudo_b_fredholm"),
    ("b_fredholm", "upper_semi_b_fredholm"),
    ("b_fredholm", "lower_semi_b_fredholm"),
    ("semi_regular", "pseudo_fredholm"),
    ("nilpotent", "quasi_nilpotent"),
    ("nilpotent", "b_fredholm"),
    ("quasi_nilpotent", "pseudo_b_fredholm"),
    ("quasi_nilpotent", "gen_drazin"),
    ("upper_pseudo_semi_b_fredholm", "pseudo_fredholm"),
    ("lower_pseudo_semi_b_fredholm", "pseudo_fredholm"),
)

# a <=> all of bs, and the named ExtIndex test of the index when there is one
_EQUIVALENT: tuple[tuple[str, tuple[str, ...], str | None], ...] = (
    ("invertible", ("bounded_below", "surjective"), None),
    ("fredholm", ("upper_semi_fredholm", "lower_semi_fredholm"), None),
    ("weyl", ("fredholm",), "is_zero"),
    ("upper_semi_weyl", ("upper_semi_fredholm",), "le_zero"),
    ("lower_semi_weyl", ("lower_semi_fredholm",), "ge_zero"),
    ("weyl", ("upper_semi_weyl", "lower_semi_weyl"), None),
    ("pseudo_b_fredholm", ("upper_pseudo_semi_b_fredholm", "lower_pseudo_semi_b_fredholm"), None),
    ("pseudo_b_weyl", ("upper_pseudo_semi_b_weyl", "lower_pseudo_semi_b_weyl"), None),
    ("upper_pseudo_semi_b_weyl", ("upper_pseudo_semi_b_fredholm",), "le_zero"),
    ("lower_pseudo_semi_b_weyl", ("lower_pseudo_semi_b_fredholm",), "ge_zero"),
    ("pseudo_b_weyl", ("pseudo_b_fredholm",), "is_zero"),
    ("gen_drazin", ("left_gen_drazin", "right_gen_drazin"), None),
)

# the flags a point without a decomposition cannot carry, besides those
# whose "X => pseudo_fredholm" row in _IMPLIES already reports them
_NEED_PSEUDO_FREDHOLM = (
    "pseudo_b_fredholm",
    "left_gen_drazin",
    "right_gen_drazin",
    "gen_drazin",
)


def check_lattice(rec: ClassificationRecord) -> list[str]:
    """Return every violated implication or equivalence, as readable
    strings; an empty list means the record is consistent."""
    f = rec.flags()
    s = rec.summary
    idx = s.index
    out = [f"{a} => {b}" for a, b in _IMPLIES if f[a] and not f[b]]
    for a, bs, test in _EQUIVALENT:
        if f[a] != (all(f[b] for b in bs) and (test is None or getattr(idx, test)())):
            rule = " and ".join(bs) + (f" and index.{test}()" if test else "")
            out.append(f"{a} <=> {rule}")
    if f["quasi_nilpotent"] and not idx.is_zero():
        out.append("quasi_nilpotent => index.is_zero()")
    some_pseudo_semi_b = f["upper_pseudo_semi_b_fredholm"] or f["lower_pseudo_semi_b_fredholm"]
    if f["pseudo_b_fredholm"] != (some_pseudo_semi_b and idx.is_int):
        out.append("pseudo_b_fredholm <=> some pseudo_semi_b flag and index.is_int")
    # the summary must match the flags derived from it
    if not f["pseudo_fredholm"]:
        if s.alpha is not None or idx != UNDEF_INDEX:
            out.append("non pseudo_fredholm point must have an undefined summary")
        out += [f"{n} requires pseudo_fredholm" for n in _NEED_PSEUDO_FREDHOLM if f[n]]
    elif s.alpha is None:
        out.append("pseudo_fredholm point must carry a summary")
    else:
        for name, holds, value in (
            ("upper_pseudo_semi_b_fredholm", s.alpha.is_finite, "finite alpha"),
            ("lower_pseudo_semi_b_fredholm", s.beta.is_finite, "finite beta"),
            ("left_gen_drazin", s.p == ZERO, "p == 0"),
            ("right_gen_drazin", s.q == ZERO, "q == 0"),
        ):
            if f[name] != holds:
                out.append(f"{name} <=> {value}")
    return out
