"""Point classification: 25 boolean regularity flags per (expression, point)
plus the structural summary, and a lattice checker listing every
implication and equivalence a record breaks. Classification does not run
the checker; the tests run it on the records of every shape the atoms
reach, as a cross-check of how the flags are derived."""
from __future__ import annotations

from dataclasses import dataclass, fields

from .extvals import EvAffineSeq, UNDEF_INDEX, ZERO
from .model import OperatorExpr, Point, StructuralProfile
from .structure import ExprAnalysis, StructuralSummary, analyze_expr


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


def _has_finite_value(chain: EvAffineSeq) -> bool:
    return chain.tail_base.is_finite or any(v.is_finite for v in chain.prefix)


def classify(e: OperatorExpr, lam: Point, power: int = 1) -> ClassificationRecord:
    return classify_analysis(analyze_expr(e, lam, power))


def classify_analysis(an: ExprAnalysis) -> ClassificationRecord:
    """The flags of an analysis, each derived from its profile and summary."""
    full: StructuralProfile = an.full
    s = an.summary
    idx = s.index
    a1 = full.a.at(1).value
    r1 = full.r.at(1).value
    closed1 = full.range_closed
    # the summary is defined exactly where pf is
    pf = full.is_pseudofredholm_point
    upper_sf = closed1 and a1 is not None
    lower_sf = closed1 and r1 is not None
    fredholm = upper_sf and lower_sf
    upper_psbf = pf and s.alpha.is_finite
    lower_psbf = pf and s.beta.is_finite
    psbf = upper_psbf and lower_psbf
    left_gd = pf and s.p.value == 0
    right_gd = pf and s.q.value == 0
    return ClassificationRecord(
        a1 == 0 and r1 == 0,  # invertible
        a1 == 0 and closed1,  # bounded_below
        r1 == 0,  # surjective
        upper_sf,
        lower_sf,
        fredholm,
        fredholm and idx.is_zero(),  # weyl
        upper_sf and idx.le_zero(),  # upper_semi_weyl
        lower_sf and idx.ge_zero(),  # lower_semi_weyl
        closed1 and s.dis.value == 0,  # semi_regular
        full.is_quasinilpotent,
        full.nilpotency_degree.is_finite,  # nilpotent
        # b_fredholm: the quasi-nilpotent side of (e - lam)^power is
        # nilpotent exactly when every atom's piece is: a direct sum and a
        # power keep finite degrees
        psbf
        and all(
            p.n_profile.nilpotency_degree.is_finite
            for p in an.parts
            if p.n_profile is not None
        ),
        # upper (lower) semi-B-Fredholm: some n with R(S^n) and R(S^(n+1))
        # closed and c_n (b_n) finite. R(S^n) is closed at every n >= 1 or
        # only at n = 0 (StructuralProfile), so that is the bit and a finite
        # value at any n.
        closed1 and _has_finite_value(full.c),
        closed1 and _has_finite_value(full.b),
        pf,  # pseudo_fredholm
        upper_psbf,
        lower_psbf,
        psbf,  # pseudo_b_fredholm
        upper_psbf and idx.le_zero(),  # upper_pseudo_semi_b_weyl
        lower_psbf and idx.ge_zero(),  # lower_pseudo_semi_b_weyl
        psbf and idx.is_zero(),  # pseudo_b_weyl
        left_gd,
        right_gd,
        left_gd and right_gd,  # gen_drazin
        s,
    )


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
