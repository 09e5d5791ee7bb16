"""Point classification: 25 boolean regularity flags per (expression, point)
plus the structural summary, and a lattice checker enforcing every
implication and equivalence the flags must satisfy."""
from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import compress
from operator import attrgetter

from .errors import InternalInvariantError
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
    closed1 = full.range_closed
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
    # semi-B-Fredholm: some n with R(S^n) and R(S^(n+1)) closed and c_n (b_n)
    # finite. R(S^n) is closed at every n >= 1 or only at n = 0
    # (StructuralProfile), so that is the bit and a finite value at any n.
    f["upper_semi_b_fredholm"] = closed1 and _has_finite_value(full.c)
    f["lower_semi_b_fredholm"] = closed1 and _has_finite_value(full.b)
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


# the facts of a record's summary that the rules read, beside its flags, in
# the order check_lattice lists their values
_FACTS = (
    "index.is_zero()", "index.le_zero()", "index.ge_zero()", "index.is_int", "defined index",
    "summary", "finite alpha", "finite beta", "p == 0", "q == 0",
)
_BIT = {name: 1 << i for i, name in enumerate(FLAG_NAMES + _FACTS)}
_BITS = tuple(_BIT.values())
_flag_values = attrgetter(*FLAG_NAMES)


def _compile_rules() -> tuple[tuple[int, int, str], ...]:
    """Every rule as the clauses of its violation, each (mask, value,
    message): a record breaks the rule where its bits b match a clause,
    b & mask == value. Clauses follow the order of check_lattice's list."""
    out: list[tuple[int, int, str]] = []

    def rule(message: str, *clauses: tuple[tuple[str, ...], tuple[str, ...]]):
        # each clause: the facts that hold and the facts that fail
        for true, false in clauses:
            value = sum(_BIT[n] for n in true)
            out.append((value | sum(_BIT[n] for n in false), value, message))

    def equivalence(message: str, a: str, rhs: tuple[str, ...], where: tuple[str, ...] = ()):
        # a <=> all of rhs, wherever all of where hold
        rule(message, *[(where + (a,), (b,)) for b in rhs], (where + rhs, (a,)))

    for a, b in _IMPLIES:
        rule(f"{a} => {b}", ((a,), (b,)))
    for a, bs, test in _EQUIVALENT:
        rhs = bs + ((f"index.{test}()",) if test else ())
        equivalence(f"{a} <=> {' and '.join(rhs)}", a, rhs)
    rule("quasi_nilpotent => index.is_zero()", (("quasi_nilpotent",), ("index.is_zero()",)))
    upper, lower = "upper_pseudo_semi_b_fredholm", "lower_pseudo_semi_b_fredholm"
    pbf, pf, is_int = "pseudo_b_fredholm", "pseudo_fredholm", "index.is_int"
    rule(
        "pseudo_b_fredholm <=> some pseudo_semi_b flag and index.is_int",
        ((pbf,), (upper, lower)),
        ((pbf,), (is_int,)),
        ((upper, is_int), (pbf,)),
        ((lower, is_int), (pbf,)),
    )
    # the summary must match the flags derived from it
    rule(
        "non pseudo_fredholm point must have an undefined summary",
        (("summary",), (pf,)),
        (("defined index",), (pf,)),
    )
    for n in _NEED_PSEUDO_FREDHOLM:
        rule(f"{n} requires pseudo_fredholm", ((n,), (pf,)))
    rule("pseudo_fredholm point must carry a summary", ((pf,), ("summary",)))
    for name, fact in (
        (upper, "finite alpha"),
        (lower, "finite beta"),
        ("left_gen_drazin", "p == 0"),
        ("right_gen_drazin", "q == 0"),
    ):
        equivalence(f"{name} <=> {fact}", name, (fact,), where=(pf, "summary"))
    return tuple(out)


_CLAUSES = _compile_rules()


def check_lattice(rec: ClassificationRecord) -> list[str]:
    """Return every violated implication or equivalence, as readable
    strings; an empty list means the record is consistent. The record's
    flags and summary facts become the bits of one int, and each rule,
    compiled at import (_compile_rules), is a few mask tests on it."""
    s = rec.summary
    idx = s.index
    vals = _flag_values(rec)
    vals += (idx.is_zero(), idx.le_zero(), idx.ge_zero(), idx.is_int, idx != UNDEF_INDEX)
    if s.alpha is not None:
        vals += (True, s.alpha.is_finite, s.beta.is_finite, s.p == ZERO, s.q == ZERO)
    bits = sum(compress(_BITS, vals))
    out = [msg for mask, value, msg in _CLAUSES if bits & mask == value]
    # a rule whose violation matches several clauses is reported once
    return list(dict.fromkeys(out)) if out else out
