"""Randomized and catalog-driven verification suites behind the `verify`
CLI command. Each suite checks a family of exact properties and reports
per-property check counts; any violation is reported with the smallest
failing case. Output is deterministic for a fixed seed.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .catalog import CATALOG, J2
from .docio import matrix_rows
from .extvals import EvAffineSeq, ExtNat
from .linalg import (
    ExactMatrix,
    image_basis,
    inverse,
    kernel_basis,
    rank,
    restrict,
    subspace_intersection,
    subspace_sum,
)
from .model import (
    Atom,
    MatrixChainData,
    OperatorExpr,
    dual_expr,
    matrix_chain_data,
    matrix_profile,
    point,
)
from .spectra import (
    GridSpec,
    component_index_report,
    scan,
    scan_to_csv,
    spectrum_membership,
)
from .structure import (
    alpha_beta_core_oracle,
    analyze_expr,
    index_with_nilpotent_regrouped,
    matrix_split,
    split_drazin,
)

SUITE_NAMES: tuple[str, ...] = (
    "chains",
    "gkd",
    "index-laws",
    "duality",
    "punctured",
    "spectra",
)

_JORDAN_EIGENVALUES = [
    Fraction(0),
    Fraction(0),
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
]


def _random_invertible(rng: Random, d: int) -> ExactMatrix:
    while True:
        m = ExactMatrix(d, d, tuple(rng.randint(-2, 2) for _ in range(d * d)))
        if rank(m) == d:
            return m


def random_matrix(rng: Random) -> ExactMatrix:
    """Random square rational matrix, dimension 2..6. Thirty percent of
    draws are similar to a random Jordan-block matrix so that degenerate
    kernel chains appear often; the rest have independent entries p/q with
    p in -3..3 and q in 1..3."""
    d = rng.randint(2, 6)
    if rng.random() < 0.3:
        rows = [[0] * d for _ in range(d)]
        i = 0
        while i < d:
            size = rng.randint(1, d - i)
            ev = rng.choice(_JORDAN_EIGENVALUES)
            for k in range(size):
                rows[i + k][i + k] = ev
                if k + 1 < size:
                    rows[i + k][i + k + 1] = 1
            i += size
        j = ExactMatrix.from_rows(rows)
        p = _random_invertible(rng, d)
        return p @ j @ inverse(p)
    pairs = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d * d)]
    return ExactMatrix.from_ratios(d, d, pairs)


def _matrix_repr(m: ExactMatrix) -> str:
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in matrix_rows(m)) + "]"


@dataclass(frozen=True)
class Failure:
    prop: str
    size: int
    case_id: int
    case_repr: str
    detail: str


@dataclass
class SuiteResult:
    name: str
    cases: int
    checks: dict[str, int] = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)

    def count(self, prop: str, n: int = 1):
        self.checks[prop] = self.checks.get(prop, 0) + n

    def fail(self, prop: str, size: int, case_id: int, case_repr: str, detail: str):
        self.failures.append(Failure(prop, size, case_id, case_repr, detail))

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_rng(seed: int, name: str) -> Random:
    return Random(seed ^ zlib.crc32(name.encode()))


def subspace_meet_join(data: MatrixChainData) -> tuple[EvAffineSeq, EvAffineSeq]:
    """Independent route to the meet and join chains of a square matrix S,
    which matrix_profile derives from the ranks: c_n = dim(R(S^n) ∩ N(S))
    and b_n = codim(R(S) + N(S^n)), from subspace intersections and sums
    of the kernels and images of the powers."""
    d, nu, kernels, images = data.matrix.rows, data.nu, data.kernels, data.images
    meet = [ExtNat(subspace_intersection(images[n], kernels[1]).dim) for n in range(nu + 1)]
    join = [ExtNat(d - subspace_sum(images[1], kernels[n]).dim) for n in range(nu + 1)]
    return EvAffineSeq.from_samples(meet, nu), EvAffineSeq.from_samples(join, nu)


def _restriction_defects(m: ExactMatrix, data, n: int) -> tuple[int, int]:
    """Defects of m restricted to the range of its n-th power, computed
    from the restriction itself (independent of the chain profile)."""
    img = image_basis(data.powers[min(n, data.nu)])
    if img.dim == 0:
        return 0, 0
    sub = restrict(m, img)
    al = kernel_basis(sub).dim
    be = img.dim - rank(sub)
    return al, be


def suite_chains(cases: int, seed: int, corrupt_oracle: bool = False) -> SuiteResult:
    res = SuiteResult("chains", cases)
    rng = _suite_rng(seed, "chains")
    for ci in range(cases):
        m = random_matrix(rng)
        d = m.rows
        data = matrix_chain_data(m)
        prof = matrix_profile(data)
        k = prof.c.diff()
        # restrictions are constant once the image chain stabilizes
        by_level = [_restriction_defects(m, data, n) for n in range(min(d + 4, data.nu + 1))]
        alphas = []
        betas = []
        for n in range(d + 4):
            al, be = by_level[min(n, data.nu)]
            if corrupt_oracle and ci == 0 and n == 0:
                al += 1
            alphas.append(al)
            betas.append(be)
        rep = _matrix_repr(m)
        for n in range(d + 3):
            res.count("restriction_defects_match_profile")
            if ExtNat(alphas[n]) != prof.c.at(n) or ExtNat(betas[n]) != prof.b.at(n):
                res.fail(
                    "restriction_defects_match_profile",
                    d,
                    ci,
                    rep,
                    f"n={n} restriction gives ({alphas[n]},{betas[n]}), "
                    f"profile gives ({prof.c.at(n)},{prof.b.at(n)})",
                )
                continue
            res.count("defect_steps_equal_k")
            kn = int(k.at(n))
            if alphas[n] - alphas[n + 1] != kn or betas[n] - betas[n + 1] != kn:
                res.fail(
                    "defect_steps_equal_k",
                    d,
                    ci,
                    rep,
                    f"n={n} steps ({alphas[n]-alphas[n+1]},{betas[n]-betas[n+1]}) vs k={kn}",
                )
            res.count("k_bounded_by_defects")
            if kn > min(alphas[n], betas[n]):
                res.fail(
                    "k_bounded_by_defects",
                    d,
                    ci,
                    rep,
                    f"n={n} k={kn} exceeds min({alphas[n]},{betas[n]})",
                )
            res.count("restriction_index_zero")
            if alphas[n] != betas[n]:
                res.fail(
                    "restriction_index_zero",
                    d,
                    ci,
                    rep,
                    f"n={n} index {alphas[n]-betas[n]} nonzero",
                )
    return res


def suite_gkd(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("gkd", cases)
    rng = _suite_rng(seed, "gkd")
    for ci in range(cases):
        m = random_matrix(rng)
        d = m.rows
        rep = _matrix_repr(m)
        data = matrix_chain_data(m)
        core, h0 = data.fitting_split()
        res.count("fitting_direct_sum")
        if core.dim + h0.dim != d or subspace_sum(core, h0).dim != d:
            res.fail("fitting_direct_sum", d, ci, rep, "core + h0 is not the space")
        if core.dim:
            res.count("core_restriction_invertible")
            if rank(restrict(m, core)) != core.dim:
                res.fail("core_restriction_invertible", d, ci, rep, "singular core block")
        if h0.dim:
            res.count("h0_restriction_nilpotent_degree")
            blk = restrict(m, h0)
            if not blk.power(data.nu).is_zero() or (
                data.nu >= 1 and blk.power(data.nu - 1).is_zero()
            ):
                res.fail(
                    "h0_restriction_nilpotent_degree",
                    d,
                    ci,
                    rep,
                    f"nilpotency degree differs from fitting index {data.nu}",
                )
        an = analyze_expr(OperatorExpr.of(Atom("matrix", m)), point(0))
        dz = split_drazin(matrix_split(an.parts[0], 0))
        res.count("drazin_axioms", 3)
        if (
            dz @ m != m @ dz
            or dz @ m @ dz != dz
            or data.powers[data.nu + 1] @ dz != data.powers[data.nu]
        ):
            res.fail("drazin_axioms", d, ci, rep, "a Drazin axiom failed")
        al, be = alpha_beta_core_oracle(m)
        res.count("core_oracle_matches_summary", 2)
        if an.summary.alpha != al or an.summary.beta != be:
            res.fail(
                "core_oracle_matches_summary",
                d,
                ci,
                rep,
                f"summary ({an.summary.alpha},{an.summary.beta}) vs oracle ({al},{be})",
            )
    return res


def suite_index_laws(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("index-laws", cases)
    pts = [point(0), point(Fraction(1, 10))]
    simple = [e for e in CATALOG if e.power == 1]
    for lam in pts:
        idx = {
            e.name: analyze_expr(e.expr, lam, e.power).summary.index for e in CATALOG
        }
        for i, e1 in enumerate(simple):
            for e2 in simple[i:]:
                combined = analyze_expr(e1.expr + e2.expr, lam).summary.index
                res.count("direct_sum_additivity")
                if combined != idx[e1.name].add(idx[e2.name]):
                    res.fail(
                        "direct_sum_additivity",
                        0,
                        i,
                        f"{e1.name} + {e2.name} at {lam}",
                        f"{combined.to_str()} vs "
                        f"{idx[e1.name].to_str()} + {idx[e2.name].to_str()}",
                    )
        for e in CATALOG:
            base = idx[e.name]
            for k in range(2, 5):
                powered = analyze_expr(e.expr, lam, e.power * k).summary.index
                res.count("power_scaling")
                if powered != base.times(k):
                    res.fail(
                        "power_scaling",
                        0,
                        k,
                        f"{e.name}^{k} at {lam}",
                        f"{powered.to_str()} vs {k}*{base.to_str()}",
                    )
    for e in simple:
        expr = e.expr + OperatorExpr.of(J2)
        got = index_with_nilpotent_regrouped(expr, point(0))
        want = analyze_expr(expr, point(0)).summary.index
        res.count("nilpotent_regrouping_invariance")
        if got != want:
            res.fail(
                "nilpotent_regrouping_invariance",
                0,
                0,
                f"{e.name} + jordan2",
                f"{got.to_str()} vs {want.to_str()}",
            )
    return res


def suite_duality(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("duality", cases)
    rng = _suite_rng(seed, "duality")
    for e in CATALOG:
        an = analyze_expr(e.expr, point(0), e.power)
        du = analyze_expr(dual_expr(e.expr), point(0), e.power)
        res.count("defect_swap", 2)
        if an.summary.alpha != du.summary.beta or an.summary.beta != du.summary.alpha:
            res.fail("defect_swap", 0, 0, e.name, "alpha/beta do not swap under duality")
        res.count("stabilization_swap", 2)
        if an.summary.p != du.summary.q or an.summary.q != du.summary.p:
            res.fail("stabilization_swap", 0, 0, e.name, "p/q do not swap under duality")
        res.count("index_negation")
        if an.summary.index != du.summary.index.neg():
            res.fail("index_negation", 0, 0, e.name, "index does not negate under duality")
    for ci in range(cases):
        m = random_matrix(rng)
        rep = _matrix_repr(m)
        data = matrix_chain_data(m)
        ddata = matrix_chain_data(m.transpose())
        prof, dprof = matrix_profile(data), matrix_profile(ddata)
        # matrix_profile derives c and b from a, so the mirror of c and b
        # is checked on the subspace chains
        meet, join = subspace_meet_join(data)
        dmeet, djoin = subspace_meet_join(ddata)
        res.count("transpose_chain_mirror", 4)
        if prof.a != dprof.a or prof.r != dprof.r or meet != djoin or join != dmeet:
            res.fail(
                "transpose_chain_mirror",
                m.rows,
                ci,
                rep,
                "transpose chains are not the mirror of the original chains",
            )
    return res


_OFFSETS = [
    point(Fraction(1, 10)),
    point(Fraction(-1, 10)),
    point(Fraction(1, 100)),
    point(Fraction(-1, 100)),
    point(0, Fraction(1, 10)),
    point(0, Fraction(-1, 10)),
    point(0, Fraction(1, 100)),
    point(0, Fraction(-1, 100)),
]


def suite_punctured(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("punctured", cases)
    for e in CATALOG:
        at0 = analyze_expr(e.expr, point(0), e.power).summary
        for lam in _OFFSETS:
            s = analyze_expr(e.expr, lam, e.power).summary
            res.count("punctured_neighborhood_constancy", 3)
            if s.alpha != at0.alpha or s.beta != at0.beta or s.index != at0.index:
                res.fail(
                    "punctured_neighborhood_constancy",
                    0,
                    0,
                    f"{e.name} at ({lam[0]},{lam[1]})",
                    f"({s.alpha},{s.beta},{s.index.to_str()}) vs "
                    f"({at0.alpha},{at0.beta},{at0.index.to_str()})",
                )
    return res


def suite_spectra(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("spectra", cases)
    grid = GridSpec(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2), 17, 17)
    for e in (CATALOG[0], CATALOG[4]):  # one shift, one nilpotent matrix
        s = scan(e.expr, grid)
        for rec in s.records:
            for full, up, lo in (("pbf", "upbf", "lpbf"), ("pbw", "upbw", "lpbw")):
                res.count("semi_union_identity")
                in_union = spectrum_membership(rec, up) or spectrum_membership(rec, lo)
                if spectrum_membership(rec, full) != in_union:
                    res.fail(
                        "semi_union_identity",
                        0,
                        0,
                        e.name,
                        f"{full} spectrum is not the union of the one-sided spectra",
                    )
        rep = component_index_report(s, "pbf")
        for comp in rep.components:
            res.count("component_index_constant")
            if not comp.index_constant:
                res.fail(
                    "component_index_constant",
                    0,
                    comp.id,
                    e.name,
                    f"component {comp.id} mixes index values",
                )
        res.count("scan_determinism")
        if scan_to_csv(s) != scan_to_csv(scan(e.expr, grid)):
            res.fail("scan_determinism", 0, 0, e.name, "repeated scans differ")
    return res


_SUITES = {
    "chains": suite_chains,
    "gkd": suite_gkd,
    "index-laws": suite_index_laws,
    "duality": suite_duality,
    "punctured": suite_punctured,
    "spectra": suite_spectra,
}


def run(suite: str, cases: int, seed: int, corrupt_oracle: bool = False) -> tuple[str, int]:
    """Run one suite (or all) and return (report text, exit code)."""
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    lines: list[str] = []
    results: list[SuiteResult] = []
    for name in names:
        if name == "chains":
            r = suite_chains(cases, seed, corrupt_oracle)
        else:
            r = _SUITES[name](cases, seed)
        results.append(r)
        lines.append(f"suite {name}: cases={cases} seed={seed}")
        for prop in sorted(r.checks):
            lines.append(f"  {prop}: {r.checks[prop]} checks")
        lines.append(f"suite {name}: {'ok' if r.ok else f'{len(r.failures)} failures'}")
    failures = sorted(
        (f for r in results for f in r.failures),
        key=lambda f: (f.size, f.case_id, f.prop),
    )
    if failures:
        worst = failures[0]
        lines.append(f"FAIL {worst.prop}: {worst.detail}")
        lines.append(f"minimal failing case: {worst.case_repr}")
        lines.append(f"verify: {len(failures)} failed checks")
        return "\n".join(lines) + "\n", 5
    lines.append(f"verify: {len(results)} suites ok")
    return "\n".join(lines) + "\n", 0
