"""Randomized and catalog-driven verification suites behind the `verify`
CLI command, with the independent routes (oracles) they check the library
against. Each suite checks a family of exact properties and reports
per-property check counts; any violation is reported with the smallest
failing case. Output is deterministic for a fixed seed.
"""
from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .catalog import CATALOG, J2
from .docio import matrix_rows
from .errors import NotPseudoFredholm
from .extvals import EvAffineSeq, ExtIndex, ExtNat, ZERO
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
    OperatorExpr,
    Point,
    dual_expr,
    matrix_chain_data,
    matrix_profile,
    point,
)
from .spectra import (
    GridSpec,
    component_index_report,
    component_runs,
    scan,
    scan_to_csv,
    spectrum_membership,
)
from .structure import (
    MatrixSplit,
    analyze_atom,
    analyze_expr,
    matrix_split,
)

# the most cases the CLI runs per suite, so that no small command line runs
# for hours: `verify --suite all --cases MAX_CASES` took 16-19 s (seeds 0
# and 42, Python 3.11, 2-core host)
MAX_CASES = 10**4

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

    def check(self, prop: str, ok: bool, size: int, case_id: int, case, detail, n=1) -> bool:
        """Count n checks of prop and return ok. Only a failure renders its
        case, an ExactMatrix or a label, and its detail, a string or a
        function that formats one."""
        self.checks[prop] = self.checks.get(prop, 0) + n
        if not ok:
            rep = _matrix_repr(case) if isinstance(case, ExactMatrix) else case
            text = detail if isinstance(detail, str) else detail()
            self.failures.append(Failure(prop, size, case_id, rep, text))
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_rng(seed: int, name: str) -> Random:
    return Random(seed ^ zlib.crc32(name.encode()))


def raw_powers(m: ExactMatrix, nu: int) -> list[ExactMatrix]:
    """m^0..m^(nu+1), one product each: the powers that the subspace routes
    and the Drazin check take apart, which the library does not keep.
    raw_powers(m, nu - 1) begins with m^0..m^nu and builds no product past
    them."""
    powers = [ExactMatrix.identity(m.rows), m]
    while len(powers) < nu + 2:
        powers.append(powers[-1] @ m)
    return powers


def subspace_meet_join(powers: list[ExactMatrix]) -> tuple[EvAffineSeq, EvAffineSeq]:
    """Independent route to the meet and join chains of a square matrix S,
    which matrix_profile derives from the ranks: c_n = dim(R(S^n) ∩ N(S))
    and b_n = codim(R(S) + N(S^n)), from subspace intersections and sums
    of the kernels and images of powers = raw_powers(S, nu)."""
    d, nu = powers[0].rows, len(powers) - 2
    # an image and a kernel of each power S^n, 1 <= n <= max(nu, 1); at n = 0,
    # S^0 = I has image Q^d and kernel 0: c_0 = dim N(S), b_0 = codim R(S)
    imgs, kers = zip(*[(image_basis(p), kernel_basis(p)) for p in powers[1 : max(nu, 1) + 1]])
    meet = [kers[0].dim] + [subspace_intersection(img, kers[0]).dim for img in imgs[:nu]]
    join = [d - imgs[0].dim] + [d - subspace_sum(imgs[0], ker).dim for ker in kers[:nu]]
    meet, join = ([ExtNat(x) for x in seq] for seq in (meet, join))
    return EvAffineSeq.from_samples(meet, nu), EvAffineSeq.from_samples(join, nu)


def _restriction_defects(m: ExactMatrix, n: int, power: ExactMatrix) -> tuple[int, int, int]:
    """Defects of the restriction B of m to the range of power = m^n,
    computed from B itself (independent of the chain profile), and the
    dimension of that range. At n = 0 the range is Q^d and B is m itself."""
    if not n:
        return kernel_basis(m).dim, m.rows - rank(m), m.rows
    img = image_basis(power)
    if img.dim == 0:
        return 0, 0, 0
    sub = restrict(m, img)
    return kernel_basis(sub).dim, img.dim - rank(sub), img.dim


def alpha_beta_core_oracle(split: MatrixSplit) -> tuple[ExtNat, ExtNat]:
    """Independent route to the defect numbers of a split's block S at 0:
    dim(K ∩ N(S)) and codim(R(S) + H0), from the split's own bases. For
    matrices both are 0 because S restricts to an invertible map on K."""
    s, core, h0 = split.block, split.m_basis, split.n_basis
    alpha = subspace_intersection(core, kernel_basis(s)).dim
    beta = s.rows - subspace_sum(image_basis(s), h0).dim
    return ExtNat(alpha), ExtNat(beta)


def index_with_nilpotent_regrouped(e: OperatorExpr, lam: Point) -> ExtIndex:
    """Index computed with every nilpotent matrix atom counted on the
    semi-regular side as a finite-dimensional (hence Fredholm) summand
    instead of the quasi-nilpotent side. Must agree with the index that
    analyze_expr gives."""
    parts = [analyze_atom(a, lam) for a in e.atoms]
    if any(p.m_profile is None and p.n_profile is None for p in parts):
        raise NotPseudoFredholm(f"no decomposition at point {lam}")
    profs = []
    moved = False
    for p in parts:
        if p.atom.kind == "matrix" and p.profile.nilpotency_degree.is_finite:
            profs.append(p.profile)
            moved = True
        elif p.m_profile is not None:
            profs.append(p.m_profile)
    if not moved:
        raise ValueError("no nilpotent matrix atom to regroup")
    alpha = sum((p.a.at(1) for p in profs), ZERO)
    beta = sum((p.r.at(1) for p in profs), ZERO)
    return ExtIndex.from_alpha_beta(alpha, beta)


def suite_chains(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("chains", cases)
    rng = _suite_rng(seed, "chains")
    for ci in range(cases):
        m = random_matrix(rng)
        d = m.rows
        prof = matrix_profile(matrix_chain_data(m))
        nu = int(prof.a.stabilization_point())
        k = prof.c.diff()
        # restrictions and ranges are constant once the image chain
        # stabilizes: R(m^(nu+1)) = R(m^nu)
        powers = raw_powers(m, nu - 1)[: nu + 1]
        levels = [_restriction_defects(m, n, p) for n, p in enumerate(powers)]
        alphas, betas, ranges = zip(*[levels[min(n, nu)] for n in range(d + 4)])
        for n in range(d + 3):
            al, be, cn, bn = alphas[n], betas[n], prof.c.at(n), prof.b.at(n)
            if not res.check(
                "restriction_defects_match_profile",
                ExtNat(al) == cn and ExtNat(be) == bn,
                d,
                ci,
                m,
                lambda: f"n={n} restriction gives ({al},{be}), profile gives ({cn},{bn})",
            ):
                continue
            kn = int(k.at(n))
            da, db = al - alphas[n + 1], be - betas[n + 1]
            res.check(
                "defect_steps_equal_k",
                da == kn and db == kn,
                d,
                ci,
                m,
                lambda: f"n={n} steps ({da},{db}) vs k={kn}",
            )
            res.check(
                "k_bounded_by_defects",
                kn <= min(al, be),
                d,
                ci,
                m,
                lambda: f"n={n} k={kn} exceeds min({al},{be})",
            )
            # R(B) = m R(m^n) = R(m^(n+1)), so B's range codimension is
            # dim R(m^n) - dim R(m^(n+1)), and B has index 0
            cod = ranges[n] - ranges[n + 1]
            res.check(
                "restriction_index_zero",
                al == cod,
                d,
                ci,
                m,
                lambda: f"n={n} index {al - cod} nonzero",
            )
    return res


def split_certificate(s: ExactMatrix, split: MatrixSplit, nu: int) -> list[tuple]:
    """The checks that split is the Fitting split of the square S at 0, nu
    its Fitting index, with S's Drazin inverse, as (property, holds, what
    fails, checks counted): the bases' direct sum is the whole space, the
    core block is invertible, the H0 block is nilpotent of degree nu, and
    S^D S = S S^D, S^D S S^D = S^D and S^(nu+1) S^D = S^nu."""
    d, core, h0 = s.rows, split.m_basis, split.n_basis
    ok = core.dim + h0.dim == d and subspace_sum(core, h0).dim == d
    out = [("fitting_direct_sum", ok, "core + h0 is not the space", 1)]
    if core.dim:
        ok = rank(split.m_atom.matrix) == core.dim
        out.append(("core_restriction_invertible", ok, "singular core block", 1))
    if h0.dim:
        # blk^nu from blk^(nu - 1) with one product
        pw = raw_powers(split.n_atom.matrix, nu - 1)
        ok = pw[nu].is_zero() and not (nu >= 1 and pw[nu - 1].is_zero())
        detail = f"nilpotency degree differs from fitting index {nu}"
        out.append(("h0_restriction_nilpotent_degree", ok, detail, 1))
    dz = split.drazin
    top, nxt = raw_powers(s, nu)[nu:]
    dzs = dz @ s
    ok = dzs == s @ dz and dzs @ dz == dz and nxt @ dz == top
    out.append(("drazin_axioms", ok, "a Drazin axiom failed", 3))
    return out


def suite_gkd(cases: int, seed: int) -> SuiteResult:
    """Checks the Fitting split and Drazin inverse that reports and `drazin`
    use at 0: matrix_split of the analysed atom, by split_certificate."""
    res = SuiteResult("gkd", cases)
    rng = _suite_rng(seed, "gkd")
    for ci in range(cases):
        m = random_matrix(rng)
        d = m.rows
        an = analyze_expr(OperatorExpr.of(Atom("matrix", m)), point(0))
        split = matrix_split(an.parts[0], 0)
        nu = int(an.full.a.stabilization_point())
        for prop, ok, detail, n in split_certificate(m, split, nu):
            res.check(prop, ok, d, ci, m, detail, n)
        al, be = alpha_beta_core_oracle(split)
        s = an.summary
        res.check(
            "core_oracle_matches_summary",
            s.alpha == al and s.beta == be,
            d,
            ci,
            m,
            lambda: f"summary ({s.alpha},{s.beta}) vs oracle ({al},{be})",
            2,
        )
    return res


def suite_index_laws(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("index-laws", cases)
    simple = [e for e in CATALOG if e.power == 1]
    for lam in (point(0), point(Fraction(1, 10))):
        idx = {e.name: analyze_expr(e.expr, lam, e.power).summary.index for e in CATALOG}
        for i, e1 in enumerate(simple):
            for e2 in simple[i:]:
                combined = analyze_expr(e1.expr + e2.expr, lam).summary.index
                res.check(
                    "direct_sum_additivity",
                    combined == idx[e1.name].add(idx[e2.name]),
                    0,
                    i,
                    f"{e1.name} + {e2.name} at {lam}",
                    lambda: f"{combined.to_str()} vs "
                    f"{idx[e1.name].to_str()} + {idx[e2.name].to_str()}",
                )
        for e in CATALOG:
            base = idx[e.name]
            for k in range(2, 5):
                powered = analyze_expr(e.expr, lam, e.power * k).summary.index
                res.check(
                    "power_scaling",
                    powered == base.times(k),
                    0,
                    k,
                    f"{e.name}^{k} at {lam}",
                    lambda: f"{powered.to_str()} vs {k}*{base.to_str()}",
                )
    for e in simple:
        expr = e.expr + OperatorExpr.of(J2)
        got = index_with_nilpotent_regrouped(expr, point(0))
        want = analyze_expr(expr, point(0)).summary.index
        res.check(
            "nilpotent_regrouping_invariance",
            got == want,
            0,
            0,
            f"{e.name} + jordan2",
            lambda: f"{got.to_str()} vs {want.to_str()}",
        )
    return res


def suite_duality(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("duality", cases)
    rng = _suite_rng(seed, "duality")
    for e in CATALOG:
        s = analyze_expr(e.expr, point(0), e.power).summary
        ds = analyze_expr(dual_expr(e.expr), point(0), e.power).summary
        ok = s.alpha == ds.beta and s.beta == ds.alpha
        res.check("defect_swap", ok, 0, 0, e.name, "alpha/beta do not swap under duality", 2)
        ok = s.p == ds.q and s.q == ds.p
        res.check("stabilization_swap", ok, 0, 0, e.name, "p/q do not swap under duality", 2)
        ok = s.index == ds.index.neg()
        res.check("index_negation", ok, 0, 0, e.name, "index does not negate under duality")
    for ci in range(cases):
        m = random_matrix(rng)
        ranks = matrix_chain_data(m)
        dranks = matrix_chain_data(m.transpose())
        prof, dprof = matrix_profile(ranks), matrix_profile(dranks)
        # matrix_profile derives c and b from a, so the mirror of c and b
        # is checked on the subspace chains; (m^T)^n = (m^n)^T
        powers = raw_powers(m, len(ranks) - 2)
        meet, join = subspace_meet_join(powers)
        dmeet, djoin = subspace_meet_join([p.transpose() for p in powers])
        res.check(
            "transpose_chain_mirror",
            prof.a == dprof.a and prof.r == dprof.r and meet == djoin and join == dmeet,
            m.rows,
            ci,
            m,
            "transpose chains are not the mirror of the original chains",
            4,
        )
    return res


_STEPS = (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 100), Fraction(-1, 100))
_OFFSETS = [point(t) for t in _STEPS] + [point(0, t) for t in _STEPS]


def suite_punctured(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("punctured", cases)
    for e in CATALOG:
        at0 = analyze_expr(e.expr, point(0), e.power).summary
        for lam in _OFFSETS:
            s = analyze_expr(e.expr, lam, e.power).summary
            res.check(
                "punctured_neighborhood_constancy",
                s.alpha == at0.alpha and s.beta == at0.beta and s.index == at0.index,
                0,
                0,
                f"{e.name} at ({lam[0]},{lam[1]})",
                lambda: f"({s.alpha},{s.beta},{s.index.to_str()}) vs "
                f"({at0.alpha},{at0.beta},{at0.index.to_str()})",
                3,
            )
    return res


def suite_spectra(cases: int, seed: int) -> SuiteResult:
    res = SuiteResult("spectra", cases)
    grid = GridSpec(Fraction(-2), Fraction(2), Fraction(-2), Fraction(2), 17, 17)
    for e in (CATALOG[0], CATALOG[4]):  # one shift, one nilpotent matrix
        s = scan(e.expr, grid)
        # the identity depends on the record only: one check per point of it
        points = Counter(s.ids)
        for rid, rec in enumerate(s.distinct):
            for full, up, lo in (("pbf", "upbf", "lpbf"), ("pbw", "upbw", "lpbw")):
                in_union = spectrum_membership(rec, up) or spectrum_membership(rec, lo)
                res.check(
                    "semi_union_identity",
                    spectrum_membership(rec, full) == in_union,
                    0,
                    0,
                    e.name,
                    lambda: f"{full} spectrum is not the union of the one-sided spectra",
                    points[rid],
                )
        # the indices of each component's points, read from the scan
        index = [rec.summary.index.to_str() for rec in s.distinct]
        seen: dict[int, set[str]] = {}
        for first, n, cid, _ in component_runs(s, "pbf"):
            seen.setdefault(cid, set()).update(index[i] for i in s.ids[first : first + n])
        for comp in component_index_report(s, "pbf").components:
            ok = seen[comp.id] == {comp.index}
            detail = f"component {comp.id} mixes index values"
            res.check("component_index_constant", ok, 0, comp.id, e.name, detail)
        ok = scan_to_csv(s) == scan_to_csv(scan(e.expr, grid))
        res.check("scan_determinism", ok, 0, 0, e.name, "repeated scans differ")
    return res


_SUITES = {
    "chains": suite_chains,
    "gkd": suite_gkd,
    "index-laws": suite_index_laws,
    "duality": suite_duality,
    "punctured": suite_punctured,
    "spectra": suite_spectra,
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def run(suite: str, cases: int, seed: int) -> tuple[str, int]:
    """Run one suite (or all) and return (report text, exit code)."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    lines: list[str] = []
    results: list[SuiteResult] = []
    for name in names:
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
