"""Structural invariants: canonical Kato-type decompositions, defect
numbers, ascent/descent-style stabilization points, Drazin inverses.

The canonical decomposition splits each atom of e - lam into a semi-regular
part and a quasi-nilpotent part: matrix atoms via the Fitting split at the
shifted (and, for complex points, realified) block, shift atoms wholesale
according to their tables. alpha and beta are the kernel dimension and range
codimension of the assembled semi-regular part; p and q are the
stabilization points of that part's kernel and range chains (0 or infinity,
since a semi-regular operator has exactly linear chains); dis is the
stabilization point of the full meet chain.

Matrix atoms are eigenvalue-first. When lam is not a root of the atom's
characteristic polynomial (computed once per matrix), the shifted block is
invertible: the atom has the invertible profile and the whole block is its
semi-regular part. The exact Fitting split runs only at eigenvalues, at
most d points for a d x d atom, once per atom and point: the block
profiles and the Drazin inverse are derived from it, not recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPseudoFredholm
from .extvals import ExtIndex, ExtNat, UNDEF_INDEX
from .linalg import (
    ExactMatrix,
    SubspaceBasis,
    image_basis,
    inverse,
    kernel_basis,
    restrict,
    subspace_intersection,
    subspace_sum,
)
from .model import (
    Atom,
    INVERTIBLE_PROFILE,
    OperatorExpr,
    Point,
    StructuralProfile,
    ZERO_DIM_PROFILE,
    atom_profile,
    direct_sum_profile,
    matrix_chain_data,
    matrix_profile,
    point,
    power_profile,
    rank_profile,
    realified,
)


@dataclass(frozen=True)
class MatrixSplit:
    """Fitting split of one matrix atom's shifted block: the ambient space
    is the exact direct sum of m_basis (restriction invertible) and n_basis
    (restriction nilpotent). Bases live in the realified space when the
    point has a nonzero imaginary part."""

    atom_index: int
    m_basis: SubspaceBasis
    n_basis: SubspaceBasis


@dataclass(frozen=True)
class GKDPair:
    """Canonical decomposition of e - lam at the stored point.

    m_part and n_part are formal direct sums describing the semi-regular
    and quasi-nilpotent sides; matrix atoms appear as restrictions of the
    shifted block (so those pieces are understood at 0), shift atoms appear
    as themselves (understood at the stored point). None encodes a trivial
    part. Splits record the bases for every matrix atom.
    """

    point: Point
    m_part: OperatorExpr | None
    n_part: OperatorExpr | None
    splits: tuple[MatrixSplit, ...]


@dataclass(frozen=True)
class StructuralSummary:
    """Point summary: defect numbers alpha/beta and stabilization points
    p/q of the canonical semi-regular part, the index, and dis. The first
    four are None exactly when no decomposition exists at the point."""

    alpha: ExtNat | None
    beta: ExtNat | None
    p: ExtNat | None
    q: ExtNat | None
    index: ExtIndex
    dis: ExtNat

    def __post_init__(self):
        present = [self.alpha, self.beta, self.p, self.q]
        if any(v is None for v in present) != all(v is None for v in present):
            raise ValueError("summary fields must be all defined or all undefined")
        if self.alpha is not None:
            if self.index != ExtIndex.from_alpha_beta(self.alpha, self.beta):
                raise ValueError("index must equal alpha - beta")
        elif self.index != UNDEF_INDEX:
            raise ValueError("index must be undefined without a decomposition")

    def to_strs(self) -> dict[str, str]:
        """alpha, beta, p, q and the index as output strings, each of the
        first four "undef" when no decomposition exists."""
        vals = {"alpha": self.alpha, "beta": self.beta, "p": self.p, "q": self.q}
        out = {k: "undef" if v is None else v.to_str() for k, v in vals.items()}
        out["index"] = self.index.to_str()
        return out


@dataclass(frozen=True)
class AtomAnalysis:
    """Per-atom pieces of the canonical decomposition at one point; for a
    matrix atom, block is its shifted (realified) block S."""

    atom: Atom
    profile: StructuralProfile
    m_profile: StructuralProfile | None
    n_profile: StructuralProfile | None
    m_atom: Atom | None
    n_atom: Atom | None
    m_basis: SubspaceBasis | None
    n_basis: SubspaceBasis | None
    block: ExactMatrix | None = None


def _analyze_matrix_atom(atom: Atom, lam: Point) -> AtomAnalysis:
    if atom.matrix.is_eigenvalue(*lam):
        return fitting_atom_analysis(atom, lam)
    s, _ = realified(atom.matrix, lam[0], lam[1])
    prof = INVERTIBLE_PROFILE
    return AtomAnalysis(
        atom,
        prof,
        prof,
        None,
        Atom("matrix", s),
        None,
        SubspaceBasis.full(s.rows),
        SubspaceBasis.zero(s.rows),
        s,
    )


def fitting_atom_analysis(atom: Atom, lam: Point) -> AtomAnalysis:
    """The exact Fitting split of a matrix atom's shifted block S at any
    point; analyze_atom uses it only at eigenvalues.

    The block profiles come from the ranks of the powers of S, not from
    the blocks: S is invertible on its core K, so the core block has the
    invertible profile; S^n acts on K ⊕ H0 as an invertible map plus the
    n-th power of the H0 block, so rank((S|H0)^n) = rank(S^n) - dim K.
    """
    s, scale = realified(atom.matrix, lam[0], lam[1])
    data = matrix_chain_data(s)
    prof = matrix_profile(data, scale)
    core, h0 = data.fitting_split()
    m_atom = m_prof = None
    if core.dim:
        m_atom = Atom("matrix", restrict(s, core))
        m_prof = INVERTIBLE_PROFILE
    n_atom = n_prof = None
    if h0.dim:
        n_atom = Atom("matrix", restrict(s, h0))
        n_prof = rank_profile(h0.dim, [r - core.dim for r in data.ranks], scale)
    return AtomAnalysis(atom, prof, m_prof, n_prof, m_atom, n_atom, core, h0, s)


def analyze_atom(atom: Atom, lam: Point) -> AtomAnalysis:
    if atom.kind == "matrix":
        return _analyze_matrix_atom(atom, lam)
    prof = atom_profile(atom, lam)
    if not prof.is_pseudofredholm_point:
        return AtomAnalysis(atom, prof, None, None, None, None, None, None)
    if prof.is_quasinilpotent:
        return AtomAnalysis(atom, prof, None, prof, None, atom, None, None)
    return AtomAnalysis(atom, prof, prof, None, atom, None, None, None)


@dataclass(frozen=True)
class ExprAnalysis:
    """Everything the classifier and the report need about (e - lam)^power,
    with the per-atom analyses at lam (also where no decomposition exists)."""

    expr: OperatorExpr
    point: Point
    power: int
    parts: tuple[AtomAnalysis, ...]
    full: StructuralProfile
    m_profile: StructuralProfile | None
    n_profile: StructuralProfile | None
    pair: GKDPair | None
    summary: StructuralSummary

    @property
    def decomposable(self) -> bool:
        return self.pair is not None


def analyze_expr(e: OperatorExpr, lam: Point, power: int = 1) -> ExprAnalysis:
    parts = tuple(analyze_atom(a, lam) for a in e.atoms)
    full = direct_sum_profile([p.profile for p in parts])
    full = power_profile(full, power)
    dis = full.c.stabilization_point()
    if not full.is_pseudofredholm_point:
        summary = StructuralSummary(None, None, None, None, UNDEF_INDEX, dis)
        return ExprAnalysis(e, lam, power, parts, full, None, None, None, summary)
    m_prof = direct_sum_profile(
        [p.m_profile for p in parts if p.m_profile is not None] or [ZERO_DIM_PROFILE]
    )
    n_prof = direct_sum_profile(
        [p.n_profile for p in parts if p.n_profile is not None] or [ZERO_DIM_PROFILE]
    )
    m_prof = power_profile(m_prof, power)
    n_prof = power_profile(n_prof, power)
    m_atoms = tuple(p.m_atom for p in parts if p.m_atom is not None)
    n_atoms = tuple(p.n_atom for p in parts if p.n_atom is not None)
    splits = tuple(
        MatrixSplit(i, p.m_basis, p.n_basis)
        for i, p in enumerate(parts)
        if p.m_basis is not None
    )
    pair = GKDPair(
        point=lam,
        m_part=OperatorExpr(m_atoms) if m_atoms else None,
        n_part=OperatorExpr(n_atoms) if n_atoms else None,
        splits=splits,
    )
    alpha = m_prof.a.at(1)
    beta = m_prof.r.at(1)
    summary = StructuralSummary(
        alpha=alpha,
        beta=beta,
        p=m_prof.a.stabilization_point(),
        q=m_prof.r.stabilization_point(),
        index=ExtIndex.from_alpha_beta(alpha, beta),
        dis=dis,
    )
    return ExprAnalysis(e, lam, power, parts, full, m_prof, n_prof, pair, summary)


def canonical_gkd(e: OperatorExpr, lam: Point) -> GKDPair:
    an = analyze_expr(e, lam)
    if not an.decomposable:
        raise NotPseudoFredholm(f"no decomposition at point {lam}")
    return an.pair


def alpha_beta_pq(e: OperatorExpr, lam: Point) -> StructuralSummary:
    an = analyze_expr(e, lam)
    if not an.decomposable:
        raise NotPseudoFredholm(f"no decomposition at point {lam}")
    return an.summary


def index(e: OperatorExpr, lam: Point) -> ExtIndex:
    """Index at lam; undefined when no decomposition exists there."""
    return analyze_expr(e, lam).summary.index


def index_with_nilpotent_regrouped(e: OperatorExpr, lam: Point) -> ExtIndex:
    """Index computed with every nilpotent matrix atom counted on the
    semi-regular side as a finite-dimensional (hence Fredholm) summand
    instead of the quasi-nilpotent side. Must agree with index(e, lam)."""
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
    m_prof = direct_sum_profile(profs or [ZERO_DIM_PROFILE])
    return ExtIndex.from_alpha_beta(m_prof.a.at(1), m_prof.r.at(1))


def h0_and_core(m: ExactMatrix) -> tuple[SubspaceBasis, SubspaceBasis]:
    """(H0, K) of a square rational matrix at 0: the kernel and image of
    m^nu at the Fitting index nu."""
    core, h0 = matrix_chain_data(m).fitting_split()
    return h0, core


def alpha_beta_core_oracle(m: ExactMatrix) -> tuple[ExtNat, ExtNat]:
    """Independent route to the defect numbers of a matrix at 0:
    dim(K ∩ N(m)) and codim(R(m) + H0). For matrices both are 0 because the
    restriction to the core is invertible; this is a consistency oracle."""
    h0, core = h0_and_core(m)
    alpha = subspace_intersection(core, kernel_basis(m)).dim
    beta = m.rows - subspace_sum(image_basis(m), h0).dim
    return ExtNat(alpha), ExtNat(beta)


def split_drazin(part: AtomAnalysis) -> ExactMatrix:
    """Exact Drazin inverse of a matrix atom's shifted block S from its
    split: with P = [K | H0] and A the core block, S^D = P diag(A^-1, 0)
    P^-1. The Drazin inverse is unique, so any split gives the same one."""
    core, h0 = part.m_basis, part.n_basis
    d = core.ambient_dim
    if not core.dim:
        return ExactMatrix.zeros(d, d)
    if not h0.dim:
        # the canonical basis of the whole space is the identity, so A = S
        return inverse(part.block)
    a_inv = inverse(part.m_atom.matrix)
    k = core.dim
    cols = core.vectors + h0.vectors
    p_inv = inverse(
        ExactMatrix(d, d, tuple(cols[j][i] for i in range(d) for j in range(d)))
    )
    left = ExactMatrix(d, k, tuple(cols[j][i] for i in range(d) for j in range(k)))
    return left @ a_inv @ ExactMatrix(k, d, p_inv.entries[: k * d])


def drazin_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact Drazin inverse of a square rational matrix, from its split
    at 0."""
    return split_drazin(analyze_atom(Atom("matrix", m), point(0)))


def restriction_profile(p: StructuralProfile, n: int) -> tuple[ExtNat, ExtNat, ExtIndex]:
    """Defect data of the operator restricted to the range of its n-th
    power: kernel dimension c_n, range codimension b_n, and their index."""
    cn = p.c.at(n)
    bn = p.b.at(n)
    return cn, bn, ExtIndex.from_alpha_beta(cn, bn)
