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

These are dimensions, so every profile comes from ranks. A matrix atom is
analysed by rank alone (model.matrix_data_at): the ranks of the powers of
its shifted block give all three profiles, and the first of them says
whether the point is an eigenvalue; off the spectrum the chain stops at
nu = 0 with the invertible profile. At a complex point those ranks come
from the d x d matrix q(m), the atom's image under the point's minimal
polynomial over Q, so classifying builds no realified block.
assemble_analysis sums given per-atom analyses into the profiles and the
summary; analyze_expr and the scans share it. The Fitting split, its bases
and blocks, is built only on request (gkd_pair), for reports and Drazin
inverses: from the same chain data at a real point, and at a complex one
from the realified block and its nu-th power, or off the spectrum from
q(m), whose inverse gives the block's.
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
    stack,
)
from .model import (
    Atom,
    INVERTIBLE_PROFILE,
    MatrixChainData,
    OperatorExpr,
    Point,
    StructuralProfile,
    ZERO_DIM_PROFILE,
    atom_profile,
    direct_sum_profile,
    matrix_data_at,
    matrix_profile,
    point,
    power_profile,
    rank_profile,
    realified,
    realify,
)


@dataclass(frozen=True)
class MatrixSplit:
    """Fitting split of one matrix atom's shifted block S: the ambient space
    is the exact direct sum of m_basis, on which S restricts to the
    invertible m_atom, and n_basis, on which it restricts to the nilpotent
    n_atom (None for an empty basis). m_inverse is the inverse of m_atom's
    matrix (None without a core). S and the bases live in the realified
    space when the point has a nonzero imaginary part."""

    atom_index: int
    block: ExactMatrix
    m_basis: SubspaceBasis
    n_basis: SubspaceBasis
    m_atom: Atom | None
    n_atom: Atom | None
    m_inverse: ExactMatrix | None


@dataclass(frozen=True)
class GKDPair:
    """Canonical decomposition of e - lam at the stored point.

    m_part and n_part are formal direct sums describing the semi-regular
    and quasi-nilpotent sides; matrix atoms appear as restrictions of the
    shifted block (so those pieces are understood at 0), shift atoms appear
    as themselves (understood at the stored point). None encodes a trivial
    part. splits holds the Fitting split of every matrix atom.
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
    """Profiles of one atom at one point: the atom's own and those of its
    semi-regular (m) and quasi-nilpotent (n) pieces, None for an empty
    piece and both None where no decomposition exists. data is a matrix
    atom's chain data (model.matrix_data_at: the ranks of the shifted
    block S, and the powers of S or, at a complex point, of q(m)); it is
    None for a shift atom and in invertible_analysis."""

    atom: Atom
    point: Point
    profile: StructuralProfile
    m_profile: StructuralProfile | None
    n_profile: StructuralProfile | None
    data: MatrixChainData | None = None


def analyze_atom(atom: Atom, lam: Point) -> AtomAnalysis:
    """The profiles of one atom at lam, from ranks alone.

    For a matrix atom the block profiles come from the ranks of the powers
    of the shifted block S, read from the chain data (at a complex point
    they are derived from q(m) and S is never built): S is invertible on
    its core K = R(S^nu), so the core block has the invertible profile;
    S^n acts on K ⊕ H0 as an invertible map plus the n-th power of the H0
    block, so rank((S|H0)^n) = rank(S^n) - dim K. S has dimension ranks[0].
    Off the spectrum nu = 0, K is the whole space and H0 is empty.
    """
    if atom.kind == "matrix":
        data, scale = matrix_data_at(atom.matrix, lam)
        d, k = data.ranks[0], data.ranks[data.nu]  # dim S, dim K
        m_prof = INVERTIBLE_PROFILE if k else None
        n_prof = None
        if k < d:
            n_prof = rank_profile(d - k, [r - k for r in data.ranks], scale)
        return AtomAnalysis(atom, lam, matrix_profile(data, scale), m_prof, n_prof, data)
    prof = atom_profile(atom, lam)
    if not prof.is_pseudofredholm_point:
        return AtomAnalysis(atom, lam, prof, None, None)
    if prof.is_quasinilpotent:
        return AtomAnalysis(atom, lam, prof, None, prof)
    return AtomAnalysis(atom, lam, prof, prof, None)


def invertible_analysis(atom: Atom, lam: Point) -> AtomAnalysis:
    """The analysis of an atom known to be invertible at lam, as a scan's
    key proves it for a matrix atom off its spectrum: what analyze_atom
    gives there, without its chain data, which classification never reads."""
    return AtomAnalysis(atom, lam, INVERTIBLE_PROFILE, INVERTIBLE_PROFILE, None)


def matrix_split(part: AtomAnalysis, atom_index: int) -> MatrixSplit:
    """The Fitting split of a matrix atom's shifted block S at the part's
    point, K = R(S^nu) and H0 = N(S^nu). At a real point S and S^nu come
    from the part's chain data; at a complex one that data walked q(m), so
    S is realified here and S^nu is its power, nu - 1 products. Off the
    spectrum (nu = 0) S is its own core, and at a complex point its
    inverse is [[A q^-1, -im q^-1], [im q^-1, A q^-1]], A = m - re, from
    the inverse of the d x d q(m) = A^2 + im^2 I that the data holds."""
    data, (re, im) = part.data, part.point
    s = data.matrix if not im else realified(part.atom.matrix, re, im)[0]
    if not data.nu:
        if im:
            q_inv = inverse(data.matrix)
            s_inv = realify(part.atom.matrix.minus_scalar(re) @ q_inv, q_inv, im)
        else:
            s_inv = inverse(s)
        whole, none = SubspaceBasis.full(s.rows), SubspaceBasis.zero(s.rows)
        return MatrixSplit(atom_index, s, whole, none, Atom("matrix", s), None, s_inv)
    top = data.top
    if im:
        top = s
        for _ in range(data.nu - 1):
            top = top @ s
    core, h0 = image_basis(top), kernel_basis(top)
    m_atom = Atom("matrix", restrict(s, core)) if core.dim else None
    n_atom = Atom("matrix", restrict(s, h0)) if h0.dim else None
    m_inv = inverse(m_atom.matrix) if m_atom else None
    return MatrixSplit(atom_index, s, core, h0, m_atom, n_atom, m_inv)


@dataclass(frozen=True)
class ExprAnalysis:
    """The profiles and summary of (e - lam)^power, with the per-atom
    analyses at lam (also where no decomposition exists); gkd_pair builds
    the splits from them on request."""

    expr: OperatorExpr
    point: Point
    power: int
    parts: tuple[AtomAnalysis, ...]
    full: StructuralProfile
    m_profile: StructuralProfile | None
    n_profile: StructuralProfile | None
    summary: StructuralSummary

    @property
    def decomposable(self) -> bool:
        return self.full.is_pseudofredholm_point


def analyze_expr(e: OperatorExpr, lam: Point, power: int = 1) -> ExprAnalysis:
    return assemble_analysis(e, lam, tuple(analyze_atom(a, lam) for a in e.atoms), power)


def assemble_analysis(
    e: OperatorExpr, lam: Point, parts: tuple[AtomAnalysis, ...], power: int = 1
) -> ExprAnalysis:
    """The profiles and summary of (e - lam)^power from the analyses of
    e's atoms at lam, in order: direct sums of their profiles, then powers."""
    full = direct_sum_profile([p.profile for p in parts])
    full = power_profile(full, power)
    dis = full.c.stabilization_point()
    if not full.is_pseudofredholm_point:
        summary = StructuralSummary(None, None, None, None, UNDEF_INDEX, dis)
        return ExprAnalysis(e, lam, power, parts, full, None, None, summary)
    m_prof = direct_sum_profile(
        [p.m_profile for p in parts if p.m_profile is not None] or [ZERO_DIM_PROFILE]
    )
    n_prof = direct_sum_profile(
        [p.n_profile for p in parts if p.n_profile is not None] or [ZERO_DIM_PROFILE]
    )
    m_prof = power_profile(m_prof, power)
    n_prof = power_profile(n_prof, power)
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
    return ExprAnalysis(e, lam, power, parts, full, m_prof, n_prof, summary)


def gkd_pair(an: ExprAnalysis) -> GKDPair:
    """The split of every matrix atom, and the pieces of each side: a matrix
    atom's split restrictions, a shift atom wholesale on the side its
    profile names. The canonical decomposition where an.decomposable."""
    m_atoms, n_atoms, splits = [], [], []
    for i, p in enumerate(an.parts):
        sp = matrix_split(p, i) if p.atom.kind == "matrix" else None
        if sp is not None:
            splits.append(sp)
        if p.m_profile is not None:
            m_atoms.append(p.atom if sp is None else sp.m_atom)
        if p.n_profile is not None:
            n_atoms.append(p.atom if sp is None else sp.n_atom)
    return GKDPair(
        point=an.point,
        m_part=OperatorExpr(tuple(m_atoms)) if m_atoms else None,
        n_part=OperatorExpr(tuple(n_atoms)) if n_atoms else None,
        splits=tuple(splits),
    )


def canonical_gkd(e: OperatorExpr, lam: Point) -> GKDPair:
    an = analyze_expr(e, lam)
    if not an.decomposable:
        raise NotPseudoFredholm(f"no decomposition at point {lam}")
    return gkd_pair(an)


def alpha_beta_pq(e: OperatorExpr, lam: Point) -> StructuralSummary:
    an = analyze_expr(e, lam)
    if not an.decomposable:
        raise NotPseudoFredholm(f"no decomposition at point {lam}")
    return an.summary


def index(e: OperatorExpr, lam: Point) -> ExtIndex:
    """Index at lam; undefined when no decomposition exists there."""
    return analyze_expr(e, lam).summary.index


def split_drazin(split: MatrixSplit) -> ExactMatrix:
    """Exact Drazin inverse of a matrix atom's shifted block S from its
    split: with P = [K | H0] and A^-1 the split's m_inverse, S^D =
    P diag(A^-1, 0) P^-1. The Drazin inverse is unique, so any split gives
    the same one."""
    core, h0 = split.m_basis, split.n_basis
    d = core.ambient_dim
    if not core.dim:
        return ExactMatrix.zeros(d, d)
    a_inv = split.m_inverse
    if not h0.dim:
        # the canonical basis of the whole space is the identity, so P = I
        return a_inv
    p_inv = inverse(stack(core.matrix, h0.matrix).transpose())
    k = core.dim
    top = ExactMatrix(k, d, p_inv.num[: k * d], p_inv.den)
    return core.matrix.transpose() @ a_inv @ top


def drazin_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact Drazin inverse of a square rational matrix, from its split
    at 0."""
    return split_drazin(matrix_split(analyze_atom(Atom("matrix", m), point(0)), 0))


def restriction_profile(p: StructuralProfile, n: int) -> tuple[ExtNat, ExtNat, ExtIndex]:
    """Defect data of the operator restricted to the range of its n-th
    power: kernel dimension c_n, range codimension b_n, and their index."""
    cn = p.c.at(n)
    bn = p.b.at(n)
    return cn, bn, ExtIndex.from_alpha_beta(cn, bn)
