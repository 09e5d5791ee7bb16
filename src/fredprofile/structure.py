"""Structural invariants: canonical Kato-type decompositions, defect
numbers, ascent/descent-style stabilization points, Drazin inverses.

The canonical decomposition splits each atom of e - lam into a semi-regular
part and a quasi-nilpotent part: matrix atoms via the Fitting split of the
shifted (and, for complex points, realified) block, shift atoms wholesale
according to their tables. alpha and beta are the kernel dimension and range
codimension of the assembled semi-regular part; p and q are the
stabilization points of that part's kernel and range chains (0 or infinity,
since a semi-regular operator has exactly linear chains); dis is the
stabilization point of the full meet chain.

These are dimensions over C, so every profile comes from ranks. A matrix
atom m is analysed by rank alone (model.matrix_chain_data): the ranks
over C of the powers of m - lam give all three profiles (matrix_analysis),
and the first of them says whether the point is an eigenvalue; off the
spectrum the chain stops at nu = 0 with the invertible profile. At a
complex point those ranks come from the d x d matrix q(m), the atom's
image under the point's minimal polynomial over Q, so classifying builds
no realified block. A shift atom's analysis follows from its region's
table profile (shift_analysis). assemble_analysis sums given per-atom
profiles into the full profile and reads the summary off the atoms'
semi-regular pieces, whose chains are linear. analyze_expr and the scans
share these three; a scan passes each eigenvalue's multiplicity to the
chain, which then computes only the ranks the multiplicity leaves open.
The Fitting split, with its bases, blocks and Drazin inverse, is built
only on request (gkd_pair), for reports and `drazin`, from the atom, the
point and nu alone (matrix_split). At a complex point it too works at
dimension d: it is read off the real split of q(m) and the complex
structure that m induces on q(m)'s generalized kernel, and the realified
block is only restricted to the bases found, never eliminated.
"""
from __future__ import annotations

from dataclasses import dataclass

from .extvals import ExtIndex, ExtNat, INF, UNDEF_INDEX, ZERO
from .linalg import (
    ExactMatrix,
    SubspaceBasis,
    block,
    image_basis,
    inverse,
    kernel_basis,
    restrict,
)
from .model import (
    Atom,
    INVERTIBLE_PROFILE,
    OperatorExpr,
    Point,
    SHIFT_PROFILES,
    StructuralProfile,
    direct_sum_profile,
    matrix_chain_data,
    matrix_profile,
    point,
    power_profile,
    real_quadratic,
    realified,
    realify,
    shift_region,
)


@dataclass(frozen=True)
class MatrixSplit:
    """Fitting split of one matrix atom's shifted block S: the ambient space
    is the exact direct sum of m_basis, on which S restricts to the
    invertible m_atom, and n_basis, on which it restricts to the nilpotent
    n_atom (None for an empty basis). drazin is S's Drazin inverse. S and
    the bases live in the realified space when the point has a nonzero
    imaginary part; matrix_split then finds them from the d x d q(m)."""

    atom_index: int
    block: ExactMatrix
    m_basis: SubspaceBasis
    n_basis: SubspaceBasis
    m_atom: Atom | None
    n_atom: Atom | None
    drazin: ExactMatrix


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
    piece and both None where no decomposition exists."""

    atom: Atom
    point: Point
    profile: StructuralProfile
    m_profile: StructuralProfile | None
    n_profile: StructuralProfile | None


def analyze_atom(atom: Atom, lam: Point) -> AtomAnalysis:
    """The profiles of one atom at lam: a matrix atom's from the ranks over
    C of the powers of m - lam (model.matrix_chain_data; at a complex
    point they are derived from q(m) and no block is built), by
    matrix_analysis; a shift atom's from the table profile of lam's region
    (model.SHIFT_PROFILES, model.shift_region), by shift_analysis. The
    scans call both with what their keys already know: an eigenvalue's
    multiplicity, a shift's region."""
    if atom.kind == "matrix":
        return matrix_analysis(atom, lam, matrix_chain_data(atom.matrix, lam))
    re, im = lam
    q2 = re * re + im * im
    region = shift_region(atom.kind, (q2 > 1) - (q2 < 1), not q2)
    return shift_analysis(atom, lam, SHIFT_PROFILES[atom.kind, region])


def matrix_analysis(atom: Atom, lam: Point, ranks: tuple[int, ...]) -> AtomAnalysis:
    """The profiles of a matrix atom at lam from ranks[n], the rank over C
    of S^n, S = m - lam, n = 0..nu+1 (model.matrix_chain_data).

    S is invertible on its core K = R(S^nu), so the core block has the
    invertible profile; S^n acts on K ⊕ H0 as an invertible map plus the
    n-th power of the H0 block, so rank((S|H0)^n) = rank(S^n) - dim K,
    dim K = rank(S^nu) the last rank. Off the spectrum nu = 0, K is the
    whole space and H0 is empty.
    """
    k = ranks[-1]
    m_prof = INVERTIBLE_PROFILE if k else None
    n_prof = matrix_profile([r - k for r in ranks]) if k < ranks[0] else None
    return AtomAnalysis(atom, lam, matrix_profile(ranks), m_prof, n_prof)


def shift_analysis(atom: Atom, lam: Point, prof: StructuralProfile) -> AtomAnalysis:
    """The profiles of a shift atom at lam from its profile there, an entry
    of model.SHIFT_PROFILES: the whole atom is the piece that profile
    names, quasi-nilpotent or semi-regular, where a decomposition exists."""
    if not prof.is_pseudofredholm_point:
        return AtomAnalysis(atom, lam, prof, None, None)
    if prof.is_quasinilpotent:
        return AtomAnalysis(atom, lam, prof, None, prof)
    return AtomAnalysis(atom, lam, prof, prof, None)


def matrix_split(part: AtomAnalysis, atom_index: int) -> MatrixSplit:
    """The Fitting split K = R(S^nu), H0 = N(S^nu) of a matrix atom's
    shifted block S at the part's point, and S's Drazin inverse S^D, from
    the atom, the point and nu, the stabilization point of the part's
    kernel chain. At a real point that is _fitting(S, nu); at a complex one
    S is realified (model.realified), and the split comes from the real
    split of the d x d matrix q(m) (_complex_fitting). S itself is used
    only to restrict it to the two bases, which tests their invariance."""
    m, (re, im) = part.atom.matrix, part.point
    s = realified(m, re, im)
    nu = int(part.profile.a.stabilization_point())
    core, h0, m_blk, drazin = _complex_fitting(m, s, re, im, nu) if im else _fitting(s, nu)
    m_atom = Atom("matrix", m_blk) if core.dim else None
    n_atom = Atom("matrix", restrict(s, h0)) if h0.dim else None
    return MatrixSplit(atom_index, s, core, h0, m_atom, n_atom, drazin)


def _fitting(s: ExactMatrix, nu: int):
    """K = R(S^nu), H0 = N(S^nu), the core block A (S restricted to K,
    None where K = 0) and S^D of a square rational S with Fitting index nu.

    On K ⊕ H0, S^nu = K^T A^nu C, with C giving a vector's coordinates in
    K. K's basis is in reduced echelon form, each vector 1 at its own pivot
    and 0 at the others', so the rows of S^nu at K's pivots are A^nu C, and
    S^D = K^T A^-1 C = K^T (A^-1)^(nu+1) (those rows). Off the spectrum
    (nu = 0) S is its own core and S^D = S^-1."""
    n = s.rows
    if not nu:
        return SubspaceBasis.full(n), SubspaceBasis.zero(n), s, inverse(s)
    top = s.power(nu)
    core, h0 = image_basis(top), kernel_basis(top)
    if not core.dim:
        return core, h0, None, ExactMatrix.zeros(n, n)
    a = restrict(s, core)
    rows = top.select_rows(core.pivots())
    return core, h0, a, core.matrix.transpose() @ inverse(a).power(nu + 1) @ rows


def _complex_fitting(m: ExactMatrix, s: ExactMatrix, re, im, nu: int):
    """_fitting of the realified S ~ m - lam, lam = re + i*im, im != 0,
    from _fitting of the d x d matrix q = q(m) = N^2 + im^2 I, N = m - re
    (model.real_quadratic), at the same nu: W = R(q^nu), V = N(q^nu), q^D.

    Over C, V holds the generalized eigenspaces of lam and conj(lam) and W
    the rest. On V, N = im*J plus a nilpotent part that commutes with it,
    J^2 = -I; in V's basis J = Z/c, im = c/e, where Newton's step
    Z <- (Z^2 - c^2)(2Z)^-1 from Z = e*N|V squares the nilpotent part Z - cJ
    (over 2Z), so ceil(log2 nu) steps reach cJ. P = I - q q^D projects on V
    along W, and the rows of P at V's pivots give a vector's coordinates in
    V. On the pairs (u, v) ~ u + i*v:
    - H0 = N((m - lam)^nu) = {(v, -Jv) : v in V}, basis [V | -V J^T];
    - K = {(v, Jv)} + W x W = {(x, JPx)} + 0 x W, whose reduced echelon
      basis is [[I, R], [0, W]], R = (JP)^T with W's pivot columns cleared
      by W's rows (I alone where V = 0);
    - S^D = X + iY is (N + i*im) q^D on W, 0 on H0, and on the conjugate
      eigenspace, with projection (P + iJP)/2 and where i acts as -J,
      (N + im*J)^-1 (the Neumann sum -sum_{j<nu} (2i*im)^(-j-1) N_n^j,
      N_n the nilpotent part). Off the spectrum (nu = 0) V = 0 and S^D is
      (N + i*im) q^-1."""
    d, (c, e) = m.rows, (im.numerator, im.denominator)
    n, q = m.minus_scalar(re), real_quadratic(m, re, im)
    w, v, _, qd = _fitting(q, nu)
    x, y = n @ qd, qd  # S^D = realify(x, y, im), X = x and Y = im*y
    if not v.dim:
        return SubspaceBasis.full(2 * d), SubspaceBasis.zero(2 * d), s, realify(x, y, im)
    z0 = z = restrict(n, v).scaled(e)
    for _ in range((nu - 1).bit_length()):
        z = (z @ z).minus_scalar(c * c) @ inverse(z.scaled(2))
    eye, piv, vt = ExactMatrix.identity(d), v.pivots(), v.matrix.transpose()
    coords = eye.select_rows(piv) - q.select_rows(piv) @ qd
    j_coords = z.scaled(1, c) @ coords  # JP in V's basis
    jp = vt @ j_coords
    r = (jp - w.matrix.transpose() @ jp.select_rows(w.pivots())).transpose()
    core = SubspaceBasis(block([[eye, r], [ExactMatrix.zeros(w.dim, d), w.matrix]]))
    h0 = SubspaceBasis(block([[v.matrix, z.transpose().scaled(-1, c) @ v.matrix]]))
    half_inv = vt @ inverse(z0 + z).scaled(e, 2)  # (N + im*J)|V^-1 / 2
    x, y = x + half_inv @ coords, y + half_inv @ j_coords.scaled(e, c)
    return core, h0, restrict(s, core), realify(x, y, im)


@dataclass(frozen=True)
class ExprAnalysis:
    """The full profile and summary of (e - lam)^power, with the per-atom
    analyses at lam (also where no decomposition exists); gkd_pair builds
    the splits from them on request."""

    expr: OperatorExpr
    point: Point
    power: int
    parts: tuple[AtomAnalysis, ...]
    full: StructuralProfile
    summary: StructuralSummary

    @property
    def decomposable(self) -> bool:
        return self.full.is_pseudofredholm_point


def analyze_expr(e: OperatorExpr, lam: Point, power: int = 1) -> ExprAnalysis:
    """The analysis of (e - lam)^power: the entry for its full profile and
    its summary (alpha, beta, p, q, index, dis). Where no decomposition
    exists, decomposable is False, alpha through q are None and the index
    is undefined."""
    return assemble_analysis(e, lam, tuple(analyze_atom(a, lam) for a in e.atoms), power)


def assemble_analysis(
    e: OperatorExpr, lam: Point, parts: tuple[AtomAnalysis, ...], power: int = 1
) -> ExprAnalysis:
    """The full profile and summary of (e - lam)^power from the analyses
    of e's atoms at lam, in order: the full profile is the power of the
    direct sum of their profiles. The summary is read off the parts'
    semi-regular pieces alone: a semi-regular T has N(T^n) inside R(T^k)
    for all n and k, so its meet and join chains are constant, c_n = alpha
    and b_n = beta, and its kernel and range chains linear, n*alpha and
    n*beta. Hence alpha and beta of the power are the pieces' chains summed
    at n = power, and p (q) is 0 where alpha (beta) is 0 and infinite
    otherwise."""
    full = power_profile(direct_sum_profile([p.profile for p in parts]), power)
    dis = full.c.stabilization_point()
    if not full.is_pseudofredholm_point:
        summary = StructuralSummary(None, None, None, None, UNDEF_INDEX, dis)
        return ExprAnalysis(e, lam, power, parts, full, summary)
    m_profs = [p.m_profile for p in parts if p.m_profile is not None]
    alpha = sum((m.a.at(power) for m in m_profs), ZERO)
    beta = sum((m.r.at(power) for m in m_profs), ZERO)
    summary = StructuralSummary(
        alpha=alpha,
        beta=beta,
        p=ZERO if alpha == ZERO else INF,
        q=ZERO if beta == ZERO else INF,
        index=ExtIndex.from_alpha_beta(alpha, beta),
        dis=dis,
    )
    return ExprAnalysis(e, lam, power, parts, full, summary)


def gkd_pair(an: ExprAnalysis) -> GKDPair:
    """The entry for the decomposition of an analysis: the split of every
    matrix atom, and the pieces of each side, a matrix atom's split
    restrictions and a shift atom wholesale on the side its profile names.
    The canonical decomposition where an.decomposable."""
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


def drazin_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact Drazin inverse of a square rational matrix, from its split
    at 0."""
    return matrix_split(analyze_atom(Atom("matrix", m), point(0)), 0).drazin
