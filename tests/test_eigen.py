"""Rank-first matrix atoms: the characteristic polynomial that scan keys
evaluate, the eigenvalue decision by the first rank, and differential
checks of the analysis from ranks (of q(m) at complex points) and of the
scans' keyed shortcut against the exact Fitting split of the realified
block; and of what is derived from that one split (chains, block
profiles, the Drazin inverse) against the routes that compute it a second
way."""
import json
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_reference
from fraction_reference import char_poly
from fredprofile import docio, linalg, model, spectra, structure, verify
from fredprofile.classify import classify
from fredprofile.cli import main
from fredprofile.errors import InternalInvariantError
from fredprofile.extvals import EvAffineSeq, ExtNat
from fredprofile.linalg import (
    ExactMatrix,
    image_basis,
    inverse,
    kernel_basis,
    rank,
    restrict,
    root_multiplicity,
    subspace_intersection,
    subspace_sum,
)
from fredprofile.model import (
    Atom,
    INVERTIBLE_PROFILE,
    OperatorExpr,
    RIGHT_SHIFT,
    matrix_chain_data,
    matrix_profile,
    realified,
)
from fredprofile.spectra import GridSpec, scan, scan_to_csv
from fredprofile.structure import MatrixSplit, analyze_atom, drazin_inverse, matrix_split
from fredprofile.verify import (
    alpha_beta_core_oracle,
    raw_powers,
    split_certificate,
    subspace_meet_join,
)

COORDS = (F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2))


def mat(rows):
    return ExactMatrix.from_rows([[F(x) for x in r] for r in rows])


@st.composite
def matrix_and_point(draw, max_dim=6):
    """A rational d x d matrix (d <= max_dim) and a point, real or complex.

    Half the draws plant the point as an eigenvalue: the matrix is P T P^-1
    with P unimodular and T block upper triangular, its first diagonal
    block the point (real) or C = [[re, -im], [im, re]] (complex); for
    d >= 4 some complex draws plant the Jordan chain [[C, I], [0, C]] of
    length 2 instead, and for d = 6 some of those the chain of length 3,
    [[C, I, 0], [0, C, I], [0, 0, C]]."""
    d = draw(st.integers(1, max_dim))
    re = draw(st.sampled_from(COORDS))
    im = draw(st.sampled_from(COORDS)) if draw(st.booleans()) else F(0)
    ints = st.integers(-2, 2)
    rows = [[F(draw(ints)) for _ in range(d)] for _ in range(d)]
    if not draw(st.booleans()):
        return ExactMatrix.from_rows(rows), (re, im)
    if d == 1:
        im = F(0)
    for i in range(d):
        for j in range(i):
            rows[i][j] = F(0)
    if im:
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = re, -im, im, re
        k = 2
        while k + 2 <= d and draw(st.booleans()):
            rows[k - 2][k : k + 2], rows[k - 1][k : k + 2] = [F(1), F(0)], [F(0), F(1)]
            rows[k][k], rows[k][k + 1], rows[k + 1][k], rows[k + 1][k + 1] = re, -im, im, re
            k += 2
    else:
        rows[0][0] = re
    unit = st.integers(-1, 1)
    lower = [[draw(unit) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [[draw(unit) if j > i else int(i == j) for j in range(d)] for i in range(d)]
    p = mat(lower) @ mat(upper)
    return p @ ExactMatrix.from_rows(rows) @ inverse(p), (re, im)


def _over_c(ranks, lam):
    """Ranks of a block in the realified space as ranks over C: at a
    complex point each is even, and halved."""
    if not lam[1]:
        return tuple(ranks)
    assert all(r % 2 == 0 for r in ranks)
    return tuple(r // 2 for r in ranks)


def _realified_data(m, lam):
    """matrix_chain_data(m, lam) from the chain of the realified block
    itself, not of q(m)."""
    return _over_c(matrix_chain_data(realified(m, *lam)), lam)


def _slow_everywhere(mp, ranked=None):
    """Take every matrix atom's ranks from the realified block, whatever
    multiplicity is passed, and give scans the eigenvalue path at every
    candidate point, where den*lam is a Gaussian integer: their root test
    finds a root at each. On the unit-step 3 x 3 grid of
    test_scan_csv_same_on_either_path every point is a candidate, for any
    matrix. ranked, when given, collects the points at which ranks were
    taken."""

    def realified_data(m, lam, mult=None):
        if ranked is not None:
            ranked.append(lam)
        return _realified_data(m, lam)

    mp.setattr(spectra, "root_multiplicity", lambda coeffs, zr, zi: 1)
    for mod in (model, structure, spectra):
        mp.setattr(mod, "matrix_chain_data", realified_data)


def _fitting_reference(m, lam):
    """The exact Fitting split of m's shifted block S at any point,
    eigenvalue or not: K = R(S^nu) and H0 = N(S^nu) from a fresh chain
    computation and the raw power S^nu, S restricted to each, and the
    Drazin inverse as P diag(A^-1, 0) P^-1 (_reference_drazin)."""
    s = realified(m, *lam)
    nu = len(matrix_chain_data(s)) - 2
    top = raw_powers(s, nu)[nu]
    core, h0 = image_basis(top), kernel_basis(top)
    m_atom, n_atom = (Atom("matrix", restrict(s, b)) if b.dim else None for b in (core, h0))
    return MatrixSplit(0, s, core, h0, m_atom, n_atom, _reference_drazin(s))


def test_char_poly_known():
    assert char_poly(mat([[0, -1], [1, 0]])) == (1, 0, 1)
    assert char_poly(mat([[2, 0], [0, 3]])) == (6, -5, 1)
    assert char_poly(mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])) == (0, 0, 0, 1)
    assert char_poly(mat([["1/2", 1], ["1/3", 0]])) == (F(-1, 3), F(-1, 2), 1)
    # det(xI - M) at x = 0 is (-1)^d det(M)
    assert char_poly(mat([[1, 2, 3], [0, 1, 4], [5, 6, 0]]))[0] == -1


def test_char_poly_computed_once():
    m = mat([[1, 2], [3, 4]])
    assert m._scaled_char_poly is m._scaled_char_poly


def _first_rank_singular(m, re, im=0):
    """The eigenvalue decision at one point: the first rank over C of
    m - lam is below d."""
    return matrix_chain_data(m, (F(re), F(im)))[1] < m.rows


def test_is_eigenvalue_known():
    rot = mat([[0, -1], [1, 0]])
    assert _first_rank_singular(rot, 0, 1) and _first_rank_singular(rot, 0, -1)
    assert not _first_rank_singular(rot, 0) and not _first_rank_singular(rot, 1)
    d = mat([[F(1, 2), 0], [0, -3]])
    assert _first_rank_singular(d, F(1, 2)) and _first_rank_singular(d, -3)
    assert not _first_rank_singular(d, F(1, 2), F(1, 2))


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = Random(7)
    for _ in range(60):
        d = rng.randint(1, 7)
        rows = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)
        ]
        expected = sympy.Matrix(
            [[sympy.Rational(e.numerator, e.denominator) for e in r] for r in rows]
        ).charpoly(x).all_coeffs()[::-1]
        got = char_poly(ExactMatrix.from_rows(rows))
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == expected


@settings(max_examples=150, deadline=None)
@given(matrix_and_point())
def test_is_eigenvalue_matches_realified_rank(mp):
    m, (re, im) = mp
    s = realified(m, re, im)
    assert _first_rank_singular(m, re, im) == (rank(s) < s.rows)
    assert fraction_reference.is_eigenvalue(m, re, im) == (rank(s) < s.rows)


# q(m) = (m + 2)^2 + 4 = 0 at -2-2i, yet m - lam has a core: the conjugate
# eigenspace. The ranks of q(m) itself would make m - lam nilpotent.
Q_ZERO = (mat([[-2, 2], [-2, -2]]), (F(-2), F(-2)))

# the rotation by i, and a complex Jordan chain of length 2 at +-i
ROT = mat([[0, -1], [1, 0]])
ROT_CHAIN = mat([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]])
# and one of length 3, [[ROT, I, 0], [0, ROT, I], [0, 0, ROT]]
ROT_CHAIN3 = mat(
    [
        [0, -1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, -1, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0],
    ]
)


# Q_ZERO's matrix at 2 - 2i, off its spectrum -2 +- 2i
Q_ZERO_OFF = (Q_ZERO[0], (F(2), F(-2)))


@settings(max_examples=100, deadline=None)
@given(matrix_and_point())
@example(Q_ZERO)
@example(Q_ZERO_OFF)
@example((ROT_CHAIN, (F(0), F(1))))
@example((ROT_CHAIN3, (F(0), F(1))))
@example((ROT_CHAIN3, (F(0), F(-1))))
def test_fast_atom_analysis_equals_fitting_split(mp):
    m, lam = mp
    atom = Atom("matrix", m)
    part = analyze_atom(atom, lam)
    assert matrix_split(part, 0) == _fitting_reference(m, lam)
    # the ranks over C are the realified block's at a real point and half
    # of them at a complex one
    ranks = matrix_chain_data(m, lam)
    block = matrix_chain_data(realified(m, *lam))
    assert (tuple(2 * r for r in ranks) if lam[1] else ranks) == block
    assert part.profile == matrix_profile(_over_c(block, lam))
    if not fraction_reference.is_eigenvalue(m, *lam):
        assert part.profile == INVERTIBLE_PROFILE


def _fraction_chain_at_i(d, nu, seed):
    """A d x d matrix with one complex Jordan chain of length nu at i: the
    chain [[ROT, I, ...], [0, ROT, ...], ...] in the first 2 nu rows and
    columns, and in the other columns of every row a fraction +-p/q with p
    and q of 3 digits (random.Random(seed)); rows and columns are then
    permuted alike."""
    rng = Random(seed)
    c = 2 * nu

    def frac():
        return F(rng.choice((-1, 1)) * rng.randint(100, 999), rng.randint(100, 999))

    rows = [[F(0)] * c + [frac() for _ in range(d - c)] for _ in range(d)]
    for b in range(0, c, 2):
        rows[b][b + 1], rows[b + 1][b] = F(-1), F(1)
        if b:
            rows[b - 2][b], rows[b - 1][b + 1] = F(1), F(1)
    perm = list(range(d))
    rng.shuffle(perm)
    return ExactMatrix.from_rows([[rows[i][j] for j in perm] for i in perm])


@pytest.mark.parametrize("d, nu", [(8, 2), (8, 3), (8, 4), (12, 3)])
def test_complex_split_of_fraction_chains(d, nu, monkeypatch):
    # the split at i works at dimension d: no image, kernel or inverse of
    # the 2d x 2d block. It equals the realified route's at d = 8; at
    # d = 12, where that route takes seconds, the certificate checks it
    m, lam = _fraction_chain_at_i(d, nu, 1), (F(0), F(1))
    assert matrix_chain_data(m, lam) == tuple(range(d, d - nu - 1, -1)) + (d - nu,)
    eliminated = [
        _count_calls(monkeypatch, linalg, name)
        for name in ("image_basis", "kernel_basis", "inverse")
    ]
    split = matrix_split(analyze_atom(Atom("matrix", m), lam), 0)
    assert max(c[0].rows for calls in eliminated for c in calls) <= d
    s = realified(m, *lam)
    assert split.block == s
    assert all(ok for _, ok, _, _ in split_certificate(s, split, nu))
    if d == 8:
        assert split == _fitting_reference(m, lam)


# a Jordan chain of length 3 at 1/2 next to the eigenvalue 2
J3_AT_HALF = mat([[F(1, 2), 1, 0, F(1, 3)], [0, F(1, 2), 1, 0], [0, 0, F(1, 2), 0], [0, 0, 0, 2]])


@pytest.mark.parametrize(
    "m, lam, nu",
    [(J3_AT_HALF, (F(1, 2), F(0)), 3), (ROT_CHAIN, (F(0), F(1)), 2), (J3_AT_HALF, (F(1, 3), F(0)), 0)],
    ids=["real_nu_3", "complex_chain_at_i", "off_the_spectrum"],
)
def test_split_certificate_fails_broken_splits(m, lam, nu):
    split = matrix_split(analyze_atom(Atom("matrix", m), lam), 0)

    def failed(sp):
        return {prop for prop, ok, _, _ in split_certificate(split.block, sp, nu) if not ok}

    assert failed(split) == set()
    rows = split.drazin.to_rows()
    rows[-1][0] += 1
    assert failed(replace(split, drazin=ExactMatrix.from_rows(rows))) == {"drazin_axioms"}
    swapped = replace(
        split,
        m_basis=split.n_basis,
        n_basis=split.m_basis,
        m_atom=split.n_atom,
        n_atom=split.m_atom,
    )
    # off the spectrum the swapped core side is empty, and has no block to check
    want = {"core_restriction_invertible"} if nu else set()
    assert failed(swapped) == want | {"h0_restriction_nilpotent_degree"}


@settings(max_examples=100, deadline=None)
@given(matrix_and_point())
@example(Q_ZERO)
@example(Q_ZERO_OFF)
def test_complex_off_spectrum_drazin_is_the_block_inverse(mp):
    # off the spectrum the split's inverse comes from q(m)'s, d x d; it
    # must be the inverse of the realified block
    m, (re, im) = mp
    assume(im)
    s = realified(m, re, im)
    split = matrix_split(analyze_atom(Atom("matrix", m), (re, im)), 0)
    if rank(s) < s.rows:
        assert split.n_basis.dim
    else:
        assert split.drazin == inverse(s)


@settings(max_examples=60, deadline=None)
@given(matrix_and_point(), st.booleans())
@example(Q_ZERO, False)
@example(Q_ZERO, True)
def test_classify_same_on_either_path(mp, with_shift):
    m, lam = mp
    atoms = (RIGHT_SHIFT, Atom("matrix", m)) if with_shift else (Atom("matrix", m),)
    e = OperatorExpr(atoms)
    # the analysis too: a record's flags and summary do not see the
    # dimensions of a nilpotent matrix block, its profiles do
    fast = classify(e, lam), structure.analyze_expr(e, lam)
    with pytest.MonkeyPatch.context() as patch:
        _slow_everywhere(patch)
        slow = classify(OperatorExpr(atoms), lam), structure.analyze_expr(e, lam)
    assert fast == slow


@settings(max_examples=25, deadline=None)
@given(matrix_and_point())
def test_scan_csv_same_on_either_path(mp):
    m, _ = mp
    # unit-step grid: holds 0, +-1, +-i, +-1+-i, where planted eigenvalues sit
    grid = GridSpec(F(-1), F(1), F(-1), F(1), 3, 3)
    fast = scan(OperatorExpr.of(RIGHT_SHIFT, Atom("matrix", m)), grid)
    ranked = []
    with pytest.MonkeyPatch.context() as patch:
        _slow_everywhere(patch, ranked)
        slow = scan(OperatorExpr.of(RIGHT_SHIFT, Atom("matrix", m)), grid)
    # the slow scan took ranks at every grid point, once each
    assert sorted(ranked) == sorted(grid.points())
    assert fast.records == slow.records
    assert scan_to_csv(fast) == scan_to_csv(slow)


_STEPS = (F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4))


@st.composite
def matrix_and_grid(draw):
    """A matrix_and_point draw and a grid of at most 5 x 5 points whose
    axes hold the point's coordinates or miss them by half a step. Axis
    steps differ in denominator, and an integer coordinate on an axis of
    step 1/2 or 1/4 is a reducible numerator over the axis denominator."""
    m, lam = draw(matrix_and_point())
    axes = []
    for x in lam:
        h, n = draw(st.sampled_from(_STEPS)), draw(st.integers(1, 5))
        lo = x - draw(st.integers(0, n - 1)) * h
        if draw(st.booleans()):
            lo += h / 2
        axes.append((lo, lo + (n - 1) * h, n))
    (re_lo, re_hi, re_n), (im_lo, im_hi, im_n) = axes
    return m, GridSpec(re_lo, re_hi, im_lo, im_hi, re_n, im_n)


# eigenvalues at reducible numerators of a half-step axis: the 0 and 2 of
# J_2(0) + (2) on re in [-1, 2], 2 = 4/2; the rotation's +-i at im = +-2/2;
# and Q_ZERO's -2 +- 2i on a grid with D_r = 2 and D_i = 1
JP = mat([[2, 1, 0], [0, 0, 1], [0, 0, 0]])


@settings(max_examples=150, deadline=None)
@given(matrix_and_grid())
@example((JP, GridSpec(-1, 2, 0, 0, 7, 1)))
@example((ROT, GridSpec(-1, 1, -1, 1, 3, 5)))
@example((Q_ZERO[0], GridSpec(-3, -1, -2, 2, 5, 3)))
def test_scan_eigenvalue_keys_equal_fraction_reference(mg):
    m, grid = mg
    want = [p for p in grid.points() if fraction_reference.is_eigenvalue(m, *p)]
    chains = []
    chain = spectra.matrix_chain_data

    def counting(a, lam, mult):
        chains.append((lam, mult))
        return chain(a, lam, mult)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "matrix_chain_data", counting)
        s = scan(OperatorExpr.of(RIGHT_SHIFT, Atom("matrix", m)), grid)
    # each eigenvalue is a key of its own, with its multiplicity; only
    # eigenvalues can take ranks, as a multiplicity of 0 ends the chain at d
    assert [lam for lam, mult in chains if mult] == want
    for lam, mult in chains:
        assert m.rows - matrix_chain_data(m, lam)[-1] == mult
    # and the decision at one point, by the first rank, agrees
    got = [_first_rank_singular(m, *p) for p in grid.points()]
    assert got == [p in want for p in grid.points()]
    assert len(s.ids) == len(grid.points())


@st.composite
def repeated_root_and_point(draw, max_dim=6):
    """A d x d matrix P T P^-1, P unimodular and T upper triangular, with the
    drawn real point on about half of T's diagonal and integers in -2..2,
    often 0, above it: chains of every length nu at the point, and
    diagonalizable repeated roots."""
    d = draw(st.integers(2, max_dim))
    lam = draw(st.sampled_from(COORDS))
    diag = [lam if draw(st.booleans()) else draw(st.sampled_from(COORDS)) for _ in range(d)]
    ints = st.sampled_from((-2, -1, 0, 0, 0, 1, 2))
    rows = [[diag[i] if j == i else F(draw(ints)) if j > i else F(0) for j in range(d)]
            for i in range(d)]
    unit = st.integers(-1, 1)
    lower = [[draw(unit) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    p = mat(lower)
    return p @ ExactMatrix.from_rows(rows) @ inverse(p), (lam, F(0))


def _gaussian_integer(m, lam):
    """z = den*lam as the pair (re, im) of ints, or None off Z[i]."""
    z = [m.den * x for x in lam]
    return None if any(x.denominator != 1 for x in z) else tuple(map(int, z))


def _multiplicity(m, lam):
    """root_multiplicity at lam as a scan takes it: 0 unless z = den*lam is
    a Gaussian integer, else z's multiplicity as a root of the polynomial
    of the integer matrix den*m."""
    z = _gaussian_integer(m, lam)
    return 0 if z is None else root_multiplicity(m._scaled_char_poly, *z)


# a diagonalizable double root at 1, ranks (3, 1, 1)
DOUBLE_ROOT = mat([[1, 0, 2], [0, 1, -2], [0, 0, -1]])
MULTIPLICITY_EXAMPLES = (
    Q_ZERO,
    (ROT_CHAIN, (F(0), F(1))),
    (ROT_CHAIN, (F(0), F(-1))),
    (mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 2]]), (F(1), F(0))),
    (DOUBLE_ROOT, (F(1), F(0))),
    (JP, (F(0), F(0))),
)


def _with_examples(test):
    for mp in MULTIPLICITY_EXAMPLES:
        test = example(mp)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrix_and_point(), repeated_root_and_point()))
@_with_examples
def test_root_multiplicity_is_where_the_chain_ends(mp):
    # dim N(S^nu) is the algebraic multiplicity of lam: the chain of ranks
    # over C ends at d - mult, 0 off the spectrum
    m, lam = mp
    mult = _multiplicity(m, lam)
    ranks = matrix_chain_data(m, lam)
    assert mult == m.rows - ranks[-1]
    assert (mult > 0) == fraction_reference.is_eigenvalue(m, *lam)
    # the chain that knows the multiplicity computes the same ranks
    assert matrix_chain_data(m, lam, mult) == ranks


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrix_and_point(), repeated_root_and_point()))
@_with_examples
@example((ROT, (F(0), F(1, 2))))
def test_no_eigenvalue_off_the_gaussian_integers_over_den(mp):
    # den*lam is a root of the integer matrix den*m's monic polynomial, an
    # algebraic integer of Q(i) and so in Z[i]: the scans test no other point
    m, lam = mp
    if _gaussian_integer(m, lam) is None:
        assert not fraction_reference.is_eigenvalue(m, *lam)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrix_and_point(), repeated_root_and_point()))
@_with_examples
def test_root_multiplicity_matches_sympy(mp):
    sympy = pytest.importorskip("sympy")
    m, (re, im) = mp
    x = sympy.Symbol("x")
    rows = [[sympy.Rational(v.numerator, v.denominator) for v in r] for r in m.to_rows()]
    p = sympy.Matrix(rows).charpoly(x).as_expr()
    z = sympy.Rational(re.numerator, re.denominator)
    z += sympy.I * sympy.Rational(im.numerator, im.denominator)
    # the multiplicity of z as a root of sympy's own characteristic
    # polynomial: the derivatives of p that vanish at z
    k = 0
    while sympy.expand(p.subs(x, z)) == 0:
        p, k = sympy.diff(p, x), k + 1
    assert _multiplicity(m, (re, im)) == k


def _odd_q_ranks(monkeypatch):
    # q(m) of a 2 x 2 atom reports a rank of the wrong parity: d + rank(q(m)^n)
    # must be even, since dim_Q N(q(m)^n) = 2 a_n
    rank = model.rank
    monkeypatch.setattr(model, "rank", lambda s: 1 if s.rows == 2 else rank(s))


def test_scaled_odd_realified_dimension_is_internal_error(monkeypatch):
    # at i, q(ROT) = ROT^2 + 1 = 0: ranks (2, 0, 0) over Q halve to (2, 1, 1)
    assert model.matrix_chain_data(ROT, (F(0), F(1))) == (2, 1, 1)
    _odd_q_ranks(monkeypatch)
    with pytest.raises(InternalInvariantError):
        model.matrix_chain_data(ROT, (F(0), F(1)))


def test_matrix_profile_scaled_check_survives_any_optimization_level(
    tmp_path, monkeypatch, capsys
):
    # the parity check is a raise, not an assert, so python -O keeps it; it
    # reaches analyze_atom and the CLI as an internal error
    _odd_q_ranks(monkeypatch)
    with pytest.raises(InternalInvariantError):
        analyze_atom(Atom("matrix", ROT), (F(0), F(1)))
    doc = tmp_path / "rot.json"
    rot = OperatorExpr.of(Atom("matrix", ROT))
    doc.write_text(docio.serialize_document(docio.OperatorDocument("rot", rot)))
    assert main(["analyze", "--in", str(doc), "--lambda", "0,1"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal error: ")


def test_chain_contradicting_its_multiplicity_is_internal_error(
    tmp_path, monkeypatch, capsys
):
    # at 1, diag(1, 1, 1, 2) has ranks (4, 1, 1) and diag(1, 1, 2, 3) has
    # (4, 2, 2); a multiplicity of 2 puts the end at 2, above the computed
    # rank 1, and one of 4 puts it at 0, below the computed repeat 2, 2.
    # These are raises, not asserts, so python -O keeps them
    one = (F(1), F(0))
    below = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    repeat = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    assert matrix_chain_data(below, one, 3) == matrix_chain_data(below, one) == (4, 1, 1)
    assert matrix_chain_data(repeat, one, 2) == matrix_chain_data(repeat, one) == (4, 2, 2)
    for m, mult in ((below, 2), (repeat, 4)):
        with pytest.raises(InternalInvariantError):
            matrix_chain_data(m, one, mult)
    # a scan handed a wrong multiplicity exits 6 with one line on stderr
    monkeypatch.setattr(spectra, "root_multiplicity", lambda coeffs, zr, zi: 4)
    doc = tmp_path / "repeat.json"
    expr = OperatorExpr.of(Atom("matrix", repeat))
    doc.write_text(docio.serialize_document(docio.OperatorDocument("repeat", expr)))
    assert main(["spectrum", "--in", str(doc), "--grid=1,1,0,0,1,1"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal error: ")


def _reference_drazin(m):
    """The Drazin inverse as P diag(A^-1, 0) P^-1, P = [K | H0], every
    factor built from a fresh chain computation and the raw powers."""
    nu = len(matrix_chain_data(m)) - 2
    top = raw_powers(m, nu)[nu]
    core, h0 = image_basis(top), kernel_basis(top)
    d = m.rows
    cols = core.vectors + h0.vectors
    p = ExactMatrix.from_rows([[cols[j][i] for j in range(d)] for i in range(d)])
    k = core.dim
    blk = ExactMatrix.zeros(d, d)
    if k:
        a_inv = inverse(restrict(m, core))
        ent = blk.to_rows()
        for i in range(k):
            for j in range(k):
                ent[i][j] = a_inv.at(i, j)
        blk = ExactMatrix.from_rows(ent)
    return p @ blk @ inverse(p)


@settings(max_examples=100, deadline=None)
@given(matrix_and_point())
def test_rank_derived_chains_equal_subspace_chains(mp):
    m, lam = mp
    s = realified(m, *lam)
    ranks = matrix_chain_data(s)
    prof = matrix_profile(ranks)
    assert (prof.c, prof.b) == subspace_meet_join(raw_powers(s, len(ranks) - 2))


def _meet_join_reference(powers):
    """subspace_meet_join as first written: an image and a kernel of every
    power m^0..m^nu by elimination, S^0 = I included."""
    d, nu = powers[0].rows, len(powers) - 2
    ker1, img1 = kernel_basis(powers[1]), image_basis(powers[1])
    meet = [ExtNat(subspace_intersection(image_basis(p), ker1).dim) for p in powers[: nu + 1]]
    join = [ExtNat(d - subspace_sum(img1, kernel_basis(p)).dim) for p in powers[: nu + 1]]
    return EvAffineSeq.from_samples(meet, nu), EvAffineSeq.from_samples(join, nu)


@settings(max_examples=60, deadline=None)
@given(repeated_root_and_point())
@example((mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 2]]), (F(0), F(0))))
def test_oracle_shortcuts_equal_the_routes_they_replace(mp):
    # the routes that verify's oracles replaced: the duality suite takes the
    # powers of m^T as transposes, subspace_meet_join takes its n = 0 terms
    # from N(S) and R(S), and the chains suite takes the restriction to the
    # range of m^0 = I as m itself; on S = m - lam, whose chain stops at nu
    m, (re, _) = mp
    m = m.minus_scalar(re)
    nu = len(matrix_chain_data(m)) - 2
    assume(nu >= 2)
    powers = raw_powers(m, nu)
    transposed = [p.transpose() for p in powers]
    assert transposed == raw_powers(m.transpose(), nu)
    want = _meet_join_reference(raw_powers(m.transpose(), nu))
    assert subspace_meet_join(transposed) == want
    assert subspace_meet_join(powers) == _meet_join_reference(powers)
    full = image_basis(ExactMatrix.identity(m.rows))
    sub = restrict(m, full)
    assert verify._restriction_defects(m, 0, powers[0]) == (
        kernel_basis(sub).dim,
        full.dim - rank(sub),
        full.dim,
    )


@settings(max_examples=100, deadline=None)
@given(matrix_and_point())
def test_derived_block_profiles_equal_block_chains(mp):
    m, lam = mp
    s = realified(m, *lam)
    part = analyze_atom(Atom("matrix", m), lam)
    split = matrix_split(part, 0)
    for blk, basis, prof in (
        (split.m_atom, split.m_basis, part.m_profile),
        (split.n_atom, split.n_basis, part.n_profile),
    ):
        if basis.dim:
            assert blk.matrix == restrict(s, basis)
            assert prof == matrix_profile(_over_c(matrix_chain_data(blk.matrix), lam))
        else:
            assert blk is None and prof is None


# a 3x3 Jordan block at 1 beside the invertible 1x1 block 2, at 1 (nu = 3)
JORDAN_AND_UNIT = mat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 2]])


@settings(max_examples=100, deadline=None)
@given(matrix_and_point())
@example((JORDAN_AND_UNIT, (F(1), F(0))))
@example((ROT_CHAIN, (F(0), F(1))))
@example((ROT_CHAIN3, (F(0), F(-1))))
@example(Q_ZERO)
@example((mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), (F(0), F(0))))
@example((mat([[2, 1], [1, 1]]), (F(1, 2), F(0))))
@example((mat([[2, 1], [1, 1]]), (F(1, 2), F(1, 3))))
def test_split_drazin_equals_reference(mp):
    m, lam = mp
    s = realified(m, *lam)
    want = _reference_drazin(s)
    assert matrix_split(analyze_atom(Atom("matrix", m), lam), 0).drazin == want
    # the reference itself satisfies the Drazin axioms
    nu = len(matrix_chain_data(s)) - 2
    top, nxt = raw_powers(s, nu)[nu:]
    assert want @ s == s @ want and want @ s @ want == want and nxt @ want == top
    assert drazin_inverse(s) == want


@settings(max_examples=100, deadline=None)
@given(matrix_and_point())
def test_core_oracle_of_shifted_block_is_zero(mp):
    # the report writes these two fields as constants
    m, lam = mp
    for split in (
        matrix_split(analyze_atom(Atom("matrix", m), lam), 0),
        _fitting_reference(m, lam),
    ):
        assert alpha_beta_core_oracle(split) == (ExtNat(0), ExtNat(0))


def _count_calls(monkeypatch, module, name):
    """Record every call of module.name, through every fredprofile module
    that imported it by name."""
    orig = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("fredprofile") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_analyze_is_one_pass(tmp_path, monkeypatch, capsys):
    # 1/2 is an eigenvalue of the second matrix atom only
    doc = tmp_path / "op.json"
    doc.write_text(
        json.dumps(
            {
                "name": "two_matrices",
                "atoms": [
                    {"type": "right_shift"},
                    {"type": "matrix", "entries": [["0", "-1"], ["1", "0"]]},
                    {"type": "matrix", "entries": [["1/2", "1"], ["0", "1/2"]]},
                ],
            }
        )
    )
    analyses = _count_calls(monkeypatch, structure, "analyze_expr")
    chain_data = _count_calls(monkeypatch, model, "matrix_chain_data")
    sums = _count_calls(monkeypatch, linalg, "subspace_sum")
    meets = _count_calls(monkeypatch, linalg, "subspace_intersection")
    assert main(["analyze", "--in", str(doc), "--lambda", "1/2,0"]) == 0
    capsys.readouterr()
    assert len(analyses) == 1
    # one chain per matrix atom: its first rank finds the rotation invertible
    assert [c[0].rows for c in chain_data] == [2, 2]
    assert sums == [] and meets == []


def _count_basis_calls(monkeypatch):
    return [
        _count_calls(monkeypatch, linalg, name)
        for name in ("restrict", "kernel_basis", "image_basis")
    ]


def test_classify_and_scan_build_no_basis(monkeypatch):
    # I + J3 has the single eigenvalue 1: one point of the unit-step grid
    # on [-1,1]^2 takes the rank path, the other eight are shortcut; no
    # point, eigenvalue or not, builds a basis or a restricted block
    m = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    e = OperatorExpr.of(RIGHT_SHIFT, Atom("matrix", m))
    ranks = _count_calls(monkeypatch, linalg, "rank")
    built = _count_basis_calls(monkeypatch)
    s = scan(e, GridSpec(F(-1), F(1), F(-1), F(1), 3, 3))
    scanned = len(ranks)
    at_one = classify(e, (F(1), F(0)))
    # the chain at 1 is (3, 2, 1, 0, 0): the scan knows the multiplicity 3,
    # which forces the rank after 1 and ends the chain, so it computes two
    # ranks; classify computes all four
    assert [r[0].rows for r in ranks] == [3] * 6 and scanned == 2
    assert built == [[], [], []]
    assert s.records[s.points.index((F(1), F(0)))] == at_one
    assert not at_one.invertible and at_one.nilpotent is False


def test_classify_and_scan_build_no_realified_block(monkeypatch):
    # the unit-step grid on [-1,1]^2 holds the eigenvalues +-i of both
    # atoms and complex points off them; their ranks come from q(m), d x d
    e = OperatorExpr.of(RIGHT_SHIFT, Atom("matrix", ROT), Atom("matrix", ROT_CHAIN))
    blocks = _count_calls(monkeypatch, model, "realified")
    ranks = _count_calls(monkeypatch, linalg, "rank")
    s = scan(e, GridSpec(F(-1), F(1), F(-1), F(1), 3, 3))
    at_i = [classify(e, lam) for lam in ((F(0), F(1)), (F(0), F(-1)), (F(1), F(1)))]
    assert blocks == []
    # the scan's keys at +-i: +-i are simple for ROT, ranks (2, 1, 1), none
    # computed, and double for ROT_CHAIN, ranks (4, 3, 2, 2), whose 3 forces
    # the 2; classify at +-i computes ROT's 1, 1 and ROT_CHAIN's 3, 2, 2, and
    # at 1 + i, off both spectra, each atom's first rank
    at_pm_i = [2, 2, 4, 4, 4]
    assert [r[0].rows for r in ranks] == [4, 4] + at_pm_i * 2 + [2, 4]
    assert s.records[s.points.index((F(0), F(1)))] == at_i[0]
    part = analyze_atom(Atom("matrix", ROT_CHAIN), (F(0), F(1)))
    assert [part.profile.a.at(n).value for n in range(4)] == [0, 1, 2, 2]
    assert part.m_profile == INVERTIBLE_PROFILE
    assert part.n_profile.nilpotency_degree == ExtNat(2)


PINNED = Path(__file__).resolve().parent / "demo_outputs"

# documents whose reports are pinned at a complex point, with that point:
# off the spectrum of both matrix atoms (a real Jordan block at 1/2 and a
# rotation-scaling block with eigenvalues 1/2 +- i/2), whose Drazin
# inverses are then their inverses; and the complex Jordan chain at i.
# Also pinned: the left shift plus the weighted shift, whose ranges are
# closed only at n = 0, at 0 (decomposable) and at 1 on the unit circle
# (not decomposable)
_LQ = {"name": "lq", "atoms": [{"type": "left_shift"}, {"type": "qnil_shift"}]}
COMPLEX_REPORTS = {
    "analyze_off_spectrum_complex": (
        {
            "name": "off_spectrum",
            "atoms": [
                {"type": "right_shift"},
                {
                    "type": "matrix",
                    "entries": [["1/2", "1", "0"], ["0", "1/2", "1"], ["0", "0", "1/2"]],
                },
                {"type": "matrix", "entries": [["1/2", "-1/2"], ["1/2", "1/2"]]},
            ],
        },
        "1/2,1/3",
    ),
    "analyze_rot_chain_at_i": (
        {
            "name": "rot_chain",
            "atoms": [{"type": "matrix", "entries": docio.matrix_rows(ROT_CHAIN)}],
        },
        "0,1",
    ),
    "analyze_left_qnil_at_0": (_LQ, "0,0"),
    "analyze_left_qnil_at_1": (_LQ, "1,0"),
}


@pytest.mark.parametrize("name", COMPLEX_REPORTS)
def test_complex_point_report_is_pinned(name, tmp_path, capsys):
    doc, lam = COMPLEX_REPORTS[name]
    f = tmp_path / "op.json"
    f.write_text(json.dumps(doc))
    assert main(["analyze", "--in", str(f), "--lambda", lam]) == 0
    assert capsys.readouterr().out == (PINNED / f"{name}.json").read_text()


def test_analysis_builds_no_characteristic_polynomial(tmp_path, monkeypatch, capsys):
    # 1/2 and i are eigenvalues (of the Jordan block, of the rotation), 1/3
    # and 1/2 + i/3 are not; J3's eigenvalue 0 is its Drazin inverse's point
    polys = []
    berkowitz = ExactMatrix.__dict__["_scaled_char_poly"].func

    def counting(self):
        polys.append(self)
        return berkowitz(self)

    monkeypatch.setattr(ExactMatrix, "_scaled_char_poly", property(counting))
    jordan = mat([["1/2", 1], [0, "1/2"]])
    e = OperatorExpr.of(RIGHT_SHIFT, Atom("matrix", ROT), Atom("matrix", jordan))
    def write(expr):
        f = tmp_path / "op.json"
        f.write_text(docio.serialize_document(docio.OperatorDocument("op", expr)))
        return str(f)

    doc = write(e)
    for re, im in (("1/2", "0"), ("1/3", "0"), ("0", "1"), ("1/2", "1/3")):
        assert main(["analyze", "--in", doc, "--lambda", f"{re},{im}"]) == 0
        classify(e, (F(re), F(im)))
    for m in (jordan, mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])):
        assert main(["drazin", "--in", write(OperatorExpr.of(Atom("matrix", m)))]) == 0
    capsys.readouterr()
    # nor does a scan with no candidate: on axes of denominator 7, den*lam
    # is a Gaussian integer for neither matrix (den 1 and 2) at any point,
    # though den*re is one in the column re = 0
    scan(e, GridSpec(F(0), F(2, 7), F(1, 7), F(3, 7), 3, 3))
    assert polys == []
    # the scans' keys do evaluate it
    scan(e, GridSpec(F(0), F(1), F(0), F(1), 2, 2))
    assert polys


def test_analyze_realifies_once_per_matrix_atom(tmp_path, monkeypatch, capsys):
    # i is an eigenvalue of the rotation only; the report prints both
    # atoms' splits on the realified block
    doc = tmp_path / "op.json"
    doc.write_text(
        json.dumps(
            {
                "name": "rotation_and_jordan",
                "atoms": [
                    {"type": "right_shift"},
                    {"type": "matrix", "entries": [["0", "-1"], ["1", "0"]]},
                    {"type": "matrix", "entries": [["1/2", "1"], ["0", "1/2"]]},
                ],
            }
        )
    )
    blocks = _count_calls(monkeypatch, model, "realified")
    assert main(["analyze", "--in", str(doc), "--lambda", "0,1"]) == 0
    capsys.readouterr()
    assert [(b[0].rows, b[2]) for b in blocks] == [(2, F(1)), (2, F(1))]


def test_engine_builds_no_fraction_between_parse_and_render(monkeypatch):
    # I + J3 at its eigenvalue 1 (ranks, split, restriction), off it at a
    # real and a complex point (the realified block, and there the inverse
    # of q(m)), and on a scan through all three kinds; beside it a block
    # with a core at 1, whose Drazin inverse inverts the core block, and
    # the complex Jordan chain at its eigenvalue i (the split of q(m), and
    # Newton's iteration for the complex structure on its kernel)
    m = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    mixed = mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    e = OperatorExpr.of(
        RIGHT_SHIFT, Atom("matrix", m), Atom("matrix", mixed), Atom("matrix", ROT_CHAIN)
    )
    points = [(F(1), F(0)), (F(1, 2), F(0)), (F(1, 2), F(-1, 3)), (F(0), F(1))]
    grid = GridSpec(F(-1), F(1), F(-1), F(1), 3, 3)
    built = []

    class CountingFraction(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return F(*args, **kwargs)

    for mod in (linalg, model, structure):
        monkeypatch.setattr(mod, "Fraction", CountingFraction, raising=False)
    for lam in points:
        pair = structure.gkd_pair(structure.analyze_expr(e, lam))
        assert len(pair.splits) == 3
    scan(e, grid)
    assert built == []
    # the read-only views are where Fractions are built
    assert m.at(0, 1) == 1 and built == [(1, 1)]


def test_summary_only_verify_suites_build_no_basis(monkeypatch):
    # the catalog's Jordan atoms put eigenvalues at 0
    built = _count_basis_calls(monkeypatch)
    for suite in (verify.suite_index_laws, verify.suite_punctured, verify.suite_spectra):
        assert suite(1, 0).ok
    assert built == [[], [], []]
