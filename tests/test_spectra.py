import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference
from fredprofile import spectra
from fredprofile.catalog import by_name
from fredprofile.classify import FLAG_NAMES, classify, classify_analysis
from fredprofile.docio import rational_str
from fredprofile.linalg import ExactMatrix, inverse
from fredprofile.model import (
    ATOM_KINDS,
    Atom,
    LEFT_SHIFT,
    OperatorExpr,
    QNIL_SHIFT,
    QNIL_SHIFT_DUAL,
    RIGHT_SHIFT,
    matrix_atom,
    point,
    shift_region,
)
from fredprofile.spectra import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    Component,
    ComponentReport,
    GridSpec,
    SPECTRUM_NAMES,
    SpectrumScan,
    component_index_report,
    component_runs,
    scan,
    scan_to_csv,
    scan_to_json,
    spectrum_membership,
    spectrum_membership_at,
)

J2 = matrix_atom([[0, 1], [0, 0]])
R = OperatorExpr.of(RIGHT_SHIFT)


def grid(n=9, lo=-2, hi=2):
    return GridSpec(F(lo), F(hi), F(lo), F(hi), n, n)


def test_grid_points_exact_and_row_major():
    g = GridSpec(F(-2), F(2), F(-2), F(2), 33, 33)
    res = g.re_values()
    assert res[0] == F(-2) and res[-1] == F(2)
    assert res[1] - res[0] == F(1, 8)
    pts = g.points()
    assert len(pts) == 33 * 33
    assert pts[0] == (F(-2), F(-2))
    assert pts[1] == (F(-15, 8), F(-2))  # real part moves fastest
    assert pts[33] == (F(-2), F(-15, 8))


def test_grid_single_step_axis():
    g = GridSpec(F(0), F(5), F(1), F(1), 3, 1)
    assert g.im_values() == [F(1)]
    assert g.re_values() == [F(0), F(5, 2), F(5)]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(F(0), F(1), F(0), F(1), 0, 3)
    with pytest.raises(ValueError):
        GridSpec(F(1), F(0), F(0), F(1), 3, 3)
    # the point count is checked before any point is built
    side = math.isqrt(MAX_GRID_POINTS)
    assert side * side == MAX_GRID_POINTS
    GridSpec(F(0), F(1), F(0), F(1), side, side)
    with pytest.raises(ValueError, match="more than the limit"):
        GridSpec(F(0), F(1), F(0), F(1), side + 1, side)
    with pytest.raises(ValueError, match="more than the limit"):
        GridSpec(F(0), F(1), F(0), F(1), 10**9, 10**9)


@pytest.mark.parametrize("steps", [(5.0, 5), (5.5, 5), (5, True), (10.0**9, 10**9)])
def test_grid_step_counts_must_be_ints(steps):
    # checked before the point count, so a huge float count is a TypeError too
    with pytest.raises(TypeError, match="step counts must be ints"):
        GridSpec(-2, 2, -2, 2, *steps)


def test_grid_bounds_are_exact_rationals():
    # int and "p/q" bounds become Fractions, so the axis values stay exact
    ints = GridSpec(-2, 2, -2, 2, 5, 5)
    fracs = GridSpec(F(-2), F(2), F(-2), F(2), 5, 5)
    assert ints == fracs
    assert GridSpec("-1/2", "1/2", 0, 0, 3, 1).re_values() == [F(-1, 2), F(0), F(1, 2)]
    e = OperatorExpr.of(RIGHT_SHIFT, J2)
    assert scan_to_csv(scan(e, ints)) == scan_to_csv(scan(e, fracs))
    with pytest.raises(TypeError, match="not an exact rational"):
        GridSpec(-2, 2, -0.5, 0.5, 5, 5)


def test_spectrum_names():
    assert SPECTRUM_NAMES == (
        "upbf", "lpbf", "spbf", "pbf", "upbw", "lpbw", "spbw", "pbw",
    )
    with pytest.raises(ValueError):
        spectrum_membership(classify(R, point(0)), "nope")


def test_membership_right_shift():
    assert not spectrum_membership_at(R, point(0), "pbf")
    assert spectrum_membership_at(R, point(0), "pbw")  # index -1 is not 0
    assert not spectrum_membership_at(R, point(0), "upbw")
    assert spectrum_membership_at(R, point(0), "lpbw")
    assert spectrum_membership_at(R, point(F(3, 5), F(4, 5)), "pbf")
    assert not spectrum_membership_at(R, point(2), "pbw")
    # the semi spectrum needs both one-sided regularities to fail
    assert not spectrum_membership_at(R, point(0), "spbf")
    assert spectrum_membership_at(R, point(0, 1), "spbf")


def test_scan_right_shift_regions():
    s = scan(R, grid(9))
    for (re, im), rec in zip(s.points, s.records):
        mod2 = re * re + im * im
        if mod2 < 1:
            assert rec.fredholm and rec.summary.index.to_str() == "-1"
        elif mod2 > 1:
            assert rec.invertible
        else:
            assert not rec.pseudo_fredholm


def test_scan_union_identity_pointwise():
    s = scan(OperatorExpr.of(RIGHT_SHIFT, J2), grid(7))
    for rec in s.records:
        for full, up, lo in (("pbf", "upbf", "lpbf"), ("pbw", "upbw", "lpbw")):
            assert spectrum_membership(rec, full) == (
                spectrum_membership(rec, up) or spectrum_membership(rec, lo)
            )


def test_component_report_right_shift():
    s = scan(R, grid(9))
    rep = component_index_report(s, "upbf")
    assert rep.set_name == "upbf"
    assert [(c.id, c.index) for c in rep.components] == [(0, "0"), (1, "-1")]
    outside, inside = rep.components
    assert outside.first_point == ("-2", "-2")
    assert outside.point_count + inside.point_count == 81 - 4  # four circle points


def test_component_report_nilpotent_matrix():
    s = scan(OperatorExpr.of(J2), grid(5, -1, 1))
    noninv = [p for p, r in zip(s.points, s.records) if not r.invertible]
    assert noninv == [(F(0), F(0))]
    rep = component_index_report(s, "pbf")
    assert [(c.id, c.index, c.point_count) for c in rep.components] == [(0, "0", 25)]


def test_component_report_double_shift_doubles_index():
    s = scan(OperatorExpr.of(RIGHT_SHIFT, RIGHT_SHIFT), grid(9))
    rep = component_index_report(s, "pbf")
    assert [c.index for c in rep.components] == ["0", "-2"]


def test_left_shift_with_jordan_block():
    e = OperatorExpr.of(LEFT_SHIFT, matrix_atom([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    inside = classify(e, point(F(1, 2)))
    assert inside.fredholm and inside.summary.index.to_str() == "1"
    at0 = classify(e, point(0))
    assert at0.b_fredholm and at0.summary.index.to_str() == "1"


def test_grouped_cells_key_refinement():
    # a 1x4 strip: equal keys join, differing keys cut
    comps = grouped_cells([True] * 4, ["x", "x", "y", "y"], 4, 1)
    assert comps == [[0, 1], [2, 3]]
    comps2 = grouped_cells([True, False, True, True], ["x"] * 4, 4, 1)
    assert comps2 == [[0], [2, 3]]
    with pytest.raises(ValueError):
        grouped_cells([True], ["x"], 2, 1)


def test_refinement_keeps_point_records():
    # halving the step leaves every shared point's row unchanged
    coarse = scan(R, grid(5))
    fine = scan(R, grid(9))
    fine_rows = dict(zip(fine.points, fine.records))
    for pt, rec in zip(coarse.points, coarse.records):
        assert fine_rows[pt].flags() == rec.flags()
        assert fine_rows[pt].summary == rec.summary


def test_csv_shape_and_header():
    s = scan(R, GridSpec(F(-1), F(1), F(0), F(0), 3, 1))
    text = scan_to_csv(s)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER.startswith("re,im,invertible,")
    assert CSV_HEADER.endswith(",alpha,beta,p,q,index")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "-1" and first[1] == "0"
    assert len(first) == 2 + len(FLAG_NAMES) + 5
    assert all(cell in ("0", "1") for cell in first[2 : 2 + len(FLAG_NAMES)])


def test_csv_values_at_circle_point():
    s = scan(R, GridSpec(F(1), F(1), F(0), F(0), 1, 1))
    row = scan_to_csv(s).strip().split("\n")[1].split(",")
    named = dict(zip(CSV_HEADER.split(","), row))
    assert named["pseudo_fredholm"] == "0"
    assert named["alpha"] == "undef"
    assert named["index"] == "undef"


def test_csv_infinite_values():
    s = scan(R, GridSpec(F(0), F(0), F(0), F(0), 1, 1))
    named = dict(zip(CSV_HEADER.split(","), scan_to_csv(s).strip().split("\n")[1].split(",")))
    assert named["q"] == "inf"
    assert named["index"] == "-1"


def test_json_mirror():
    import json

    s = scan(R, grid(3))
    doc = json.loads(scan_to_json(s, "pbf"))
    assert doc["set"] == "pbf"
    assert doc["grid"]["re_steps"] == 3
    assert len(doc["points"]) == 9
    row = doc["points"][0]
    assert row["re"] == "-2" and row["im"] == "-2"
    assert row["invertible"] is True
    assert row["index"] == "0"
    # the grid's centre point (0,0) sits inside the disc; the key
    # refinement keeps it apart from the surrounding index-0 ring
    assert [(c["id"], c["index"]) for c in doc["component_report"]] == [
        (0, "0"),
        (1, "-1"),
    ]


def test_scan_serialization_deterministic():
    a = scan_to_json(scan(R, grid(5)), "pbf")
    b = scan_to_json(scan(R, grid(5)), "pbf")
    assert a == b
    assert scan_to_csv(scan(R, grid(5))) == scan_to_csv(scan(R, grid(5)))


# Per-point references: a scan that classifies every point, and the
# renderers that format every row from its record, kept verbatim from
# before scans were keyed by region; and the per-cell component search,
# kept verbatim from before components were labelled on runs.


def _scan_of(grid, recs):
    """A SpectrumScan of per-point records: equal records share one id."""
    first: dict = {}
    ids = tuple(first.setdefault(rec, len(first)) for rec in recs)
    return SpectrumScan(grid, tuple(first), ids)


def _reference_scan(e, grid):
    return _scan_of(grid, [classify(e, lam) for lam in grid.points()])


def _reference_region(atom, lam):
    """The region of lam on which atom - lam has one fixed profile: a
    shift's from Fraction |lam|^2; a matrix atom's the point itself at an
    eigenvalue and None off them, by the Fraction root test."""
    if atom.kind == "matrix":
        return lam if fraction_reference.is_eigenvalue(atom.matrix, *lam) else None
    q2 = lam[0] * lam[0] + lam[1] * lam[1]
    return shift_region(atom.kind, (q2 > 1) - (q2 < 1), not q2)


def grouped_cells(
    mask: list[bool], keys: list[str], re_steps: int, im_steps: int
) -> list[list[int]]:
    """Connected components of the masked cells of an im_steps x re_steps
    row-major grid under 4-adjacency refined by equal keys. Returned in
    row-major discovery order; each component lists cell indices sorted."""
    n = re_steps * im_steps
    if len(mask) != n or len(keys) != n:
        raise ValueError("mask/keys length must match the grid")
    seen = [False] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start] or not mask[start]:
            continue
        todo = [start]
        seen[start] = True
        cells = []
        while todo:
            cur = todo.pop()
            cells.append(cur)
            i, j = divmod(cur, re_steps)
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < im_steps and 0 <= nj < re_steps):
                    continue
                nb = ni * re_steps + nj
                if seen[nb] or not mask[nb] or keys[nb] != keys[cur]:
                    continue
                seen[nb] = True
                todo.append(nb)
        comps.append(sorted(cells))
    return comps


def _reference_component_index_report(s, set_name):
    mask = [not spectrum_membership(rec, set_name) for rec in s.records]
    keys = [rec.summary.index.to_str() for rec in s.records]
    comps = grouped_cells(mask, keys, s.grid.re_steps, s.grid.im_steps)
    out = []
    for cid, cells in enumerate(comps):
        vals = {keys[c] for c in cells}
        first = s.points[cells[0]]
        out.append(
            Component(
                id=cid,
                index=keys[cells[0]] if len(vals) == 1 else "nonconstant",
                point_count=len(cells),
                first_point=(rational_str(first[0]), rational_str(first[1])),
            )
        )
    return ComponentReport(set_name, tuple(out))


def _reference_csv(s):
    lines = [CSV_HEADER]
    for (re, im), rec in zip(s.points, s.records):
        cells = [rational_str(re), rational_str(im)]
        cells += ["1" if v else "0" for v in rec.flags().values()]
        cells += rec.summary.to_strs().values()
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_json(s, set_name):
    report = _reference_component_index_report(s, set_name)
    points = []
    for (re, im), rec in zip(s.points, s.records):
        row: dict[str, object] = {"re": rational_str(re), "im": rational_str(im)}
        row.update(rec.flags())
        row.update(rec.summary.to_strs())
        points.append(row)
    doc = {
        "grid": {
            "re_min": rational_str(s.grid.re_min),
            "re_max": rational_str(s.grid.re_max),
            "im_min": rational_str(s.grid.im_min),
            "im_max": rational_str(s.grid.im_max),
            "re_steps": s.grid.re_steps,
            "im_steps": s.grid.im_steps,
        },
        "set": set_name,
        "component_report": [
            {
                "id": c.id,
                "index": c.index,
                "point_count": c.point_count,
                "first_point": {"re": c.first_point[0], "im": c.first_point[1]},
                "index_constant": c.index != "nonconstant",
            }
            for c in report.components
        ],
        "points": points,
    }
    return json.dumps(doc, indent=2) + "\n"


def _reference_axis(lo, hi, steps):
    """The axis values in Fraction arithmetic, as grids made them before
    they were stored as integers over one denominator."""
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


@st.composite
def _axis_bounds(draw):
    """(lo, hi, steps) of an axis with step 1/m, m in 1..5: from -k/m to
    k/m, k >= m, so the axis holds 0 and +-1; or from i/m to j/m, often
    asymmetric or missing 0, now and then one step long; or with lo's
    denominator other than the step's; or a single value, often 0."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        v = draw(st.sampled_from([F(0), F(0), F(1), F(-3, 5), F(4, 5), F(2, 3)]))
        return v, v, 1
    m = draw(st.integers(1, 5))
    if shape <= 4:
        k = draw(st.integers(m, m + 1))
        return F(-k, m), F(k, m), 2 * k + 1
    i = draw(st.integers(-2 * m, m))
    steps = draw(st.integers(2, 2 * m + 2))
    lo = F(i, m)
    if shape == 9:
        lo += F(1, draw(st.sampled_from([2, 3, 4])))
    return lo, lo + F(steps - 1, m), steps


@st.composite
def _planted_matrix(draw, g):
    """A d x d matrix (d <= 4), P T P^-1 with P unimodular and T block upper
    triangular whose diagonal blocks are real values of the grid, often
    repeated, or [[a, -b], [b, a]] for a grid point (a, b) with b != 0 (the
    pair a +- bi); or, now and then, a random integer matrix."""
    d = draw(st.integers(1, 4))
    ints = st.integers(-2, 2)
    rows = [[F(draw(ints)) for _ in range(d)] for _ in range(d)]
    if draw(st.integers(0, 3)) == 0:
        return ExactMatrix.from_rows(rows)
    imags = [x for x in g.im_values() if x]
    i, a = 0, None
    while i < d:
        for r in range(i, d):
            for c in range(i):
                rows[r][c] = F(0)
        # repeating a value lets the entries above the diagonal chain it
        if a is None or draw(st.booleans()):
            a = draw(st.sampled_from(g.re_values()))
        if imags and i + 1 < d and draw(st.booleans()):
            b = draw(st.sampled_from(imags))
            rows[i][i], rows[i][i + 1], rows[i + 1][i], rows[i + 1][i + 1] = a, -b, b, a
            i += 2
        else:
            rows[i][i] = a
            i += 1
    unit = st.integers(-1, 1)
    lower = [[draw(unit) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    p = ExactMatrix.from_rows(lower)
    return p @ ExactMatrix.from_rows(rows) @ inverse(p)


@st.composite
def _expr_and_grid(draw):
    re_lo, re_hi, re_steps = draw(_axis_bounds())
    if draw(st.booleans()):
        im_lo, im_hi, im_steps = re_lo, re_hi, re_steps
    else:
        im_lo, im_hi, im_steps = draw(_axis_bounds())
    g = GridSpec(re_lo, re_hi, im_lo, im_hi, re_steps, im_steps)
    shift_kinds = [k for k in ATOM_KINDS if k != "matrix"]
    atoms = [Atom(k) for k in draw(st.lists(st.sampled_from(shift_kinds), max_size=3))]
    atoms += [Atom("matrix", draw(_planted_matrix(g))) for _ in range(draw(st.integers(0, 2)))]
    if not atoms:
        atoms = [Atom(draw(st.sampled_from(shift_kinds)))]
    return OperatorExpr(tuple(draw(st.permutations(atoms)))), g


@settings(max_examples=60, deadline=None)
@given(_expr_and_grid())
def test_keyed_scan_equals_per_point_classification(eg):
    e, g = eg
    s = scan(e, g)
    assert s.grid == g
    assert g.re_values() == _reference_axis(g.re_min, g.re_max, g.re_steps)
    assert g.im_values() == _reference_axis(g.im_min, g.im_max, g.im_steps)
    assert s.points == tuple(g.points())
    assert s.records == tuple(classify(e, lam) for lam in g.points())


@settings(max_examples=25, deadline=None)
@given(_expr_and_grid(), st.sampled_from(SPECTRUM_NAMES))
def test_keyed_renderers_are_byte_equal_to_per_point_ones(eg, set_name):
    e, g = eg
    s, ref = scan(e, g), _reference_scan(e, g)
    assert scan_to_csv(s) == _reference_csv(ref) == _reference_csv(s)
    assert scan_to_json(s, set_name) == _reference_json(ref, set_name)
    assert component_index_report(s, set_name) == _reference_component_index_report(
        ref, set_name
    )


def test_keyed_renderers_on_catalog_scans():
    for name in ("right_right_left", "left_plus_qnil", "right_jordan3_qnil", "jordan2_diag2"):
        e = by_name(name).expr
        s, ref = scan(e, grid(9)), _reference_scan(e, grid(9))
        assert scan_to_csv(s) == _reference_csv(ref)
        for set_name in SPECTRUM_NAMES:
            assert scan_to_json(s, set_name) == _reference_json(ref, set_name)


# re in fifths from -1 to 1; im from -1/3 to 1 in fifteenths, so lo's
# denominator is not the step's; both axes hold 0, and the grid holds the
# unit-circle points (3/5, 4/5) and (-4/5, 3/5)
_CIRCLE_GRID = GridSpec(-1, 1, F(-1, 3), 1, 11, 21)


_P = ExactMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, -1, 1]])


@pytest.mark.parametrize(
    "atoms, eigenvalues",
    [
        # a rotation whose eigenvalues 3/5 +- 4/5 i lie on the unit circle
        (
            (RIGHT_SHIFT, QNIL_SHIFT, matrix_atom([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])),
            [(F(3, 5), F(4, 5))],
        ),
        # -4/5 +- 3/5 i and 3/5 planted by conjugation
        (
            (
                LEFT_SHIFT,
                QNIL_SHIFT_DUAL,
                Atom(
                    "matrix",
                    _P
                    @ ExactMatrix.from_rows(
                        [[F(-4, 5), F(-3, 5), 1], [F(3, 5), F(-4, 5), 0], [0, 0, F(3, 5)]]
                    )
                    @ inverse(_P),
                ),
            ),
            [(F(-4, 5), F(3, 5)), (F(3, 5), F(0))],
        ),
    ],
)
def test_keyed_scan_at_unit_circle_points_off_the_integers(atoms, eigenvalues):
    e, g = OperatorExpr(atoms), _CIRCLE_GRID
    s, ref = scan(e, g), _reference_scan(e, g)
    assert s.records == ref.records
    assert scan_to_csv(s) == _reference_csv(ref)
    for set_name in SPECTRUM_NAMES:
        assert scan_to_json(s, set_name) == _reference_json(ref, set_name)
    recs = dict(zip(s.points, s.records))
    for lam in ((F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5))):
        assert not recs[lam].pseudo_fredholm
    for lam in eigenvalues:
        assert fraction_reference.is_eigenvalue(atoms[2].matrix, *lam)


@pytest.mark.parametrize(
    "name, keys",
    [
        # inside, on and outside the unit circle
        ("right_right_left", 3),
        # the same three, with the inside split at 0 by the weighted shift
        ("left_plus_qnil", 4),
        # J3's one eigenvalue 0 adds one key inside the circle
        ("right_jordan3_qnil", 4),
        # off the eigenvalues, at the double eigenvalue 0, at the simple 2
        ("jordan2_diag2", 3),
    ],
)
def test_scan_classifies_once_per_key(monkeypatch, name, keys):
    e = by_name(name).expr
    g = grid(41)
    calls = []

    def counting(an):
        calls.append(an.point)
        return classify_analysis(an)

    monkeypatch.setattr(spectra, "classify_analysis", counting)
    s = scan(e, g)
    assert len(s.records) == 41 * 41
    assert len(calls) == keys
    assert len({id(rec) for rec in s.records}) == keys
    distinct = {tuple(_reference_region(a, lam) for a in e.atoms) for lam in g.points()}
    assert len(distinct) == keys


@pytest.mark.parametrize(
    "name", ["right_right_left", "left_plus_qnil", "right_jordan3_qnil", "jordan2_diag2"]
)
def test_record_work_runs_once_per_distinct_record(monkeypatch, name):
    e, g = by_name(name).expr, grid(41)
    ref = _reference_scan(e, g)
    calls = Counter()

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapped

    for fn in ("classify_analysis", "_csv_tail", "_json_row_tail", "spectrum_membership"):
        monkeypatch.setattr(spectra, fn, counting(getattr(spectra, fn)))
    s = scan(e, g)
    n = len(s.distinct)
    assert calls == {"classify_analysis": n}
    for work, want in (
        (lambda: scan_to_csv(s), {"_csv_tail": n}),
        (lambda: component_index_report(s, "pbf"), {"spectrum_membership": n}),
        (lambda: scan_to_json(s, "pbf"), {"_json_row_tail": n, "spectrum_membership": n}),
    ):
        calls.clear()
        work()
        assert calls == want
    assert len(s.ids) == 41 * 41 and set(s.ids) == set(range(n))
    assert s.records == ref.records
    assert s.points == ref.points == tuple(g.points())


# Labelling against the per-cell search: records from a palette, drawn as
# rows of characters, row 0 first. '#' lies in every spectrum; the letters
# lie outside pbf, with 'b' and 'c' different records of equal index.
_PALETTE = {
    "#": classify(R, point(1)),
    "a": classify(R, point(0)),
    "b": classify(R, point(2)),
    "c": classify(OperatorExpr.of(J2), point(0)),
    "d": classify(OperatorExpr.of(LEFT_SHIFT), point(0)),
    "e": classify(OperatorExpr.of(RIGHT_SHIFT, RIGHT_SHIFT), point(0)),
}


def test_palette_membership_and_index():
    assert [spectrum_membership(rec, "pbf") for rec in _PALETTE.values()] == [True] + [False] * 5
    index = {ch: rec.summary.index.to_str() for ch, rec in _PALETTE.items() if ch != "#"}
    assert index == {"a": "-1", "b": "0", "c": "0", "d": "1", "e": "-2"}
    assert _PALETTE["b"] != _PALETTE["c"]


def _art_scan(rows):
    w, h = len(rows[0]), len(rows)
    g = GridSpec(F(-1, 2), F(-1, 2) + F(w - 1, 3), F(1, 5), F(1, 5) + F(h - 1, 7), w, h)
    return _scan_of(g, [_PALETTE[ch] for row in rows for ch in row])


def _check_labelling(s, set_name="pbf"):
    """component_index_report and component_runs against grouped_cells."""
    assert component_index_report(s, set_name) == _reference_component_index_report(s, set_name)
    w, h = s.grid.re_steps, s.grid.im_steps
    mask = [not spectrum_membership(rec, set_name) for rec in s.records]
    keys = [rec.summary.index.to_str() for rec in s.records]
    want = [None] * (w * h)
    for cid, cells in enumerate(grouped_cells(mask, keys, w, h)):
        for c in cells:
            want[c] = cid
    owner = [None] * (w * h)
    for first, n, cid, index in component_runs(s, set_name):
        assert first // w == (first + n - 1) // w  # a run stays in its row
        assert {keys[c] for c in range(first, first + n)} == {index}
        owner[first : first + n] = [cid] * n
    assert owner == want


@pytest.mark.parametrize(
    "rows",
    [
        ["aa#abbcc#d"],
        list("aa#bbcda"),
        # a U whose arms meet in its last row, and a W of three arms
        ["a#a", "a#a", "aaa"],
        ["#a#a", "#a#a", "#aaa"],
        ["a#a#a", "a#a#a", "a#aaa", "aaaaa"],
        # arms that meet above, then below a run that joined them
        ["aaaaa", "a#a#a", "a#a#a"],
        # a spiral path of 'a' walled by '#', with other indices inside
        [
            "aaaaaaa",
            "######a",
            "aaaa#da",
            "a##a#da",
            "a#da#da",
            "a####da",
            "aaaaaaa",
        ],
        # equal index touching only diagonally stays apart
        ["a#", "#a"],
        ["#ee#", "ee##", "#e#e"],
        # different records of one index join
        ["bc", "cb"],
        ["ad", "da"],
        ["#"],
        ["b"],
    ],
)
def test_labelling_fixed_shapes(rows):
    _check_labelling(_art_scan(rows))


@st.composite
def _art(draw):
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    inks = draw(st.lists(st.sampled_from(sorted(_PALETTE)), min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.sampled_from(inks), min_size=w * h, max_size=w * h))
    return ["".join(cells[j * w : (j + 1) * w]) for j in range(h)]


@settings(max_examples=300, deadline=None)
@given(_art())
def test_labelling_equals_per_cell_search(rows):
    _check_labelling(_art_scan(rows))
