import math
from fractions import Fraction as F

import pytest

from fredprofile.catalog import by_name
from fredprofile.classify import FLAG_NAMES, classify
from fredprofile.model import (
    LEFT_SHIFT,
    OperatorExpr,
    RIGHT_SHIFT,
    matrix_atom,
    point,
)
from fredprofile.spectra import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    GridSpec,
    SPECTRUM_NAMES,
    component_index_report,
    grouped_cells,
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
    assert all(c.index_constant for c in rep.components)
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
