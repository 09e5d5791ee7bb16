"""End-to-end acceptance checks.

One test per criterion; each prints a single "criterion N: PASS" line and
pytest adds the per-test PASSED/FAILED line. Criteria 1-3 share one pool
of 500 random matrices drawn with seed 42.
"""
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from fredprofile.catalog import CATALOG
from fredprofile.classify import check_lattice, classify
from fredprofile.extvals import ExtIndex
from fredprofile.linalg import image_basis, kernel_basis, rank, restrict, subspace_sum
from fredprofile.model import (
    Atom,
    OperatorExpr,
    RIGHT_SHIFT,
    dual_expr,
    matrix_atom,
    matrix_chain_data,
    matrix_profile,
    point,
)
from fredprofile.spectra import (
    GridSpec,
    SPECTRUM_NAMES,
    component_index_report,
    component_runs,
    scan,
    spectrum_membership,
)
from fredprofile.structure import (
    analyze_atom,
    analyze_expr,
    drazin_inverse,
    matrix_split,
)
from fredprofile.verify import (
    alpha_beta_core_oracle,
    index_with_nilpotent_regrouped,
    random_matrix,
    raw_powers,
)

ZERO = point(0)

EXPECTED_INDEX = {
    "right_shift": -1,
    "left_shift": 1,
    "right_plus_left": 0,
    "right_right_left": -1,
    "jordan2": 0,
    "jordan3": 0,
    "jordan2_diag2": 0,
    "qnil": 0,
    "left_plus_qnil": 1,
    "right_jordan3_qnil": -1,
    "left_plus_qnil_dual": 1,
    "right_shift_squared": -2,
}


@pytest.fixture(scope="module")
def matrices():
    rng = Random(42)
    return [random_matrix(rng) for _ in range(500)]


def matrix_expr(m):
    return OperatorExpr.of(Atom("matrix", m))


def entry_summary(entry, lam, extra_power=1):
    return analyze_expr(entry.expr, lam, entry.power * extra_power).summary


def test_criterion_1_restriction_chain_identities(matrices):
    t0 = time.perf_counter()
    for m in matrices:
        d = m.rows
        ranks = matrix_chain_data(m)
        nu = len(ranks) - 2
        k = matrix_profile(ranks).c.diff()
        powers = raw_powers(m, nu)
        # oracle route: defects of the actual restriction to R(m^n);
        # restrictions repeat once the image chain stabilizes at nu
        by_level = []
        for n in range(min(d + 4, nu + 1)):
            img = image_basis(powers[n])
            if img.dim == 0:
                by_level.append((0, 0))
            else:
                sub = restrict(m, img)
                by_level.append((kernel_basis(sub).dim, img.dim - rank(sub)))
        defects = [by_level[min(n, nu)] for n in range(d + 4)]
        for n in range(d + 3):
            al, be = defects[n]
            al1, be1 = defects[n + 1]
            kn = int(k.at(n))
            assert al - al1 == kn
            assert be - be1 == kn
            assert kn <= min(al, be)
            assert al == be  # every finite-dimensional restriction has index 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS (chain identities exact on 500 matrices, {elapsed:.2f}s)")


def test_criterion_2_fitting_and_drazin(matrices):
    for m in matrices:
        d = m.rows
        nu = len(matrix_chain_data(m)) - 2
        top = m.power(nu)
        core = image_basis(top)
        h0 = kernel_basis(top)
        assert core.dim + h0.dim == d
        assert subspace_sum(core, h0).dim == d
        if core.dim:
            assert rank(restrict(m, core)) == core.dim
        if h0.dim:
            blk = restrict(m, h0)
            assert blk.power(nu).is_zero()
            assert not blk.power(nu - 1).is_zero()
        dz = drazin_inverse(m)
        assert (dz @ m).entries == (m @ dz).entries
        assert (dz @ m @ dz).entries == dz.entries
        assert (m.power(nu + 1) @ dz).entries == m.power(nu).entries
    print("criterion 2: PASS (Fitting split and Drazin axioms exact on 500 matrices)")


def test_criterion_3_core_h0_oracle(matrices):
    for m in matrices:
        an = analyze_expr(matrix_expr(m), ZERO)
        assert an.decomposable
        s = an.summary
        split = matrix_split(analyze_atom(Atom("matrix", m), ZERO), 0)
        assert alpha_beta_core_oracle(split) == (s.alpha, s.beta)
    print("criterion 3: PASS (core/h0 oracle equals decomposition defects on 500)")


def test_criterion_4_index_laws():
    for entry in CATALOG:
        assert entry_summary(entry, ZERO).index == ExtIndex.of(EXPECTED_INDEX[entry.name])
    plain = [e for e in CATALOG if e.power == 1]
    for ea in plain:
        for eb in plain:
            got = analyze_expr(ea.expr + eb.expr, ZERO).summary.index
            assert got == ExtIndex.of(EXPECTED_INDEX[ea.name] + EXPECTED_INDEX[eb.name])
    # the squared entry: R^2 (+) R^2 is (R (+) R)^2
    doubled = OperatorExpr.of(RIGHT_SHIFT, RIGHT_SHIFT)
    assert analyze_expr(doubled, ZERO, 2).summary.index == ExtIndex.of(-4)
    for entry in CATALOG:
        base = entry_summary(entry, ZERO).index
        for kk in range(1, 5):
            assert entry_summary(entry, ZERO, kk).index == base.times(kk)
    for name in ("jordan2", "jordan3", "right_jordan3_qnil"):
        e = next(c.expr for c in CATALOG if c.name == name)
        assert index_with_nilpotent_regrouped(e, ZERO) == analyze_expr(e, ZERO).summary.index
    nil = OperatorExpr.of(matrix_atom([[0, 1], [0, 0]]))
    for entry in plain:
        widened = entry.expr + nil
        assert index_with_nilpotent_regrouped(widened, ZERO) == analyze_expr(widened, ZERO).summary.index
    print("criterion 4: PASS (additivity, powers up to 4, regrouping invariance)")


def test_criterion_5_duality(matrices):
    for entry in CATALOG:
        s = entry_summary(entry, ZERO)
        d = analyze_expr(dual_expr(entry.expr), ZERO, entry.power).summary
        assert (s.alpha, s.beta) == (d.beta, d.alpha)
        assert (s.p, s.q) == (d.q, d.p)
        assert s.index == d.index.neg()
    for m in matrices[:200]:
        prof = analyze_expr(matrix_expr(m), ZERO).full
        dprof = analyze_expr(matrix_expr(m.transpose()), ZERO).full
        assert prof.a == dprof.a and prof.r == dprof.r
        assert prof.c == dprof.b and prof.b == dprof.c
    print("criterion 5: PASS (catalog duals swap, transpose mirrors chains on 200)")


def test_criterion_6_punctured_neighborhood():
    offsets = [
        point(F(1, 10)), point(F(-1, 10)), point(F(1, 100)), point(F(-1, 100)),
        point(0, F(1, 10)), point(0, F(-1, 10)), point(0, F(1, 100)), point(0, F(-1, 100)),
    ]
    for entry in CATALOG:
        s0 = entry_summary(entry, ZERO)
        for lam in offsets:
            s = entry_summary(entry, lam)
            assert (s.alpha, s.beta, s.index) == (s0.alpha, s0.beta, s0.index)
    print("criterion 6: PASS (alpha, beta, index constant at 8 punctured offsets)")


_SCAN_CACHE = {}


def golden_scan():
    if "scan" not in _SCAN_CACHE:
        grid = GridSpec(F(-2), F(2), F(-2), F(2), 33, 33)
        _SCAN_CACHE["scan"] = scan(OperatorExpr.of(RIGHT_SHIFT), grid)
    return _SCAN_CACHE["scan"]


def test_criterion_7_golden_scan():
    t0 = time.perf_counter()
    s = golden_scan()
    inner, outer = F(81, 100), F(121, 100)
    for (re, im), rec in zip(s.points, s.records):
        mod2 = re * re + im * im
        if mod2 < inner:
            assert rec.fredholm
            assert rec.summary.index == ExtIndex.of(-1)
        if mod2 > outer:
            assert rec.invertible
        for full, up, lo in (("pbf", "upbf", "lpbf"), ("pbw", "upbw", "lpbw")):
            assert spectrum_membership(rec, full) == (
                spectrum_membership(rec, up) or spectrum_membership(rec, lo)
            )
    by_point = dict(zip(s.points, s.records))
    assert not by_point[point(1)].pseudo_fredholm
    assert not by_point[point(0, 1)].pseudo_fredholm
    off_grid = classify(OperatorExpr.of(RIGHT_SHIFT), point(F(3, 5), F(4, 5)))
    assert not off_grid.pseudo_fredholm
    for name in SPECTRUM_NAMES:
        rep = component_index_report(s, name)
        assert rep.components
        # every point of a component carries the component's index
        index = {c.id: c.index for c in rep.components}
        for first, n, cid, _ in component_runs(s, name):
            assert {r.summary.index.to_str() for r in s.records[first : first + n]} == {index[cid]}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 7: PASS (33x33 golden scan regions and components, {elapsed:.2f}s)")


def test_criterion_8_lattice_and_pointwise_equivalences(matrices):
    records = []
    probe_points = [
        ZERO, point(F(1, 10)), point(0, F(1, 10)),
        point(1), point(F(3, 5), F(4, 5)), point(2),
    ]
    for entry in CATALOG:
        for lam in probe_points:
            records.append(classify(entry.expr, lam, entry.power))
    records.extend(golden_scan().records)
    for m in matrices:
        records.append(classify(matrix_expr(m), ZERO))
    for rec in records:
        assert check_lattice(rec) == []
        idx = rec.summary.index
        upbf = rec.upper_pseudo_semi_b_fredholm
        lpbf = rec.lower_pseudo_semi_b_fredholm
        assert rec.pseudo_b_fredholm == (upbf and lpbf)
        assert rec.pseudo_b_fredholm == ((upbf or lpbf) and idx.is_int)
        assert rec.pseudo_b_weyl == (
            rec.upper_pseudo_semi_b_weyl and rec.lower_pseudo_semi_b_weyl
        )
        assert rec.upper_pseudo_semi_b_weyl == (upbf and idx.le_zero())
        assert rec.lower_pseudo_semi_b_weyl == (lpbf and idx.ge_zero())
        assert rec.pseudo_b_weyl == (rec.pseudo_b_fredholm and idx.is_zero())
    print(f"criterion 8: PASS (lattice clean on {len(records)} records)")


def test_criterion_9_verify_cli_deterministic():
    cmd = [
        sys.executable, "-m", "fredprofile",
        "verify", "--suite", "all", "--cases", "500", "--seed", "42",
    ]
    outputs = []
    for _ in range(2):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout.decode()
        assert elapsed < 60.0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    pinned = Path(__file__).resolve().parent / "demo_outputs" / "verify_all_500_seed42.txt"
    assert outputs[0] == pinned.read_bytes()
    print("criterion 9: PASS (verify all/500/seed42 exit 0, byte-identical, <60s)")
