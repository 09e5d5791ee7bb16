"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python over fractions.Fraction and random.Random;
nothing is imported from fredprofile, so a change to the library cannot
change the inputs it is measured on. The program receives only what this
module produces: operator documents (written to files by the runner) and
command lines for fredprofile.cli.main.

A workload is one cycle of operations that the runner repeats. Its shape
(templates, matrix sizes, grids, order) is fixed; the seed chooses only
the entries, eigenvalues, points, grid bounds and verify seeds. The fixed
shape keeps the cost of a cycle nearly the same from seed to seed, so
throughput and latency can be compared across seeds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

WORKLOADS = ("analyze-docs", "scan-matrix", "scan-shift", "verify-suites")

SHIFT_KINDS = ("right_shift", "left_shift", "qnil_shift", "qnil_shift_dual")
SPECTRUM_SETS = ("upbf", "lpbf", "spbf", "pbf", "upbw", "lpbw", "spbw", "pbw")

# analyze-docs: (shift atom count, matrix atoms as (kind, dimension))
ANALYZE_TEMPLATES = (
    (1, (("dense", 3),)),
    (2, (("jordan", 3),)),
    (2, (("jordan", 4),)),
    (1, (("jordan", 3), ("dense", 4))),
    (1, (("dense", 6),)),
    (2, (("jordan", 5), ("dense", 3))),
    (1, (("jordan", 7), ("dense", 7))),
)
# every template is drawn this many times per cycle: more distinct inputs
# per run keep the figures close from seed to seed
ANALYZE_COPIES = 3
# points with one denominator, so the point does not change the cost much
ANALYZE_EIGENVALUES = tuple(Fraction(k, 2) for k in (-5, -3, -1, 1, 3, 5))
ANALYZE_IMAG = (Fraction(1, 2), Fraction(3, 2))

# scan-matrix: right_shift plus one matrix (kind, dimension, grid points per axis)
SCAN_MATRIX_TEMPLATES = (
    ("dense", 2, 7, "csv"),
    ("jordan", 3, 7, "json"),
    ("dense", 4, 5, "csv"),
    ("jordan", 4, 5, "json"),
    ("dense", 5, 5, "csv"),
    ("jordan", 6, 5, "json"),
)
SCAN_MATRIX_COPIES = 3

# scan-shift: shift-only catalog operators on a larger grid
_RRL = ("right_right_left", ("right_shift", "right_shift", "left_shift"))
_LQ = ("left_plus_qnil", ("left_shift", "qnil_shift"))
_LQD = ("left_plus_qnil_dual", ("left_shift", "qnil_shift_dual"))
SCAN_SHIFT_TEMPLATES = (
    (*_RRL, "json"), (*_LQ, "csv"), (*_LQD, "json"),
    (*_RRL, "csv"), (*_LQ, "json"), (*_LQD, "csv"),
)
SCAN_SHIFT_STEPS = 41
SCAN_SHIFT_RADII = (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(7, 4))

VERIFY_SUITES = ("chains", "gkd", "index-laws", "duality", "punctured", "spectra")
VERIFY_CASES = 200
# case-driven suites: operations their cases are split over
VERIFY_SPLITS = {"chains": 2, "gkd": 4, "duality": 2}


@dataclass(frozen=True)
class Op:
    """One call of fredprofile.cli.main and what its output must look like.

    key names the op within the cycle for the recorded digests; units is the work it completes (reports, grid
    points or verify cases); expect carries what the output check needs.
    """

    key: str
    argv: tuple[str, ...]
    units: int
    expect: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Inputs:
    name: str
    unit: str
    ops: list[Op]
    files: dict[str, str]
    warmup: Op
    # distinct (matrix atom, point) pairs of the cycle, for the traced run
    atom_points: set = field(default_factory=set)
    # True when the whole cycle is one user request (one verify run), so
    # latency is per cycle rather than per operation
    cycle_is_request: bool = False


# ---------------------------------------------------------------- rationals


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m) if a[i][k]), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def _unit_lower_inverse(m):
    n = len(m)
    x = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            x[i][j] = Fraction(int(i == j)) - sum((m[i][k] * x[k][j] for k in range(i)), Fraction(0))
    return x


def _transpose(m):
    return [list(r) for r in zip(*m)]


def _unimodular(rng: Random, d: int):
    """P = L U with unit triangular L, U of entries in {-1, 0, 1}, and its
    integer inverse U^-1 L^-1. Bounded entries keep the cost of the
    conjugated matrix close to the same from seed to seed."""
    lower = [[Fraction(int(i == j) if j >= i else rng.choice((-1, 0, 1))) for j in range(d)]
             for i in range(d)]
    upper_t = [[Fraction(int(i == j) if j >= i else rng.choice((-1, 0, 1))) for j in range(d)]
               for i in range(d)]
    p = _matmul(lower, _transpose(upper_t))
    q = _matmul(_transpose(_unit_lower_inverse(upper_t)), _unit_lower_inverse(lower))
    return p, q


def dense_matrix(rng: Random, d: int):
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        for _ in range(d)
    ]


def jordan_matrix(rng: Random, d: int, reals, imags):
    """P J P^-1 with P unimodular and J of fixed shape: for d >= 4 a 2x2
    block [[a, -b], [b, a]] with eigenvalues a +- bi, then one Jordan block
    of about half the remaining size, then diagonal entries, with all real
    eigenvalues distinct. Returns the rows, the Jordan block's eigenvalue
    and the complex eigenvalue (a, b) or None."""
    j = [[Fraction(0)] * d for _ in range(d)]
    start = 0
    cplx = None
    if d >= 4:
        a, b = rng.choice(reals), rng.choice(imags)
        j[0][0] = j[1][1] = a
        j[0][1], j[1][0] = -b, b
        cplx = (a, b)
        start = 2
    rest = d - start
    size = max(1, (rest + 1) // 2)
    ev, *others = rng.sample(list(reals), 1 + rest - size)
    for k in range(size):
        j[start + k][start + k] = ev
        if k + 1 < size:
            j[start + k][start + k + 1] = Fraction(1)
    for k, x in zip(range(start + size, d), others):
        j[k][k] = x
    p, q = _unimodular(rng, d)
    return _matmul(_matmul(p, j), q), ev, cplx


def _rows_json(rows):
    return [[str(x) for x in r] for r in rows]


def _doc_text(name: str, atoms: list[dict]) -> str:
    return json.dumps({"name": name, "atoms": atoms}, indent=1) + "\n"


def _atom_key(rows) -> str:
    return ";".join(",".join(str(x) for x in r) for r in rows)


def _axis(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


# ---------------------------------------------------------------- workloads


def _analyze(seed: int, path) -> Inputs:
    rng = Random(f"analyze-docs/{seed}")
    ops, files, pairs = [], {}, set()
    for t, (n_shifts, mats) in enumerate(ANALYZE_TEMPLATES * ANALYZE_COPIES):
        name = f"doc{t}"
        atoms, keys = [], []
        real = cplx = None
        shifts = [{"type": rng.choice(SHIFT_KINDS)} for _ in range(n_shifts)]
        for kind, d in mats:
            if kind == "dense":
                rows = dense_matrix(rng, d)
            else:
                rows, ev, pair = jordan_matrix(rng, d, ANALYZE_EIGENVALUES, ANALYZE_IMAG)
                real = ev if real is None else real
                cplx = pair if cplx is None else cplx
            atoms.append({"type": "matrix", "entries": _rows_json(rows)})
            keys.append(_atom_key(rows))
        # shifts first or last, chosen per document
        atoms = shifts + atoms if rng.random() < 0.5 else atoms + shifts
        if real is None:
            real = rng.choice(ANALYZE_EIGENVALUES)
        if cplx is None:
            cplx = (rng.choice(ANALYZE_EIGENVALUES), rng.choice(ANALYZE_IMAG))
        files[f"{name}.json"] = _doc_text(name, atoms)
        for re, im in ((real, Fraction(0)), cplx):
            point = (str(re), str(im))
            ops.append(
                Op(
                    key=str(len(ops)),
                    argv=("analyze", "--in", str(path / f"{name}.json"),
                          "--lambda=" + ",".join(point)),
                    units=1,
                    expect={"kind": "analyze", "name": name, "point": point,
                            "matrix_atoms": len(mats)},
                )
            )
            pairs.update((k, point) for k in keys)
    files["warmup.json"] = _doc_text(
        "warmup",
        [{"type": "right_shift"}, {"type": "matrix", "entries": [["0", "1"], ["0", "0"]]}],
    )
    warm = Op("warmup", ("analyze", "--in", str(path / "warmup.json"), "--lambda=0,1"), 1,
              {"kind": "analyze", "name": "warmup", "point": ("0", "1"), "matrix_atoms": 1})
    return Inputs("analyze-docs", "reports", ops, files, warm, pairs)


def _scan_op(key, path, name, lo, hi, steps, fmt, set_name) -> Op:
    bounds = f"{lo},{hi},{lo},{hi},{steps},{steps}"
    axis = [str(x) for x in _axis(lo, hi, steps)]
    argv = ("spectrum", "--in", str(path / f"{name}.json"), f"--grid={bounds}", "--format", fmt)
    if fmt == "json":
        argv += ("--set", set_name)
    return Op(key, argv, steps * steps,
              {"kind": "spectrum", "name": name, "format": fmt, "set": set_name,
               "axis": axis, "bounds": (str(lo), str(hi))})


def _scan_matrix(seed: int, path) -> Inputs:
    rng = Random(f"scan-matrix/{seed}")
    lo, hi = Fraction(-2), Fraction(2)
    ops, files, pairs = [], {}, set()
    for t, (kind, d, steps, fmt) in enumerate(SCAN_MATRIX_TEMPLATES * SCAN_MATRIX_COPIES):
        axis = _axis(lo, hi, steps)
        if kind == "dense":
            rows = dense_matrix(rng, d)
        else:
            # eigenvalues on the grid keep the singular path exercised
            rows, _, _ = jordan_matrix(rng, d, axis, [x for x in axis if x > 0])
        name = f"scan{t}"
        files[f"{name}.json"] = _doc_text(
            name, [{"type": "right_shift"}, {"type": "matrix", "entries": _rows_json(rows)}]
        )
        ops.append(_scan_op(str(t), path, name, lo, hi, steps, fmt, rng.choice(SPECTRUM_SETS)))
        key = _atom_key(rows)
        pairs.update((key, (str(re), str(im))) for im in axis for re in axis)
    files["warmup.json"] = _doc_text(
        "warmup", [{"type": "right_shift"}, {"type": "matrix", "entries": [["1", "1"], ["0", "1"]]}]
    )
    warm = _scan_op("warmup", path, "warmup", lo, hi, 3, "json", "pbf")
    return Inputs("scan-matrix", "points", ops, files, warm, pairs)


def _scan_shift(seed: int, path) -> Inputs:
    rng = Random(f"scan-shift/{seed}")
    ops, files = [], {}
    for t, (name, kinds, fmt) in enumerate(SCAN_SHIFT_TEMPLATES):
        files[f"{name}.json"] = _doc_text(name, [{"type": k} for k in kinds])
        r = rng.choice(SCAN_SHIFT_RADII)
        ops.append(_scan_op(str(t), path, name, -r, r, SCAN_SHIFT_STEPS, fmt,
                            rng.choice(SPECTRUM_SETS)))
    warm = _scan_op("warmup", path, "left_plus_qnil", Fraction(-1), Fraction(1), 3, "json", "pbf")
    return Inputs("scan-shift", "points", ops, files, warm)


def _verify(seed: int, path) -> Inputs:
    # The work of `verify --suite all --cases 200`, as short operations that
    # are each timed next to their own calibration: every suite runs on its
    # own, and the case-driven suites split their cases over several seeds.
    rng = Random(f"verify-suites/{seed}")
    ops = []
    for suite in VERIFY_SUITES:
        parts = VERIFY_SPLITS.get(suite, 1)
        cases = VERIFY_CASES // parts
        for _ in range(parts):
            argv = ("verify", "--suite", suite, "--cases", str(cases),
                    "--seed", str(rng.randrange(2**31)))
            units = cases if suite in VERIFY_SPLITS else 0
            ops.append(Op(str(len(ops)), argv, units, {"kind": "verify", "suites": 1}))
    warm = Op("warmup", ("verify", "--suite", "punctured", "--cases", "1", "--seed", "0"), 0,
              {"kind": "verify", "suites": 1})
    return Inputs("verify-suites", "cases", ops, {}, warm, cycle_is_request=True)


_BUILDERS = {
    "analyze-docs": _analyze,
    "scan-matrix": _scan_matrix,
    "scan-shift": _scan_shift,
    "verify-suites": _verify,
}


def generate(workload: str, seed: int, path) -> Inputs:
    """Inputs of one workload for one seed; document paths point into path."""
    return _BUILDERS[workload](seed, path)
