"""fredprofile benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads (see workloads.py and BENCHMARK.json): analyze-docs,
scan-matrix, scan-shift, verify-suites. Each operation is one in-process
call of fredprofile.cli.main(argv) with stdout captured; its output is
checked (checks.py) and any mismatch or exception counts as a failed
operation.

--trace 0 repeats the workload's cycle of operations for S seconds with no
wrappers installed and reports the end-to-end metrics. Timings are scaled
to the host's nominal speed by a calibration loop timed next to each
operation (see calibration_seconds). --trace 1 runs the cycle once with
span wrappers on every public layer function (tracer.py) and once without,
and reports the per-layer metrics and the tracing overhead; spans and
counters go to perfbench/out/trace-<workload>-seed<N>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from checks import check_output, digest
from tracer import RREF_BUCKETS, Tracer
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
MODULES = ("cli", "docio", "classify", "structure", "model", "linalg", "spectra", "verify", "extvals")

# workload-specific names of the shared end-to-end metrics, printed beside them
ALIASES = {
    "analyze-docs": ("reports_per_s", "report_p50_ms", "report"),
    "scan-matrix": ("points_per_s", "scan_p50_ms", "scan"),
    "scan-shift": ("points_per_s", "scan_p50_ms", "scan"),
    "verify-suites": ("cases_per_s", "verify_p50_ms", "verify run"),
}


class Package:
    """The fredprofile modules, imported afresh from ./src."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "fredprofile" or m.startswith("fredprofile.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        root = importlib.import_module("fredprofile")
        if Path(root.__file__).resolve().parent != SRC / "fredprofile":
            raise ImportError(f"fredprofile imported from {root.__file__}, not {SRC}")
        self.modules = {m: importlib.import_module(f"fredprofile.{m}") for m in MODULES}
        for name, mod in self.modules.items():
            setattr(self, name, mod)


def execute(fp: Package, argv):
    """One cli.main call: (exit code, stdout, stderr, seconds, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = fp.cli.main(list(argv))
        except Exception as e:  # a crash is a failed operation, not a benchmark error
            exc = e
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt, exc


class Checker:
    """Counts attempted and failed operations. An output is compared with
    the first output of the same input in this run and, for the default
    seed, with the recorded digest; a first output is checked for shape."""

    def __init__(self, fp: Package, golden: dict | None):
        self.fp = fp
        self.golden = golden
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, op, code, out, err, exc) -> bool:
        self.attempted += 1
        problem = None
        if exc is not None:
            problem = f"raised {exc!r}"
        else:
            d = digest(code, out)
            if op.key in self.first:
                if d != self.first[op.key]:
                    problem = "output differs from the first run of the same input"
            else:
                self.first[op.key] = d
                try:
                    check_output(self.fp, op.expect, code, out)
                except Exception as e:
                    problem = f"output check: {e!r}"
            if problem is None and self.golden is not None and self.golden.get(op.key) != d:
                problem = "digest differs from the one recorded for this seed"
        if problem is None:
            return True
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.key} {' '.join(op.argv)}: {problem} {err[-300:]}", file=sys.stderr)
        return False


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError("golden.json was recorded for another seed")
    return doc["workloads"][workload]


def setup(workload: str, seed: int, inputs_dir: Path):
    """Import, input generation and one warm-up operation."""
    fp = Package()
    inputs = generate(workload, seed, inputs_dir)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (inputs_dir / name).write_text(text, encoding="utf-8")
    code, out, _, _, exc = execute(fp, inputs.warmup.argv)
    if exc is not None:
        raise exc
    check_output(fp, inputs.warmup.expect, code, out)
    return fp, inputs


# A fixed pure-Python Fraction elimination, timed before and after every
# operation. The shared host runs identical work up to twice as slow for
# seconds to minutes at a time; dividing by the loop's time measured
# alongside scales each timing to the host's nominal speed, at which the
# loop takes CAL_NOMINAL_S (Python 3.11 on the reference host).
CAL_NOMINAL_S = 0.0045
_CAL_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7)]
               for i in range(7)]


def calibration_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(5):
        rows = [r[:] for r in _CAL_MATRIX]
        for c in range(7):
            piv = next((r for r in range(c, 7) if rows[r][c]), None)
            if piv is None:
                continue
            rows[c], rows[piv] = rows[piv], rows[c]
            inv = 1 / rows[c][c]
            for r in range(7):
                if r != c and rows[r][c]:
                    f = rows[r][c] * inv
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return time.perf_counter() - t0


def run_cycle(fp, checker, ops, tracer=None):
    """Run ops in order; returns (seconds per op, scaled seconds per op,
    stdout per op). Failed operations get None for both times."""
    times, scaled, outputs = [], [], []
    before = calibration_seconds()
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
        code, out, err, dt, exc = execute(fp, op.argv)
        after = calibration_seconds()
        ok = checker.record(op, code, out, err, exc)
        times.append(dt if ok else None)
        scaled.append(scaled_time(dt, before, after) if ok else None)
        outputs.append(out)
        before = after
    return times, scaled, outputs


def scaled_time(dt: float, before: float, after: float) -> float:
    return dt * 2 * CAL_NOMINAL_S / (before + after)


def measure(inputs, checker, seconds: float) -> dict:
    """Repeat the cycle, each time on a freshly imported package, at least
    twice (the second run checks that outputs repeat byte for byte) and
    until the next repetition would end after `seconds`. An operation's
    figure is the median over repetitions of its scaled time (None if it
    never succeeded); raw keeps the unscaled seconds of each repetition."""
    scaled_reps, raw = [], []
    start = time.perf_counter()
    while True:
        times, scaled, _ = run_cycle(Package(), checker, inputs.ops)
        raw.append(times)
        scaled_reps.append(scaled)
        elapsed = time.perf_counter() - start
        if len(raw) >= 2 and elapsed + elapsed / len(raw) > seconds:
            break
    figures = []
    for i in range(len(inputs.ops)):
        ok = [rep[i] for rep in scaled_reps if rep[i] is not None]
        figures.append(statistics.median(ok) if ok else None)
    return {"figures": figures, "raw": raw}


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, inputs, outputs, overhead: float) -> dict:
    ops = inputs.ops
    m = {}
    for b in RREF_BUCKETS:
        m[f"linalg.rref.calls.{b}"] = (tr.counts[f"linalg.rref.calls.{b}"], "count")
    m["linalg.rref.self_s"] = (tr.self_s["linalg.rref"], "s")
    for n in ("kernel_basis", "image_basis", "subspace_sum", "subspace_intersection",
              "inverse", "restrict", "matmul"):
        m[f"linalg.{n}.calls"] = (tr.calls[f"linalg.{n}"], "count")
        m[f"linalg.{n}.self_s"] = (tr.self_s[f"linalg.{n}"], "s")
    chain_calls = tr.calls["model.matrix_chain_data"]
    m["model.matrix_chain_data.calls"] = (chain_calls, "count")
    m["model.matrix_chain_data.self_s"] = (tr.self_s["model.matrix_chain_data"], "s")
    m["model.realified.doubled"] = (tr.counts["model.realified.doubled"], "count")
    pairs = len(inputs.atom_points)
    m["model.chain_data_per_atom_point"] = (chain_calls / pairs if pairs else 0.0, "ratio")
    reports = sum(op.expect["kind"] == "analyze" for op in ops)
    analyze_calls = tr.calls["structure.analyze_expr"]
    m["structure.analyze_expr.calls"] = (analyze_calls, "count")
    m["structure.analyze_expr.per_report"] = (analyze_calls / reports if reports else 0.0, "ratio")
    for n in ("structure.drazin_inverse", "structure.finiteness_quantities",
              "classify.classify", "classify.check_lattice", "spectra.scan",
              "spectra.component_index_report", "spectra.scan_to_csv", "spectra.scan_to_json"):
        m[f"{n}.self_s"] = (tr.self_s[n], "s")
    m["spectra.output_bytes"] = (
        sum(len(o.encode()) for op, o in zip(ops, outputs) if op.expect["kind"] == "spectrum"),
        "bytes",
    )
    for n in ("docio.parse_document", "docio.build_report", "docio.to_json"):
        m[f"{n}.self_s"] = (tr.self_s[n], "s")
    m["docio.output_bytes"] = (
        sum(len(o.encode()) for op, o in zip(ops, outputs) if op.expect["kind"] == "analyze"),
        "bytes",
    )
    for suite in ("chains", "gkd", "index-laws", "duality", "punctured", "spectra"):
        m[f"verify.suite.{suite}.s"] = (tr.total_s[f"verify.suite.{suite}"], "s")
    m["cli.main.self_s"] = (tr.self_s["cli.main"], "s")
    m["trace_overhead_ratio"] = (overhead, "ratio")
    return m


def traced(inputs, checker, out_path: Path, header: dict) -> dict:
    ops = inputs.ops
    fp = Package()
    tr = Tracer()
    tr.install(fp.modules)
    try:
        _, times, outputs = run_cycle(fp, checker, ops, tr)
    finally:
        tr.remove()
    # the same cycle untraced: overhead base, and a byte-for-byte repeat
    _, plain, _ = run_cycle(Package(), checker, ops)
    ok = [(a, b) for a, b in zip(times, plain) if a is not None and b is not None]
    overhead = sum(a for a, _ in ok) / sum(b for _, b in ok) if ok else 0.0
    metrics = layer_metrics(tr, inputs, outputs, overhead)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tr.dump(out_path, header)
    return metrics


def end_to_end(inputs, checker, seconds: float, setup_s: float) -> dict:
    res = measure(inputs, checker, seconds)
    figures = [f for f in res["figures"] if f is not None]
    units = sum(op.units for op, f in zip(inputs.ops, res["figures"]) if f is not None)
    if inputs.cycle_is_request:
        latencies = [sum(figures)] if figures else []
        raw = [sum(t for t in rep if t is not None) for rep in res["raw"]]
    else:
        latencies = figures
        raw = [t for rep in res["raw"] for t in rep if t is not None]
    rate_name, p50_name, op_name = ALIASES[inputs.name]
    print(f"  {rate_name} = throughput_per_s: {inputs.unit} of one cycle / sum of its "
          f"{len(figures)} operations' figures; {len(res['raw'])} repetitions")
    print(f"  {p50_name} = latency_p50_ms: median of {len(latencies)} {op_name} figures")
    tail = tail_percentile(sorted(raw))
    if tail is not None:
        print(f"  {op_name}_p{tail[0]}_ms {1000 * tail[1]:.3f} ms unscaled, over all "
              f"{len(raw)} {op_name} timings (highest percentile with 10 samples beyond it)")
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (units / sum(figures) if figures else 0.0, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies) if latencies else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def machine() -> str:
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            "single process, no extra threads")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fredprofile" / "__init__.py").is_file():
        print(f"error: no fredprofile sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs_dir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = calibration_seconds()
            t0 = time.perf_counter()
            fp, inputs = setup(args.workload, args.seed, inputs_dir)
            dt = time.perf_counter() - t0
            setup_times.append(scaled_time(dt, before, calibration_seconds()))
        checker = Checker(fp, load_golden(args.workload, args.seed))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} ({machine()})")
        if args.trace:
            out_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            header = {"workload": args.workload, "seed": args.seed, "machine": machine()}
            named = traced(inputs, checker, out_path, header)
            print(f"spans and counters: {out_path.relative_to(ROOT)}")
        else:
            named = end_to_end(inputs, checker, args.seconds, statistics.median(setup_times))
        print(f"  fail_ratio {checker.failed / checker.attempted:g} "
              f"({checker.failed} of {checker.attempted} operations failed)")
        for name, (value, unit) in named.items():
            print(f"  {name} {value:.6g} {unit}")
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
