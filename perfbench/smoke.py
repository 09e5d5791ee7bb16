"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

From the root of a source checkout: runs every workload briefly, untraced
and traced, and requires every metric BENCHMARK.json names, with its unit,
no failed operation and a passing output check. Then shows that one
altered output byte counts as a failure, both against the recorded
digests of the default seed and against the first run of an input on
another seed, and that the benchmark refuses to run without the package
sources. Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(bench: dict) -> list[str]:
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run_bench(ROOT, w, trace)
            if p.returncode != 0:
                problems.append(f"{w} trace {trace}: exit {p.returncode}: {p.stderr[-500:]}")
                continue
            res = json.loads(p.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: v["unit"] for n, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                "missing or extra, or units differ")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            print(f"{w} trace {trace}: {res['attempted']} operations, {len(got)} metrics")
    return problems


def check_tamper() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    sys.path.insert(0, str(run.SRC))
    problems = []
    for seed in (run.DEFAULT_SEED, run.DEFAULT_SEED + 1):
        inputs_dir = run.OUT / f"smoke-inputs-{seed}"
        try:
            fp, inputs = run.setup("analyze-docs", seed, inputs_dir)
            checker = run.Checker(fp, run.load_golden("analyze-docs", seed))
            op = inputs.ops[0]
            code, out, err, _, exc = run.execute(fp, op.argv)
            i = len(out) // 2
            altered = out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1 :]
            # default seed: an altered first output must miss its recorded
            # digest; other seeds: an altered repeat must miss the first output
            genuine = seed == run.DEFAULT_SEED or checker.record(op, code, out, err, exc)
            caught = not checker.record(op, code, altered, err, None)
            if not genuine or not caught or checker.failed != 1:
                problems.append(f"seed {seed}: genuine output passed={genuine}, "
                                f"altered output caught={caught}")
            else:
                print(f"seed {seed}: altered output byte counted as a failure")
        finally:
            shutil.rmtree(inputs_dir, ignore_errors=True)
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / "perfbench" / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        p = run_bench(bare, "scan-shift", 0)
        if p.returncode == 0 or p.stdout.strip():
            return [f"without sources: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]
        print("without sources: refused with exit", p.returncode)
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_runs(bench) + check_tamper() + check_refuses_without_sources()
    for p in problems:
        print("PROBLEM", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
