"""Record perfbench/golden.json: the output digest of every operation of
each workload's cycle, for the default seed, from the current sources.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Re-record only when the benchmark's inputs change; the library's outputs
must stay byte-identical, so a digest that no longer matches is a failure
of the program, not of this file. Each output is shape-checked before its
digest is kept.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from checks import check_output, digest
from run import DEFAULT_SEED, GOLDEN, OUT, SRC, execute, setup
from workloads import WORKLOADS


def record(workload: str) -> dict[str, str]:
    inputs_dir = OUT / f"inputs-{workload}-{os.getpid()}"
    try:
        fp, inputs = setup(workload, DEFAULT_SEED, inputs_dir)
        digests = {}
        for op in inputs.ops:
            code, out, _, _, exc = execute(fp, op.argv)
            if exc is not None:
                raise exc
            check_output(fp, op.expect, code, out)
            digests[op.key] = digest(code, out)
        return digests
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as fh:
            doc = json.load(fh)
    for w in names or WORKLOADS:
        doc["workloads"][w] = record(w)
        print(f"{w}: {len(doc['workloads'][w])} digests")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
