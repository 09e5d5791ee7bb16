"""Output checks for benchmark operations.

Every operation's output (stdout text and exit code) is hashed. For the
default seed the hashes must equal the digests recorded in golden.json;
for every seed a repeated operation must reproduce its first output byte
for byte. On top of that each first output is checked for shape: reports
round-trip through AnalysisReport and their classification passes
check_lattice, scans carry one lattice-clean row per grid point in order,
and verify ends with its all-suites-ok line. Any mismatch or exception
counts as a failed operation.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json


def digest(code: int, out: str) -> str:
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out.encode())
    return h.hexdigest()[:32]


class CheckError(Exception):
    """An operation's output is not what the program must produce."""


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _record(fp, flags: dict, summary: dict):
    """ClassificationRecord rebuilt from serialized flags and summary."""
    ExtNat, ExtIndex = fp.extvals.ExtNat, fp.extvals.ExtIndex

    def nat(s):
        return None if s == "undef" else ExtNat.from_str(s)

    s = fp.structure.StructuralSummary(
        alpha=nat(summary["alpha"]),
        beta=nat(summary["beta"]),
        p=nat(summary["p"]),
        q=nat(summary["q"]),
        index=ExtIndex.from_str(summary["index"]),
        dis=ExtNat.from_str(summary.get("dis", "0")),
    )
    return fp.classify.ClassificationRecord(**flags, summary=s)


def _lattice_clean(fp, rec, where: str):
    problems = fp.classify.check_lattice(rec)
    _require(not problems, f"{where}: lattice violated: {problems}")


def _check_analyze(fp, expect: dict, out: str):
    rep = fp.docio.AnalysisReport.from_json(out)
    _require(rep.to_json() == out, "report does not round-trip byte for byte")
    _require(rep.name == expect["name"], f"report name {rep.name!r}")
    _require((rep.re, rep.im) == tuple(expect["point"]), f"report point {(rep.re, rep.im)}")
    _require(set(rep.classification) == set(fp.classify.FLAG_NAMES), "flag set differs")
    _require(len(rep.matrix_atoms) == expect["matrix_atoms"], "matrix atom count differs")
    _lattice_clean(fp, _record(fp, rep.classification, rep.summary), "report")


def _scan_rows(fp, expect: dict, out: str) -> list[dict]:
    names = fp.classify.FLAG_NAMES
    if expect["format"] == "csv":
        lines = out.splitlines()
        header = ["re", "im", *names, "alpha", "beta", "p", "q", "index"]
        _require(lines and lines[0].split(",") == header, "CSV header differs")
        rows = []
        for cells in csv.reader(io.StringIO("\n".join(lines[1:]))):
            _require(len(cells) == len(header), "CSV row width differs")
            _require(all(c in ("0", "1") for c in cells[2 : 2 + len(names)]), "flag not 0/1")
            row = dict(zip(header, cells))
            for n in names:
                row[n] = row[n] == "1"
            rows.append(row)
        return rows
    doc = json.loads(out)
    lo, hi = expect["bounds"]
    steps = len(expect["axis"])
    _require(
        doc["grid"] == {"re_min": lo, "re_max": hi, "im_min": lo, "im_max": hi,
                        "re_steps": steps, "im_steps": steps},
        "grid block differs",
    )
    _require(doc["set"] == expect["set"], "set name differs")
    return doc["points"]


def _check_spectrum(fp, expect: dict, out: str):
    rows = _scan_rows(fp, expect, out)
    axis = expect["axis"]
    want = [(re, im) for im in axis for re in axis]
    _require(len(rows) == len(want), f"{len(rows)} rows for {len(want)} grid points")
    outside = 0
    for row, pt in zip(rows, want):
        _require((row["re"], row["im"]) == pt, f"row at {(row['re'], row['im'])}, want {pt}")
        flags = {n: row[n] for n in fp.classify.FLAG_NAMES}
        rec = _record(fp, flags, row)
        _lattice_clean(fp, rec, f"point {pt}")
        outside += not fp.spectra.spectrum_membership(rec, expect["set"])
    if expect["format"] == "json":
        comps = json.loads(out)["component_report"]
        _require(sum(c["point_count"] for c in comps) == outside,
                 "components do not cover the complement of the spectrum")
        _require(all(c["index_constant"] for c in comps), "a component mixes index values")


def _check_verify(expect: dict, code: int, out: str):
    _require(code == 0, f"verify exit code {code}")
    _require(out.endswith(f"verify: {expect['suites']} suites ok\n"), "verify did not pass")


def check_output(fp, expect: dict, code: int, out: str):
    """Raise CheckError (or the parser's own error) unless out is a valid
    output for an operation with this expectation."""
    kind = expect["kind"]
    if kind == "verify":
        _check_verify(expect, code, out)
        return
    _require(code == 0, f"exit code {code}")
    if kind == "analyze":
        _check_analyze(fp, expect, out)
    else:
        _check_spectrum(fp, expect, out)
