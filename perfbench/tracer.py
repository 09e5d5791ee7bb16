"""Spans around the public functions of each fredprofile layer.

Only the traced run installs these wrappers, and it removes them again
before anything untraced is timed. A wrapper replaces the function
everywhere the package holds a reference to it: the defining module, every
module that rebound it with `from .x import name`, and module-level dicts
such as the verify suite table. Each call records a span (name, start,
end, parent span, operation) in memory; self time is a span's duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name); two attributes may share one span name
TARGETS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "image_basis", "linalg.image_basis"),
    ("linalg", "subspace_sum", "linalg.subspace_sum"),
    ("linalg", "subspace_intersection", "linalg.subspace_intersection"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "restrict", "linalg.restrict"),
    ("linalg", "ExactMatrix.__matmul__", "linalg.matmul"),
    ("model", "realified", "model.realified"),
    ("model", "matrix_chain_data", "model.matrix_chain_data"),
    ("model", "matrix_profile", "model.matrix_profile"),
    ("model", "atom_profile", "model.atom_profile"),
    ("structure", "analyze_expr", "structure.analyze_expr"),
    ("structure", "drazin_inverse", "structure.drazin_inverse"),
    ("structure", "finiteness_quantities", "structure.finiteness_quantities"),
    ("structure", "alpha_beta_core_oracle", "structure.finiteness_quantities"),
    ("classify", "classify", "classify.classify"),
    ("classify", "check_lattice", "classify.check_lattice"),
    ("spectra", "scan", "spectra.scan"),
    ("spectra", "component_index_report", "spectra.component_index_report"),
    ("spectra", "scan_to_csv", "spectra.scan_to_csv"),
    ("spectra", "scan_to_json", "spectra.scan_to_json"),
    ("docio", "parse_document", "docio.parse_document"),
    ("docio", "build_report", "docio.build_report"),
    ("docio", "AnalysisReport.to_json", "docio.to_json"),
    ("verify", "suite_chains", "verify.suite.chains"),
    ("verify", "suite_gkd", "verify.suite.gkd"),
    ("verify", "suite_index_laws", "verify.suite.index-laws"),
    ("verify", "suite_duality", "verify.suite.duality"),
    ("verify", "suite_punctured", "verify.suite.punctured"),
    ("verify", "suite_spectra", "verify.suite.spectra"),
    ("cli", "main", "cli.main"),
)

RREF_BUCKETS = ("d_le6", "d_7_16", "d_17_48", "d_gt48")


def _rref_bucket(counts, args):
    m = args[0]
    d = max(m.rows, m.cols)
    b = "d_le6" if d <= 6 else "d_7_16" if d <= 16 else "d_17_48" if d <= 48 else "d_gt48"
    counts[f"linalg.rref.calls.{b}"] += 1


def _realified_doubled(counts, args):
    if args[2] != 0:
        counts["model.realified.doubled"] += 1


NOTES = {"linalg.rref": _rref_bucket, "model.realified": _realified_doubled}


class Tracer:
    """Installs span wrappers into the fredprofile modules and collects
    spans, per-name call counts, self times and total times."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op: str | None = None
        self._stack: list[list] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(self.counts, args)
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (name, t0, t1, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.total_s[name] += dur

        return wrapper

    def _replace(self, container, key, new):
        self._undo.append((container, key, container[key]))
        container[key] = new

    def install(self, modules: dict):
        """modules maps short names ("linalg", ...) to the imported
        fredprofile modules; every module in it is searched for references."""
        namespaces = [vars(m) for m in modules.values()]
        for modname, attr, span in TARGETS:
            mod = modules[modname]
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = vars(owner).get(fname)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span, orig)
            if owner_name:
                self._undo.append((owner, fname, orig))
                setattr(owner, fname, wrapper)
                continue
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is orig:
                        self._replace(ns, key, wrapper)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._replace(val, k2, wrapper)

    def remove(self):
        for container, key, orig in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._undo.clear()

    def dump(self, path, header: dict):
        """Write spans and counters as JSON; times are seconds from the
        first span's start."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header)
        doc.update(
            span_fields=["name", "start_s", "end_s", "parent", "op"],
            span_names=names,
            spans=[
                [index[n], round(a - t0, 7), round(b - t0, 7), p, op]
                for n, a, b, p, op in self.spans
            ],
            calls=dict(sorted(self.calls.items())),
            self_s=dict(sorted(self.self_s.items())),
            total_s=dict(sorted(self.total_s.items())),
            counters=dict(sorted(self.counts.items())),
            missing=self.missing,
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
