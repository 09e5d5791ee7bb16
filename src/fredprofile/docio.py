"""Operator description documents and analysis reports.

Documents are JSON: {"name": text, "atoms": [record, ...]} where a record
is {"type": "right_shift"} (or any other shift tag) or
{"type": "matrix", "entries": [[row of rationals], ...]}. Rationals travel
as quoted strings "p" or "p/q", never as JSON numbers. Reports are JSON
with every rational and extended value rendered the same way; chains are
stored by prefix plus affine tail so parsing a serialized report
reconstructs it exactly.

Reports, documents and the head of a JSON spectrum scan are written by
one writer, json_text, in the layout of the standard json module's dumps
with indent=2 and its default ASCII escaping, byte for byte; it takes
only the values such output is made of: str, int, bool, None, lists and
dicts with str keys.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote

from .classify import classify_analysis
from .errors import DocumentError, OutputError
from .extvals import EvAffineSeq, ExtNat, ratio_numeral
from .linalg import ExactMatrix
from .model import ATOM_KINDS, Atom, OperatorExpr, Point
from .structure import analyze_expr, gkd_pair

# The limit bounds rows, not work: at d = 64, spectrum's characteristic
# polynomial (Berkowitz, O(d^4) products of integers that grow with the
# entries) took 0.8 s with 1-digit integer entries, 22.9 s with 100-digit
# integers and 383 s with 3-digit fractions, under CPython 3.11 on a
# 2-core host. The other commands build none, but the limit holds for
# every command; a bound on work is an open item in ROADMAP.md.
MAX_MATRIX_DIM = 64

# A 64 x 64 matrix document as serialize_document writes it takes 79 KB with
# one-digit entries, 317 KB with 30-digit numerators and denominators and
# 890 KB with 100-digit ones, so 1 MiB holds the largest matrix atom with
# entries of up to about 100 digits over 100 digits. A longer document is
# refused before json.loads builds anything from it.
MAX_DOCUMENT_BYTES = 2**20


# the text of each scalar json_text writes, by exact type; bool is not int
_SCALAR_TEXT = {
    str: quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_json(v: object, indent: str, out: list[str]) -> None:
    """Append the text of the list or dict v to out; indent is a newline
    and v's own indentation. A list of strs is joined in one step."""
    inner = indent + "  "
    sep = "," + inner
    if type(v) is list:
        if not v:
            out.append("[]")
            return
        try:
            out.append("[" + inner + sep.join(map(quote, v)) + indent + "]")
            return
        except TypeError:  # an item that is not a str
            pass
        head = "[" + inner
        for x in v:
            text = _SCALAR_TEXT.get(type(x))
            if text is None:
                out.append(head)
                _write_json(x, inner, out)
            else:
                out.append(head + text(x))
            head = sep
        out.append(indent + "]")
    elif type(v) is dict:
        if not v:
            out.append("{}")
            return
        head = "{" + inner
        for k, x in v.items():
            if type(k) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
            text = _SCALAR_TEXT.get(type(x))
            if text is None:
                out.append(head + quote(k) + ": ")
                _write_json(x, inner, out)
            else:
                out.append(head + quote(k) + ": " + text(x))
            head = sep
        out.append(indent + "}")
    else:
        raise TypeError(f"{type(v).__name__} is not written as JSON")


def json_text(v: object) -> str:
    """v laid out as the json module's dumps(v, indent=2) lays it out. v is
    built of str, int, bool, None, lists and dicts with str keys; any other
    value, a float or a tuple for one, raises TypeError."""
    text = _SCALAR_TEXT.get(type(v))
    if text is not None:
        return text(v)
    out: list[str] = []
    _write_json(v, "\n", out)
    return "".join(out)


def _parse_ratio(value: object) -> tuple[int, int]:
    """(p, q), q > 0, from a quoted "p" or "p/q" string as
    extvals.ratio_numeral reads it; anything else, a JSON number above all,
    is a DocumentError."""
    if not isinstance(value, str):
        raise DocumentError(f"not a rational string: {value!r}")
    try:
        return ratio_numeral(value)
    except ValueError as exc:
        raise DocumentError(f"not a rational string: {exc}") from None


_TOO_LONG = "rational too long to print: more digits than Python's int-string limit"


def _ratio_str(n: int, d: int) -> str:
    """The "p" or "p/q" text of n/d, d > 0, as str(Fraction(n, d)) gives
    it. A numerator or denominator longer than Python's int-string limit
    raises OutputError; the limit is kept."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise OutputError(_TOO_LONG) from None


def rational_str(q: Fraction) -> str:
    """The "p" or "p/q" text of q; OutputError past the int-string limit."""
    return _ratio_str(q.numerator, q.denominator)


def matrix_rows(m: ExactMatrix) -> list[list[str]]:
    """The rendered entries of m, row by row, straight from its integer
    numerators and common denominator: over a denominator 1 each is its
    numerator's str, otherwise a zero is "0" and any other entry its
    _ratio_str. Past the int-string limit this raises OutputError."""
    c, den = m.cols, m.den
    if den == 1:
        try:
            cells = list(map(str, m.num))
        except ValueError:
            raise OutputError(_TOO_LONG) from None
    else:
        cells = [_ratio_str(x, den) if x else "0" for x in m.num]
    return [cells[i * c : (i + 1) * c] for i in range(m.rows)]


@dataclass(frozen=True)
class OperatorDocument:
    name: str
    expr: OperatorExpr


def _atom_from_record(rec: object) -> Atom:
    if not isinstance(rec, dict):
        raise DocumentError("atom record must be an object")
    kind = rec.get("type")
    if kind not in ATOM_KINDS:
        raise DocumentError(f"unknown atom type {kind!r}")
    if kind != "matrix":
        extra = set(rec) - {"type"}
        if extra:
            raise DocumentError(f"unexpected keys {sorted(extra)} on {kind} atom")
        return Atom(kind)
    extra = set(rec) - {"type", "entries"}
    if extra:
        raise DocumentError(f"unexpected keys {sorted(extra)} on matrix atom")
    rows = rec.get("entries")
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise DocumentError("matrix entries must be a nonempty list of rows")
    n = len(rows)
    if n > MAX_MATRIX_DIM:
        raise DocumentError(f"matrix has {n} rows, more than the limit of {MAX_MATRIX_DIM}")
    if any(len(r) != n for r in rows):
        raise DocumentError("matrix atoms must be square")
    pairs = [_parse_ratio(v) for r in rows for v in r]
    return Atom("matrix", ExactMatrix.from_ratios(n, n, pairs))


def _atom_to_record(a: Atom) -> dict:
    if a.kind != "matrix":
        return {"type": a.kind}
    return {"type": "matrix", "entries": matrix_rows(a.matrix)}


def _load_json(text: str) -> object:
    # ValueError covers JSONDecodeError and a number literal longer than
    # the int-string limit; RecursionError is nesting deeper than the stack
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


def parse_document(text: str) -> OperatorDocument:
    # a character takes at least one UTF-8 byte, so the first test spares
    # encoding an overlong text
    if (
        len(text) > MAX_DOCUMENT_BYTES
        or len(text.encode("utf-8", "surrogatepass")) > MAX_DOCUMENT_BYTES
    ):
        raise DocumentError(f"document is larger than {MAX_DOCUMENT_BYTES} bytes")
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    extra = set(obj) - {"name", "atoms"}
    if extra:
        raise DocumentError(f"unexpected document keys {sorted(extra)}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise DocumentError("document needs a nonempty name")
    atoms = obj.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise DocumentError("document needs a nonempty atom list")
    return OperatorDocument(name, OperatorExpr(tuple(_atom_from_record(r) for r in atoms)))


def serialize_document(doc: OperatorDocument) -> str:
    obj = {"name": doc.name, "atoms": [_atom_to_record(a) for a in doc.expr.atoms]}
    return json_text(obj) + "\n"


def _seq_block(seq: EvAffineSeq, shown: int) -> dict:
    """The block of seq; its shown window of the first `shown` values is
    the prefix texts, then the tail's values as ints."""
    prefix = [v.to_str() for v in seq.prefix]
    base, slope, rest = seq.tail_base.value, seq.tail_slope, shown - len(prefix)
    tail = ["inf"] * rest if base is None else [str(base + slope * k) for k in range(rest)]
    return {
        "prefix": prefix,
        "tail_base": seq.tail_base.to_str(),
        "tail_slope": slope,
        "shown": prefix[:shown] + tail,
        "tail": seq.tail_formula(),
    }


def _seq_from_block(b: dict) -> EvAffineSeq:
    # a str or a dict would iterate as characters or keys
    if type(b["prefix"]) is not list:
        raise TypeError(f"prefix must be a list, not {b['prefix']!r}")
    return EvAffineSeq(
        tuple(ExtNat.from_str(v) for v in b["prefix"]),
        ExtNat.from_str(b["tail_base"]),
        b["tail_slope"],
    )


def _bool_block(closed: bool, shown: int) -> dict:
    """The sequence n -> R(S^n) closed, as an eventually constant block: true
    at every n, or only at n = 0 (StructuralProfile.range_closed)."""
    return {
        "prefix": [] if closed else [True],
        "tail": closed,
        "shown": [True] + [closed] * (shown - 1),
    }


@dataclass(frozen=True)
class AnalysisReport:
    """Lossless JSON-shaped view of one analysis: flags, summary, chains
    (prefix + affine tail, plus a finite display window), decomposition
    bases, and each split matrix atom's shifted block and Drazin inverse."""

    name: str
    re: str
    im: str
    classification: dict
    summary: dict
    chains: dict
    gkd: dict
    matrix_atoms: list

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "point": {"re": self.re, "im": self.im},
            "classification": self.classification,
            "summary": self.summary,
            "chains": self.chains,
            "gkd": self.gkd,
            "matrix_atoms": self.matrix_atoms,
        }
        return json_text(obj) + "\n"

    @staticmethod
    def from_json(text: str) -> "AnalysisReport":
        obj = _load_json(text)
        try:
            return AnalysisReport(
                name=obj["name"],
                re=obj["point"]["re"],
                im=obj["point"]["im"],
                classification=obj["classification"],
                summary=obj["summary"],
                chains=obj["chains"],
                gkd=obj["gkd"],
                matrix_atoms=obj["matrix_atoms"],
            )
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"malformed report: {exc}") from None

    def chain(self, which: str) -> EvAffineSeq:
        try:
            return _seq_from_block(self.chains[which])
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"malformed chain {which!r}: {exc}") from None


def build_report(doc: OperatorDocument, lam: Point) -> AnalysisReport:
    e = doc.expr
    an = analyze_expr(e, lam)
    rec = classify_analysis(an)
    s = an.summary
    full = an.full
    shown = 2 * e.matrix_ambient() + 4

    summary = {**s.to_strs(), "dis": s.dis.to_str()}
    chains = {
        "display_length": shown,
        "a": _seq_block(full.a, shown),
        "r": _seq_block(full.r, shown),
        "c": _seq_block(full.c, shown),
        "b": _seq_block(full.b, shown),
        # defect chain k_n = c_n - c_{n+1}
        "k": _seq_block(full.c.diff(), shown),
        "range_closed": _bool_block(full.range_closed, shown),
        # stabilization point of the kernel chain: the Fitting index for
        # matrix expressions
        "fitting_index": full.a.stabilization_point().to_str(),
        "nilpotency_degree": full.nilpotency_degree.to_str(),
        "quasi_nilpotent": full.is_quasinilpotent,
        "pseudo_fredholm_point": full.is_pseudofredholm_point,
    }
    pair = gkd_pair(an)
    gkd: dict = {"decomposable": an.decomposable}
    if an.decomposable:
        gkd |= {
            "m_part": None
            if pair.m_part is None
            else [_atom_to_record(a) for a in pair.m_part.atoms],
            "n_part": None
            if pair.n_part is None
            else [_atom_to_record(a) for a in pair.n_part.atoms],
            "splits": [
                {
                    "atom_index": sp.atom_index,
                    "m_basis": matrix_rows(sp.m_basis.matrix),
                    "n_basis": matrix_rows(sp.n_basis.matrix),
                }
                for sp in pair.splits
            ],
        }
    matrix_atoms = [
        {
            "atom_index": sp.atom_index,
            "shifted_block": matrix_rows(sp.block),
            "drazin": matrix_rows(sp.drazin),
            # The block S is invertible on its Fitting core K, so
            # K ∩ N(S) = 0, and R(S) contains S(K) = K, so R(S) + H0
            # contains K + H0, the whole space.
            "core_kernel_meet_dim": "0",
            "range_h0_join_codim": "0",
        }
        for sp in pair.splits
    ]
    return AnalysisReport(
        name=doc.name,
        re=rational_str(lam[0]),
        im=rational_str(lam[1]),
        classification=rec.flags(),
        summary=summary,
        chains=chains,
        gkd=gkd,
        matrix_atoms=matrix_atoms,
    )
