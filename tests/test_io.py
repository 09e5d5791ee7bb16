import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fredprofile import docio
from fredprofile.docio import (
    MAX_DOCUMENT_BYTES,
    MAX_MATRIX_DIM,
    AnalysisReport,
    OperatorDocument,
    build_report,
    parse_document,
    rational_str,
    serialize_document,
)
from fredprofile.errors import DocumentError
from fredprofile.linalg import ExactMatrix, SubspaceBasis, exact_rational
from fredprofile.model import (
    LEFT_SHIFT,
    QNIL_SHIFT,
    QNIL_SHIFT_DUAL,
    RIGHT_SHIFT,
    OperatorExpr,
    matrix_atom,
    point,
)
from fredprofile.spectra import GridSpec

J3 = matrix_atom([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def doc_text(*atom_records, name="op"):
    import json

    return json.dumps({"name": name, "atoms": list(atom_records)})


def test_parse_rational():
    assert exact_rational("3/4") == F(3, 4)
    assert exact_rational("-7") == F(-7)
    assert exact_rational("-10/4") == F(-5, 2)
    assert rational_str(F(-5, 2)) == "-5/2"


REJECTED = [
    "1.5", "1e3", "", "1/0", "3/-4", "/2", "1 / 2", 3, 0.5, None, [1], "1/00", "-3/000",
    "1_0", "+1",
    # other scripts' decimal digits: Arabic-Indic, fullwidth, Devanagari
    "\u0661/\u0662", "\uff11\uff12", "1/\u0968",
    # more digits than Python's int-string limit
    pytest.param("1" * 5000, id="5000-digits"),
]


@pytest.mark.parametrize("bad", REJECTED)
def test_parse_rational_rejects(bad):
    # a malformed string is a ValueError of the library reader and, as a
    # document entry, a DocumentError; so is an entry that is not a string
    if isinstance(bad, str):
        with pytest.raises(ValueError):
            exact_rational(bad)
    with pytest.raises(DocumentError):
        parse_document(doc_text({"type": "matrix", "entries": [[bad]]}))


@pytest.mark.parametrize(
    "bad",
    # the string rows above, the pytest.param among them
    [b for b in REJECTED if isinstance(getattr(b, "values", (b,))[0], str)]
    + ["1e10000000", " 1/2 ", "1_000"],
)
def test_library_strings_take_the_document_grammar(bad):
    # Fraction's own grammar read "1.5", "1e3", " 1/2 " and, from Python
    # 3.11 on, "1_000", and took 11 s over "1e10000000"
    calls = [
        lambda: exact_rational(bad),
        lambda: point(bad),
        lambda: point(0, bad),
        lambda: GridSpec(bad, bad, 0, 0, 1, 1),
        lambda: ExactMatrix.from_rows([[1, bad]]),
        lambda: SubspaceBasis.from_vectors(2, [(1, bad)]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_document_round_trip_all_atom_kinds():
    expr = OperatorExpr.of(
        RIGHT_SHIFT,
        matrix_atom([[F(1, 2), -2], [0, 3]]),
        LEFT_SHIFT,
        QNIL_SHIFT,
        QNIL_SHIFT_DUAL,
    )
    doc = OperatorDocument("mixed", expr)
    text = serialize_document(doc)
    assert text.endswith("\n")
    assert parse_document(text) == doc


def test_document_parse_matrix_entries():
    doc = parse_document(
        doc_text({"type": "matrix", "entries": [["0", "1/2"], ["-3", "4"]]})
    )
    m = doc.expr.atoms[0].matrix
    assert m.at(0, 1) == F(1, 2) and m.at(1, 0) == F(-3)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"name": "x"}',
        '{"name": "x", "atoms": []}',
        '{"name": "", "atoms": [{"type": "right_shift"}]}',
        '{"name": 3, "atoms": [{"type": "right_shift"}]}',
        '{"name": "x", "atoms": [{"type": "right_shift"}], "zzz": 1}',
        '{"name": "x", "atoms": [{"type": "spiral"}]}',
        '{"name": "x", "atoms": ["right_shift"]}',
        '{"name": "x", "atoms": [{"type": "left_shift", "entries": []}]}',
        '{"name": "x", "atoms": [{"type": "matrix"}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": []}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [["1", "0"]]}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [[1]]}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [["1/0"]]}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [["0.5"]]}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": "1"}]}',
        pytest.param(
            '{"name": "x", "atoms": [{"type": "matrix", "entries": [[%s]]}]}' % ("1" * 5000),
            id="5000-digit-number",
        ),
    ],
)
def test_document_rejects(text):
    with pytest.raises(DocumentError):
        parse_document(text)


def test_matrix_dimension_is_bounded_before_entries_are_parsed():
    zeros = [["0"] * MAX_MATRIX_DIM] * MAX_MATRIX_DIM
    doc = parse_document(doc_text({"type": "matrix", "entries": zeros}))
    assert doc.expr.atoms[0].matrix.rows == 64
    # entries that would not parse: the row count is refused first
    floats = [[0.5] * 65] * 65
    with pytest.raises(DocumentError, match="65 rows, more than the limit of 64"):
        parse_document(doc_text({"type": "matrix", "entries": floats}))


def test_document_size_is_bounded_before_json_is_parsed(monkeypatch):
    # the largest matrix atom with 100-digit numerators and denominators fits
    big = F(-(10**100 - 1), 10**100 + 1)
    rows = [[big] * MAX_MATRIX_DIM] * MAX_MATRIX_DIM
    doc = OperatorDocument("m", OperatorExpr.of(matrix_atom(rows)))
    text = serialize_document(doc)
    assert len(text.encode()) <= MAX_DOCUMENT_BYTES
    assert parse_document(text) == doc
    loads = []
    monkeypatch.setattr(docio.json, "loads", lambda *args, **kwargs: loads.append(args))
    padded = text + " " * (MAX_DOCUMENT_BYTES + 1 - len(text.encode()))
    # two-byte characters: under the limit in characters, over it in bytes
    wide = doc_text(name="\u00e9" * (MAX_DOCUMENT_BYTES // 2))
    for over in (padded, wide):
        with pytest.raises(DocumentError, match=f"larger than {MAX_DOCUMENT_BYTES} bytes"):
            parse_document(over)
    assert loads == []


def test_report_round_trip_is_lossless():
    rep = build_report(OperatorDocument("j3", OperatorExpr.of(J3)), point(0))
    assert AnalysisReport.from_json(rep.to_json()) == rep


def test_report_jordan_block_at_zero():
    rep = build_report(OperatorDocument("j3", OperatorExpr.of(J3)), point(0))
    assert (rep.re, rep.im) == ("0", "0")
    assert rep.summary == {
        "alpha": "0",
        "beta": "0",
        "p": "0",
        "q": "0",
        "index": "0",
        "dis": "3",
    }
    assert rep.classification["gen_drazin"] is True
    assert rep.classification["b_fredholm"] is True
    assert rep.classification["invertible"] is False
    ch = rep.chains
    assert ch["display_length"] == 10
    assert ch["a"]["shown"] == ["0", "1", "2", "3", "3", "3", "3", "3", "3", "3"]
    assert ch["a"]["tail"] == "3 for n >= 3"
    assert ch["c"]["prefix"] == ["1", "1", "1"]
    assert ch["k"]["shown"][:4] == ["0", "0", "1", "0"]
    assert ch["range_closed"]["tail"] is True
    assert ch["nilpotency_degree"] == "3"
    assert ch["quasi_nilpotent"] is True
    assert rep.gkd["decomposable"] is True
    assert rep.gkd["m_part"] is None
    assert rep.gkd["n_part"] == [
        {"type": "matrix", "entries": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]}
    ]
    (ma,) = rep.matrix_atoms
    assert ma["atom_index"] == 0
    assert ma["drazin"] == [["0", "0", "0"]] * 3
    assert ma["core_kernel_meet_dim"] == "0"
    assert ma["range_h0_join_codim"] == "0"


def test_report_right_shift_at_zero():
    rep = build_report(OperatorDocument("r", OperatorExpr.of(RIGHT_SHIFT)), point(0))
    assert rep.summary["index"] == "-1"
    assert rep.summary["q"] == "inf"
    assert rep.summary["dis"] == "0"
    assert rep.chains["display_length"] == 4
    assert rep.chains["r"]["tail"] == "n for n >= 0"
    assert rep.chains["r"]["shown"] == ["0", "1", "2", "3"]
    assert rep.chains["range_closed"] == {
        "prefix": [],
        "tail": True,
        "shown": [True, True, True, True],
    }
    assert rep.chains["quasi_nilpotent"] is False
    assert rep.chains["nilpotency_degree"] == "inf"
    assert rep.gkd == {
        "decomposable": True,
        "m_part": [{"type": "right_shift"}],
        "n_part": None,
        "splits": [],
    }
    assert rep.matrix_atoms == []


def test_report_mixed_matrix_split():
    m = matrix_atom([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    rep = build_report(OperatorDocument("d", OperatorExpr.of(m)), point(0))
    assert rep.gkd["splits"] == [
        {
            "atom_index": 0,
            "m_basis": [["0", "0", "1"]],
            "n_basis": [["1", "0", "0"], ["0", "1", "0"]],
        }
    ]
    assert rep.gkd["m_part"] == [{"type": "matrix", "entries": [["2"]]}]
    assert rep.gkd["n_part"] == [{"type": "matrix", "entries": [["0", "1"], ["0", "0"]]}]
    (ma,) = rep.matrix_atoms
    assert ma["drazin"] == [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1/2"]]


def test_report_undecomposable_point():
    rep = build_report(OperatorDocument("r", OperatorExpr.of(RIGHT_SHIFT)), point(1))
    assert rep.summary["alpha"] == "undef"
    assert rep.summary["index"] == "undef"
    assert rep.gkd == {"decomposable": False}
    assert rep.classification["pseudo_fredholm"] is False


def test_report_complex_point_realifies_matrix_atoms():
    rep = build_report(
        OperatorDocument("j", OperatorExpr.of(matrix_atom([[0, 1], [0, 0]]))),
        point(0, 1),
    )
    assert (rep.re, rep.im) == ("0", "1")
    (ma,) = rep.matrix_atoms
    assert len(ma["shifted_block"]) == 4
    assert len(ma["drazin"]) == 4
    assert rep.classification["invertible"] is True


def test_report_chain_reconstruction():
    rep = build_report(OperatorDocument("j3", OperatorExpr.of(J3)), point(0))
    back = AnalysisReport.from_json(rep.to_json())
    a = back.chain("a")
    assert [v.to_str() for v in map(a.at, range(6))] == ["0", "1", "2", "3", "3", "3"]
    assert back.chain("r") == back.chain("a")
    assert back.chain("b").tail_formula() == "0 for n >= 3"


@pytest.mark.parametrize(
    "tail_base",
    [
        pytest.param(" \u0661_0", id="spaced-arabic-indic-underscore"),
        pytest.param("\u0663", id="arabic-indic"),
        "+1",
        "1_0",
        "zz",
    ],
)
def test_report_chain_reads_ascii_digits_only(tail_base):
    # int() would read " ١_0" as 10; the reader refuses it as it refuses "zz"
    rep = build_report(OperatorDocument("j3", OperatorExpr.of(J3)), point(0))
    obj = json.loads(rep.to_json())
    obj["chains"]["a"]["tail_base"] = tail_base
    back = AnalysisReport.from_json(json.dumps(obj))
    with pytest.raises(DocumentError):
        back.chain("a")


@pytest.mark.parametrize("prefix", ["12", {"1": 0}])
def test_report_chain_prefix_must_be_a_list(prefix):
    # a str iterates as its characters and a dict as its keys: with J3's
    # tail base 3, the prefix "12" used to read back as 1, 2, 3, 3, ...
    rep = build_report(OperatorDocument("j3", OperatorExpr.of(J3)), point(0))
    obj = json.loads(rep.to_json())
    obj["chains"]["a"]["prefix"] = prefix
    back = AnalysisReport.from_json(json.dumps(obj))
    with pytest.raises(DocumentError):
        back.chain("a")


@pytest.mark.parametrize("slope", [True, 0.5, "1", -1])
def test_report_chain_tail_slope_must_be_a_natural_int(slope):
    # J2's kernel chain 0, 1, 2, 2, ...: with a slope of true the reader
    # used to fold the prefix into the tail and return 0, 1, 2, 3, ...
    j2 = matrix_atom([[0, 1], [0, 0]])
    rep = build_report(OperatorDocument("j2", OperatorExpr.of(j2)), point(0))
    obj = json.loads(rep.to_json())
    assert obj["chains"]["a"]["tail_slope"] == 0
    obj["chains"]["a"]["tail_slope"] = slope
    back = AnalysisReport.from_json(json.dumps(obj))
    with pytest.raises(DocumentError):
        back.chain("a")


@pytest.mark.parametrize(
    "text",
    ["nope", "{}", '{"name": "x"}', "[]", pytest.param("[" * 100000, id="deeply-nested")],
)
def test_report_from_json_rejects(text):
    with pytest.raises(DocumentError):
        AnalysisReport.from_json(text)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
VALID_DOCUMENT = {
    "name": "op",
    "atoms": [
        {"type": "matrix", "entries": [["0", "1/2"], ["-3", "4"]]},
        {"type": "right_shift"},
    ],
}
VALID_REPORT = json.loads(
    build_report(OperatorDocument("j3", OperatorExpr.of(J3, RIGHT_SHIFT)), point(0)).to_json()
)
READERS = (parse_document, AnalysisReport.from_json)


def _parses_or_document_error(reader, text):
    try:
        reader(text)
    except DocumentError:
        pass


def _replace_somewhere(data, obj, value):
    """A copy of obj with one node, chosen by data, replaced by value."""
    if not isinstance(obj, (dict, list)) or not obj or data.draw(st.integers(0, 3)) == 0:
        return value
    key = data.draw(st.sampled_from(sorted(obj) if isinstance(obj, dict) else range(len(obj))))
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[key] = _replace_somewhere(data, obj[key], value)
    return out


@settings(max_examples=150)
@given(st.text())
def test_readers_on_any_text(text):
    for reader in READERS:
        _parses_or_document_error(reader, text)


@settings(max_examples=150)
@given(JSON_VALUES)
def test_readers_on_any_json_value(value):
    for reader in READERS:
        _parses_or_document_error(reader, json.dumps(value))


@settings(max_examples=150)
@given(st.data(), JSON_VALUES)
def test_readers_on_valid_inputs_with_one_node_replaced(data, value):
    for reader, base in zip(READERS, (VALID_DOCUMENT, VALID_REPORT)):
        _parses_or_document_error(reader, json.dumps(_replace_somewhere(data, base, value)))


# any code point, lone surrogates included
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
WRITER_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(JSON_TEXT, max_size=5)
    | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=24,
)
# the characters JSON escapes, non-ASCII text and lone surrogates
SPECIAL_TEXT = '"\\/\x00\x08\x1f\x7f\n\t\u00e9 \u2028\ud800\udfff\U0001f600'


@settings(max_examples=300)
@given(WRITER_VALUES)
@example([SPECIAL_TEXT, [SPECIAL_TEXT, -(2**70)], {SPECIAL_TEXT: {}}, [], {"": [[], None]}])
@example({"a": [True, False, None, 0, -1, 2**64, "x"], "b": [["1/2", "-3"]], "c": {}})
def test_json_text_matches_json_dumps_indent_2(value):
    assert docio.json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        0.5,
        [1, 2.0],
        {"a": {"b": [float("nan")]}},
        {1: "x"},
        {"a": {None: 1}},
        {("a",): 1},
        ("a", "b"),
        ["a", ("b",)],
        F(1, 2),
    ],
    ids=[
        "float", "float-in-list", "nan-deep", "int-key", "none-key", "tuple-key", "tuple",
        "tuple-in-list", "fraction",
    ],
)
def test_json_text_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        docio.json_text(value)
