import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import fredprofile
from fredprofile import cli, structure, verify
from fredprofile.catalog import by_name
from fredprofile.cli import entry, main
from fredprofile.docio import (
    MAX_DOCUMENT_BYTES,
    MAX_MATRIX_DIM,
    AnalysisReport,
    OperatorDocument,
    parse_document,
    serialize_document,
)
from fredprofile.extvals import ExtIndex, ExtNat, ratio_numeral
from fredprofile.linalg import ExactMatrix
from fredprofile.model import ATOM_KINDS
from fredprofile.spectra import CSV_HEADER, MAX_GRID_POINTS

R_DOC = '{"name": "shift", "atoms": [{"type": "right_shift"}]}'
J3_DOC = json.dumps(
    {
        "name": "j3",
        "atoms": [
            {
                "type": "matrix",
                "entries": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
            }
        ],
    }
)


@pytest.fixture
def shift_doc(tmp_path):
    f = tmp_path / "shift.json"
    f.write_text(R_DOC)
    return str(f)


@pytest.fixture
def j3_doc(tmp_path):
    f = tmp_path / "j3.json"
    f.write_text(J3_DOC)
    return str(f)


def test_analyze_to_file(shift_doc, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--in", shift_doc, "--out", str(out)]) == 0
    rep = AnalysisReport.from_json(out.read_text())
    assert rep.name == "shift"
    assert rep.summary["index"] == "-1"


def test_out_to_missing_directory_is_exit_7(shift_doc, tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "report.json"
    assert main(["analyze", "--in", shift_doc, "--out", str(missing)]) == 7
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    code = main(
        ["spectrum", "--in", shift_doc, "--grid=-1,1,0,0,3,1", "--out", str(missing)]
    )
    assert code == 7
    assert not missing.parent.exists()


def test_analyze_to_stdout(j3_doc, capsys):
    assert main(["analyze", "--in", j3_doc, "--lambda", "0,0"]) == 0
    rep = AnalysisReport.from_json(capsys.readouterr().out)
    assert rep.summary == {
        "alpha": "0", "beta": "0", "p": "0", "q": "0", "index": "0", "dis": "3",
    }


def test_analyze_rational_point(shift_doc, capsys):
    assert main(["analyze", "--in", shift_doc, "--lambda", "1/2,-3"]) == 0
    rep = AnalysisReport.from_json(capsys.readouterr().out)
    assert (rep.re, rep.im) == ("1/2", "-3")
    assert rep.classification["invertible"] is True


@pytest.mark.parametrize(
    "lam",
    [
        "1", "1,2,3", "0.5,0", "a,b", "1/0,0", "1/00,0", "0,-3/000",
        pytest.param("1" * 5000 + ",0", id="5000-digits"),
        # numerals take ASCII digits only
        pytest.param("\u0661/\u0662,0", id="arabic-indic"),
        pytest.param("0,\uff11\uff12", id="fullwidth"),
    ],
)
def test_analyze_bad_point_is_usage_error(shift_doc, lam, capsys):
    assert main(["analyze", "--in", shift_doc, f"--lambda={lam}"]) == 1
    capsys.readouterr()


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", "--in", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_bad_document(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"name": "x", "atoms": [{"type": "matrix", "entries": [["1/0"]]}]}')
    assert main(["analyze", "--in", str(f)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000,
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [["%s"]]}]}' % ("1" * 5000),
        json.dumps({"name": "x", "atoms": [{"type": "matrix", "entries": [["0"] * 65] * 65}]}),
        # Arabic-Indic and fullwidth digits: numerals take ASCII digits only
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [["\\u0661/\\u0662"]]}]}',
        '{"name": "x", "atoms": [{"type": "matrix", "entries": [["\\uff11\\uff12"]]}]}',
    ],
    ids=[
        "deeply-nested", "5000-digit-entry", "65x65-matrix", "arabic-indic-entry",
        "fullwidth-entry",
    ],
)
def test_analyze_unreadable_document_is_exit_2(tmp_path, text, capsys):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["analyze", "--in", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_document_past_the_size_limit_is_exit_2(tmp_path, monkeypatch, capsys):
    f = tmp_path / "op.json"
    f.write_text(R_DOC + " " * (MAX_DOCUMENT_BYTES - len(R_DOC)))
    assert main(["analyze", "--in", str(f)]) == 0
    capsys.readouterr()
    # one byte more, in a file ten times the limit: refused after reading
    # at most the limit plus one byte
    f.write_text(R_DOC + " " * (10 * MAX_DOCUMENT_BYTES))
    sizes = []
    real_open = open

    def recording_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        read = fh.read

        def recording_read(n=-1):
            data = read(n)
            sizes.append(len(data))
            return data

        fh.read = recording_read
        return fh

    monkeypatch.setattr("builtins.open", recording_open)
    assert main(["analyze", "--in", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"error: {f} is larger than {MAX_DOCUMENT_BYTES} bytes\n"
    )
    assert sum(sizes) == MAX_DOCUMENT_BYTES + 1


@pytest.mark.parametrize(
    "kind",
    ["file", pytest.param("fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no fifos"))],
)
def test_document_of_several_read_chunks_parses_as_its_text(tmp_path, kind):
    # past one 64 KiB read but under the limit, with two-byte characters
    # across the chunk boundaries, from a regular file and from a fifo
    text = json.dumps(
        {"name": "\u03bb" * 50_000, "atoms": [{"type": "right_shift"}, {"type": "qnil_shift"}]},
        ensure_ascii=False,
    ) + " " * 100_000
    data = text.encode("utf-8")
    assert 2 * 65536 < len(data) < MAX_DOCUMENT_BYTES
    f = tmp_path / "op.json"
    if kind == "file":
        f.write_bytes(data)
        assert cli.read_document(str(f)) == parse_document(text)
        return
    os.mkfifo(f)
    writer = threading.Thread(target=f.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        assert cli.read_document(str(f)) == parse_document(text)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_document_not_in_utf8_is_exit_2(tmp_path, capsys):
    f = tmp_path / "op.json"
    f.write_bytes(R_DOC.replace("shift", "shift\xff", 1).encode("latin-1"))
    assert main(["analyze", "--in", str(f)]) == 2
    assert "is not UTF-8" in capsys.readouterr().err


def test_spectrum_csv(shift_doc, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        ["spectrum", "--in", shift_doc, "--grid=-1,1,0,0,3,1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    middle = dict(zip(CSV_HEADER.split(","), lines[2].split(",")))
    assert middle["re"] == "0" and middle["index"] == "-1"


def test_spectrum_json(shift_doc, tmp_path):
    out = tmp_path / "scan.json"
    code = main(
        [
            "spectrum", "--in", shift_doc, "--grid=-2,2,-2,2,5,5",
            "--set", "upbf", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["set"] == "upbf"
    assert len(doc["points"]) == 25
    assert [c["index"] for c in doc["component_report"]] == ["0", "-1"]


def test_spectrum_deterministic_bytes(shift_doc, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["spectrum", "--in", shift_doc, "--grid=-1,1,-1,1,5,5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of spectrum's stdout for four catalog scans, pinned so that the
# renderers and the per-point reference renderers of test_spectra.py
# cannot drift together
@pytest.mark.parametrize(
    "name, argv, digest",
    [
        (
            "right_right_left",
            ["--grid=-5/2,5/2,-5/2,5/2,41,41", "--format", "json", "--set", "pbf"],
            "3e3582521c31bee6e0d04e35ce84bc437fc505fdf163a33ff1e9d9caf23d37dc",
        ),
        (
            "left_plus_qnil",
            ["--grid=-5/2,5/2,-5/2,5/2,41,41", "--format", "csv"],
            "3fc3a9d32689621876c22d13edb2d678048c3cfe3614cd1695db34349638b8f1",
        ),
        (
            "right_jordan3_qnil",
            ["--grid=-2,2,-2,2,41,41", "--format", "json", "--set", "upbw"],
            "7e9f5855ec0bcec8d6409ad26b17bb7ad831ab3507661f96c44ca6344b372cef",
        ),
        (
            "right_jordan3_qnil",
            ["--grid=-2,2,-2,2,41,41", "--format", "csv"],
            "505b155c264a81ed8395f27cc4966270f39a51972bd988cb7f4795e4a8936410",
        ),
    ],
)
def test_spectrum_stdout_of_catalog_scans_is_pinned(name, argv, digest, tmp_path, capsys):
    f = tmp_path / "op.json"
    f.write_text(serialize_document(OperatorDocument(name, by_name(name).expr)))
    assert main(["spectrum", "--in", str(f), *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# matrix atoms whose eigenvalues on the grid have ranks that their
# multiplicity forces: a diagonalizable double root at 1, J3 at -1, J2 + J1
# at 1/2, a complex Jordan chain at +-i and Q_ZERO's simple -2 +- 2i
FORCED_RANKS_DOC = {
    "name": "forced_ranks",
    "atoms": [
        {"type": "right_shift"},
        {"type": "matrix", "entries": [["1", "0", "2"], ["0", "1", "-2"], ["0", "0", "-1"]]},
        {"type": "matrix", "entries": [["-1", "1", "0"], ["0", "-1", "1"], ["0", "0", "-1"]]},
        {
            "type": "matrix",
            "entries": [["1/2", "1", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]],
        },
        {
            "type": "matrix",
            "entries": [
                ["0", "-1", "1", "0"],
                ["1", "0", "0", "1"],
                ["0", "0", "0", "-1"],
                ["0", "0", "1", "0"],
            ],
        },
        {"type": "matrix", "entries": [["-2", "2"], ["-2", "-2"]]},
    ],
}


# SHA-256 of spectrum's stdout on a grid of step 1/2 through every eigenvalue
# of FORCED_RANKS_DOC, as a scan that computes every rank of each chain
# writes it: the ranks that a multiplicity decides change no byte
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--format", "csv"],
            "05678165707b674c042058f35f2a02a9cf4775cee98137a1e0eba9ead3ae2389",
        ),
        (
            ["--format", "json", "--set", "upbw"],
            "71a3412f51a213c4c7f159a768496ba8f2241a03eddb9f525f0a10e4bf5559e2",
        ),
    ],
)
def test_spectrum_stdout_at_forced_ranks_is_pinned(argv, digest, tmp_path, capsys):
    f = tmp_path / "op.json"
    f.write_text(json.dumps(FORCED_RANKS_DOC))
    assert main(["spectrum", "--in", str(f), "--grid=-2,2,-2,2,9,9", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_spectrum_of_j3_and_rot_chain_is_pinned(tmp_path, capsys):
    # the document and grid of the installed-console-script step in CI
    doc = {
        "name": "j3_rot_chain",
        "atoms": [
            {"type": "matrix", "entries": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
            FORCED_RANKS_DOC["atoms"][4],
        ],
    }
    f = tmp_path / "op.json"
    f.write_text(json.dumps(doc))
    assert main(["spectrum", "--in", str(f), "--grid=-1,1,-1,1,5,5"]) == 0
    pinned = Path(__file__).resolve().parent / "demo_outputs" / "spectrum_j3_rot_chain.csv"
    assert capsys.readouterr().out == pinned.read_text()


@pytest.mark.parametrize(
    "grid",
    [
        "-1,1,0,0,3", "-1,1,0,0,0,3", "-1,1,0,0,3,x", "1,-1,0,0,3,3", "0.5,1,0,0,3,3",
        # numerals and point counts take ASCII digits only
        pytest.param("-\u0661,1,0,0,3,3", id="arabic-indic-bound"),
        pytest.param("-1,1,0,0,1_0,3", id="underscore-count"),
        pytest.param("-1,1,0,0,+5,3", id="signed-count"),
        pytest.param("-1,1,0,0,3, 5", id="spaced-count"),
        pytest.param("-1,1,0,0,3,\u0663", id="arabic-indic-count"),
    ],
)
def test_spectrum_bad_grid_is_usage_error(shift_doc, grid, capsys):
    assert main(["spectrum", "--in", shift_doc, f"--grid={grid}"]) == 1
    capsys.readouterr()


def test_spectrum_grid_too_large_is_usage_error(shift_doc, monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("an oversized grid reached the scan")

    monkeypatch.setattr(fredprofile.cli, "scan", no_scan)
    assert main(["spectrum", "--in", shift_doc, "--grid=0,1,0,1,1001,1000"]) == 1
    assert "more than the limit of 1000000" in capsys.readouterr().err


def test_spectrum_unknown_set(shift_doc, capsys):
    assert main(["spectrum", "--in", shift_doc, "--grid=0,1,0,1,2,2", "--set", "zzz"]) == 1
    capsys.readouterr()


def test_drazin_output(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(
        json.dumps(
            {
                "name": "m",
                "atoms": [
                    {
                        "type": "matrix",
                        "entries": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "2"]],
                    }
                ],
            }
        )
    )
    assert main(["drazin", "--in", str(f)]) == 0
    assert capsys.readouterr().out == "0 0 0\n0 0 0\n0 0 1/2\n"


def test_drazin_invertible_matrix_gives_inverse(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(
        '{"name": "m", "atoms": [{"type": "matrix", "entries": [["2", "0"], ["0", "-1/3"]]}]}'
    )
    assert main(["drazin", "--in", str(f)]) == 0
    assert capsys.readouterr().out == "1/2 0\n0 -3\n"


def test_drazin_rejects_non_matrix_document(shift_doc, capsys):
    assert main(["drazin", "--in", shift_doc]) == 4
    assert capsys.readouterr().err == "error: drazin needs a document with a single matrix atom\n"


def test_drazin_rejects_multi_atom_document(tmp_path, capsys):
    f = tmp_path / "two.json"
    f.write_text(
        '{"name": "two", "atoms": [{"type": "matrix", "entries": [["1"]]}, '
        '{"type": "matrix", "entries": [["1"]]}]}'
    )
    assert main(["drazin", "--in", str(f)]) == 4
    capsys.readouterr()


# The error contract: a malformed --lambda or --grid numeral, or a verify
# --cases or --seed text, is exit 1, a malformed document exit 2, and
# drazin on a document that is not one matrix exit 4; each prints one
# "error: " line, no traceback and nothing on stdout. The demos keep it
# for the same texts: a --lambda text as chain_profiles.py --lambda and
# classification_table.py --points, a --grid text as spectrum_regions.py
# --grid and a document as chain_profiles.py --doc.


def _refused(text):
    try:
        ratio_numeral(text)
    except ValueError:
        return True
    return False


# no comma, which would change the number of parts
_NUMERAL_CHARS = "0123456789-/+._e \u0661\uff11"
_REFUSED_NUMERALS = st.one_of(
    st.text(_NUMERAL_CHARS, max_size=8).filter(_refused),
    st.just("1" * 5000),  # past Python's int-string limit
)


@st.composite
def _bad_point(draw):
    parts = [draw(st.sampled_from(["0", "1/2", "-3"])) for _ in range(2)]
    parts[draw(st.integers(0, 1))] = draw(_REFUSED_NUMERALS)
    return ["analyze", f"--lambda={','.join(parts)}"]


@st.composite
def _bad_grid(draw):
    # what ratio_numeral refuses, natural_numeral refuses as a point count
    parts = ["-1", "1", "0", "1", "3", "2"]
    parts[draw(st.integers(0, 5))] = draw(_REFUSED_NUMERALS)
    return ["spectrum", f"--grid={','.join(parts)}"]


@st.composite
def _grid_past_the_limit(draw):
    nr = draw(st.integers(1, MAX_GRID_POINTS))
    ni = draw(st.integers(MAX_GRID_POINTS // nr + 1, MAX_GRID_POINTS + 1))
    return ["spectrum", f"--grid=0,1,0,1,{nr},{ni}"]


_WRONG_PART_COUNTS = st.one_of(
    st.integers(1, 5).filter(lambda k: k != 2).map(
        lambda k: ["analyze", "--lambda=" + ",".join(["1"] * k)]
    ),
    st.integers(1, 9).filter(lambda k: k != 6).map(
        lambda k: ["spectrum", "--grid=" + ",".join(["1"] * k)]
    ),
)


def _doc(*records):
    return {"name": "op", "atoms": list(records)}


def _matrix(rows):
    return {"type": "matrix", "entries": rows}


def _valid_doc():
    return _doc({"type": "right_shift"}, _matrix([["0", "1"], ["0", "0"]]))


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
)
# the values that have the right JSON type in each place of _valid_doc()
_RIGHT_TYPE = {
    "document": lambda v: isinstance(v, dict),
    "name": lambda v: isinstance(v, str) and v,
    "atoms": lambda v: isinstance(v, list) and v,
    "record": lambda v: isinstance(v, dict),
    "entries": lambda v: isinstance(v, list),
    "row": lambda v: isinstance(v, list),
}


@st.composite
def _truncated_doc(draw):
    text = json.dumps(_valid_doc())
    return text[: draw(st.integers(0, len(text) - 1))].encode()


@st.composite
def _wrong_type_doc(draw):
    place = draw(st.sampled_from(sorted(_RIGHT_TYPE)))
    value = draw(_JSON_VALUES.filter(lambda v: not _RIGHT_TYPE[place](v)))
    doc = _valid_doc()
    if place == "document":
        doc = value
    elif place in ("name", "atoms"):
        doc[place] = value
    elif place == "record":
        doc["atoms"][0] = value
    elif place == "entries":
        doc["atoms"][1]["entries"] = value
    else:
        doc["atoms"][1]["entries"][0] = value
    return json.dumps(doc).encode()


@st.composite
def _bad_rational_doc(draw):
    bad = draw(
        st.one_of(
            _REFUSED_NUMERALS,
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    doc = _valid_doc()
    doc["atoms"][1]["entries"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = bad
    return json.dumps(doc).encode()


@st.composite
def _ragged_doc(draw):
    n = draw(st.integers(1, 4))
    rows = [["0"] * n for _ in range(n)]
    rows[draw(st.integers(0, n - 1))] = ["0"] * draw(st.integers(0, n + 2).filter(lambda w: w != n))
    return json.dumps(_doc(_matrix(rows))).encode()


@st.composite
def _non_utf8_doc(draw):
    data = json.dumps(_valid_doc()).encode()
    k = draw(st.integers(0, len(data)))
    return data[:k] + draw(st.sampled_from([b"\x80", b"\xc0", b"\xfe", b"\xff"])) + data[k:]


_TOO_MANY_ROWS_DOC = st.integers(MAX_MATRIX_DIM + 1, MAX_MATRIX_DIM + 2).map(
    lambda n: json.dumps(_doc(_matrix([["0"] * n] * n))).encode()
)


@st.composite
def _drazin_on_no_single_matrix(draw):
    kinds = draw(
        st.lists(st.sampled_from(ATOM_KINDS), min_size=1, max_size=3).filter(
            lambda ks: ks != ["matrix"]
        )
    )
    records = [_matrix([["1"]]) if k == "matrix" else {"type": k} for k in kinds]
    return ["drazin"], json.dumps(_doc(*records)).encode(), 4


def _numeral_case(args):
    return args, R_DOC.encode(), 1


# verify reads no document and would refuse --in before --cases, so its
# cases carry None for the document: --cases and --seed texts other than
# ASCII digits (after one "-" for a seed), signs and other scripts' digits
# among them, and --cases past MAX_CASES
_VERIFY_CASES = st.one_of(
    *(
        st.text(_NUMERAL_CHARS, max_size=8)
        .filter(lambda t, valid=valid: not re.fullmatch(valid, t))
        .map(lambda t, opt=opt: ["verify", "--suite", "chains", f"{opt}={t}"])
        for opt, valid in (("--cases", "[0-9]+"), ("--seed", "-?[0-9]+"))
    ),
    st.integers(verify.MAX_CASES + 1, 10 * verify.MAX_CASES).map(
        lambda n: ["verify", "--suite", "chains", "--cases", str(n)]
    ),
).map(lambda args: (args, None, 1))


def _document_cases(docs):
    commands = st.sampled_from([["analyze"], ["spectrum", "--grid=0,1,0,1,2,2"], ["drazin"]])
    return st.tuples(commands, docs).map(lambda t: (t[0], t[1], 2))


_ERROR_CASES = st.one_of(
    *(
        args.map(_numeral_case)
        for args in (_bad_point(), _bad_grid(), _grid_past_the_limit(), _WRONG_PART_COUNTS)
    ),
    *(
        _document_cases(docs)
        for docs in (
            _truncated_doc(),
            _wrong_type_doc(),
            _bad_rational_doc(),
            _ragged_doc(),
            _non_utf8_doc(),
            _TOO_MANY_ROWS_DOC,
        )
    ),
    _drazin_on_no_single_matrix(),
    _VERIFY_CASES,
)


@pytest.fixture(scope="module")
def error_dir(tmp_path_factory):
    # module scope: a function-scoped fixture would be shared by every
    # example of a hypothesis test
    return tmp_path_factory.mktemp("cli_errors")


def _demo_main(script):
    path = Path(__file__).resolve().parents[1] / "demos" / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture(scope="module")
def demo_mains():
    return {
        name: _demo_main(f"{name}.py")
        for name in ("chain_profiles", "classification_table", "spectrum_regions")
    }


def _demo_runs(args, doc, code):
    """The demo calls, (demo, argv), that take the text of the CLI case
    args with exit code code; doc is the path of its document."""
    if code == 2:
        return [("chain_profiles", ["--doc", doc])]
    if code != 1:
        # drazin's refusal of a document that is not one matrix
        return []
    opt, _, text = args[1].partition("=")
    if opt == "--lambda":
        return [("chain_profiles", [args[1]]), ("classification_table", [f"--points={text}"])]
    if opt == "--grid":
        return [("spectrum_regions", [args[1]])]
    return []


def _run_in_process(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue(), err.getvalue()


# no shrinking: a failing case is reported as generated, in seconds; with
# shrinking a broken contract took minutes to report
@settings(max_examples=300, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(_ERROR_CASES)
def test_error_contract(error_dir, demo_mains, case):
    args, data, code = case
    doc = None
    if data is not None:
        path = error_dir / "op.json"
        path.write_bytes(data)
        doc = str(path)
    calls = [(main, [*args, "--in", doc] if doc else args)]
    calls += [(demo_mains[demo], argv) for demo, argv in _demo_runs(args, doc, code)]
    for fn, argv in calls:
        got, out, err = _run_in_process(fn, argv)
        assert got == code, (argv, err)
        assert out == ""
        assert sum("error: " in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err


BIG = json.dumps(
    {
        "name": "big",
        "atoms": [{"type": "matrix", "entries": [["1" * 2500, "2" * 2500], ["2" * 2500, "3"]]}],
    }
)


@pytest.mark.parametrize(
    "args", [["drazin"], ["analyze", "--lambda", "0,0"]], ids=["drazin", "analyze"]
)
def test_output_past_the_int_string_limit_is_exit_7(tmp_path, args, capsys):
    """The inverse's entries have about 5000 digits, past Python's 4300-digit
    int-string limit, which stays in force."""
    f = tmp_path / "big.json"
    f.write_text(BIG)
    assert main(args + ["--in", str(f)]) == 7
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: rational too long to print")


def test_grid_coordinate_past_the_int_string_limit_is_exit_7(shift_doc, capsys):
    # the midpoint of 1/(10^3999 + 3) and 1/(10^3999 + 1) has a denominator
    # of about 8000 digits
    lo, hi = "1/1" + "0" * 3998 + "3", "1/1" + "0" * 3998 + "1"
    code = main(["spectrum", "--in", shift_doc, f"--grid={lo},{hi},0,0,3,1"])
    assert code == 7
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: rational too long to print")


# the exit code and stderr prefix each error class leaves main with; a new
# class must be added here
EXIT_CODES = {
    "FredprofileError": (6, "internal error"),
    "AmbientMismatch": (6, "internal error"),
    "NotInvariant": (6, "internal error"),
    "NotPseudoFredholm": (6, "internal error"),
    "DocumentError": (2, "error"),
    "OutputError": (7, "error"),
    "InternalInvariantError": (6, "internal error"),
}


def _error_classes(cls=fredprofile.FredprofileError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_class_raised_inside_analyze_is_its_exit_code(
    cls, j3_doc, demo_mains, monkeypatch
):
    # raised where the Fitting split restricts J3 to its nilpotent side
    def broken(m, b):
        raise cls("injected")

    monkeypatch.setattr(structure, "restrict", broken)
    code, prefix = EXIT_CODES[cls.__name__]
    calls = [
        (main, ["analyze", "--in", j3_doc]),
        (demo_mains["chain_profiles"], ["--doc", j3_doc]),
    ]
    for fn, argv in calls:
        assert _run_in_process(fn, argv) == (code, "", f"{prefix}: injected\n")


def test_usage_errors(capsys):
    # the usage line and the error prefix only: argparse's message wording
    # differs between Python versions
    for argv, prog in [
        ([], "fredprofile"),
        (["frobnicate"], "fredprofile"),
        (["analyze"], "fredprofile analyze"),  # --in is required
        (["verify", "--cases", "x"], "fredprofile verify"),
        # the library's own refusals, reported through the subcommand too
        (["analyze", "--in", "op.json", "--lambda=x,0"], "fredprofile analyze"),
        (["spectrum", "--in", "op.json", "--grid=0,1,0,1,x,2"], "fredprofile spectrum"),
        (["verify", "--cases", "10001"], "fredprofile verify"),
    ]:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: {prog} "), err
        assert lines[-1].startswith(f"{prog}: error: "), err


def _outcomes(argvs, capsys):
    results = []
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        results.append((code, out, err))
    return results


def test_shared_parser_keeps_no_state_between_calls(shift_doc, tmp_path, monkeypatch, capsys):
    # main parses with one parser per process: each call must give what a
    # parser built for that call alone gives, whatever ran before it; the
    # help text must follow COLUMNS when printed, not when the parser was built
    monkeypatch.setenv("COLUMNS", "50")
    monkeypatch.setattr(
        fredprofile.cli, "run_suites", lambda suite, cases, seed: (f"{suite} {cases} {seed}\n", 0)
    )
    grid = "--grid=-1,1,0,0,3,1"
    argvs = [
        ["spectrum", "--in", shift_doc, grid, "--set", "upbf", "--format", "json"],
        ["spectrum", "--in", shift_doc, grid],
        ["analyze", "--in", shift_doc, "--lambda", "1/2,0", "--out", str(tmp_path / "r.json")],
        ["analyze", "--in", shift_doc],
        ["verify", "--suite", "gkd", "--cases", "7", "--seed", "3"],
        ["verify"],
        ["analyze", "--in", shift_doc, "--lambda", "1/0,0"],
        ["spectrum", "--in", shift_doc],
        ["--help"],
        ["spectrum", "--help"],
    ]
    forward = _outcomes(argvs, capsys)
    assert _outcomes(argvs[::-1], capsys)[::-1] == forward
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(fredprofile.cli, "_PARSER", fredprofile.cli._build_parser())
        fresh += _outcomes([argv], capsys)
    assert fresh == forward
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 0, 0, 1, 1, 0, 0]
    assert forward[2][1] == "" and forward[3][1].startswith("{")
    assert forward[4][1] == "gkd 7 3\n" and forward[5][1] == "all 200 0\n"


def test_main_builds_no_parser(shift_doc, monkeypatch, capsys):
    def no_build():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(fredprofile.cli, "_build_parser", no_build)
    assert main(["analyze", "--in", shift_doc]) == 0
    assert main(["spectrum", "--in", shift_doc, "--grid=-1,1,0,0,3,1"]) == 0
    assert main(["verify", "--suite", "chains", "--cases", "2", "--seed", "1"]) == 0
    assert main(["analyze"]) == 1
    capsys.readouterr()


def test_verify_ok(capsys):
    assert main(["verify", "--suite", "chains", "--cases", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite chains: ok" in out
    assert "verify: 1 suites ok" in out


def test_verify_negative_cases_is_usage_error(capsys):
    assert main(["verify", "--cases", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cases" in captured.err


@pytest.mark.parametrize("option", ["--cases", "--seed"])
@pytest.mark.parametrize(
    "value",
    [
        pytest.param("\u0663", id="arabic-indic"),
        "1_0",
        " 2",
        "+2",
        pytest.param("\uff12", id="fullwidth"),
        "",
    ],
)
def test_verify_numerals_take_ascii_digits_only(option, value, monkeypatch, capsys):
    # int() reads all but the empty one; a seed may still be negative
    def no_run(*args):
        raise AssertionError("a bad numeral reached the suites")

    monkeypatch.setattr(fredprofile.cli, "run_suites", no_run)
    assert main(["verify", "--suite", "chains", option, value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and option in err


def test_verify_negative_seed_is_accepted(monkeypatch, capsys):
    monkeypatch.setattr(
        fredprofile.cli, "run_suites", lambda suite, cases, seed: (f"{cases} {seed}\n", 0)
    )
    assert main(["verify", "--cases", "3", "--seed", "-2"]) == 0
    assert capsys.readouterr().out == "3 -2\n"


def test_verify_cases_past_the_bound_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(fredprofile.cli, "MAX_CASES", 3)
    assert main(["verify", "--suite", "chains", "--cases", "3", "--seed", "1"]) == 0
    assert "verify: 1 suites ok" in capsys.readouterr().out

    def no_run(*args):
        raise AssertionError("a count past the bound reached the suites")

    monkeypatch.setattr(fredprofile.cli, "run_suites", no_run)
    assert main(["verify", "--suite", "chains", "--cases", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "fredprofile verify: error: --cases must be <= 3, got 4"
    monkeypatch.setattr(fredprofile.cli, "MAX_CASES", verify.MAX_CASES)
    assert main(["verify", "--cases", str(verify.MAX_CASES + 1)]) == 1
    assert capsys.readouterr().out == ""


def _assert_verify_failure(out: str, prop: str, case: str = r"\[\[.*\]\]"):
    lines = out.splitlines()
    assert any(line.startswith(f"FAIL {prop}: ") for line in lines), out
    shown = [line for line in lines if line.startswith("minimal failing case: ")]
    assert len(shown) == 1 and re.fullmatch(f"minimal failing case: {case}", shown[0]), out


def test_verify_corrupt_oracle_fails(monkeypatch, capsys):
    # a restriction oracle that counts one kernel dimension too many
    real = verify._restriction_defects

    def off_by_one(m, n, power):
        al, be, dim = real(m, n, power)
        return al + 1, be, dim

    monkeypatch.setattr(verify, "_restriction_defects", off_by_one)
    code = main(["verify", "--suite", "chains", "--cases", "3", "--seed", "1"])
    assert code == 5
    _assert_verify_failure(capsys.readouterr().out, "restriction_defects_match_profile")


def test_verify_corrupt_oracle_flag_is_usage_error(capsys):
    assert main(["verify", "--suite", "chains", "--corrupt-oracle"]) == 1
    assert "--corrupt-oracle" in capsys.readouterr().err


def test_verify_gkd_reports_a_wrong_core_oracle(monkeypatch, capsys):
    monkeypatch.setattr(verify, "alpha_beta_core_oracle", lambda split: (ExtNat(1), ExtNat(0)))
    code = main(["verify", "--suite", "gkd", "--cases", "5", "--seed", "1"])
    assert code == 5
    _assert_verify_failure(capsys.readouterr().out, "core_oracle_matches_summary")


def test_verify_index_laws_reports_a_wrong_regrouped_index(monkeypatch, capsys):
    monkeypatch.setattr(verify, "index_with_nilpotent_regrouped", lambda parts: ExtIndex.of(7))
    code = main(["verify", "--suite", "index-laws", "--cases", "1", "--seed", "1"])
    assert code == 5
    _assert_verify_failure(
        capsys.readouterr().out, "nilpotent_regrouping_invariance", r"\w+ \+ jordan2"
    )


def test_verify_gkd_reports_a_wrong_drazin_inverse(monkeypatch, capsys):
    # the split's Drazin inverse replaced by the zero matrix: S^(nu+1) S^D = S^nu fails
    split = verify.matrix_split

    def zero_drazin(part, i):
        sp = split(part, i)
        return replace(sp, drazin=ExactMatrix.zeros(sp.block.rows, sp.block.rows))

    monkeypatch.setattr(verify, "matrix_split", zero_drazin)
    code = main(["verify", "--suite", "gkd", "--cases", "5", "--seed", "1"])
    assert code == 5
    _assert_verify_failure(capsys.readouterr().out, "drazin_axioms")


def test_verify_duality_reports_a_broken_oracle(monkeypatch, capsys):
    # an oracle that takes sums for intersections misses the transpose mirror
    monkeypatch.setattr(verify, "subspace_intersection", verify.subspace_sum)
    code = main(["verify", "--suite", "duality", "--cases", "5", "--seed", "1"])
    assert code == 5
    _assert_verify_failure(capsys.readouterr().out, "transpose_chain_mirror")


class _RecordingStdout:
    """A stdout that keeps each text it is given, one entry per write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_emit_writes_bounded_slices(monkeypatch):
    # a text of two and a half slices, different in every slice
    slice_len = 1 << 10
    monkeypatch.setattr(cli, "WRITE_SLICE", slice_len)
    text = "".join(f"{i:07}\n" for i in range(slice_len * 5 // 16))
    assert len(text) == slice_len * 5 // 2
    out = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli._emit(text)
    assert len(out.writes) == 3
    assert max(map(len, out.writes)) <= slice_len
    assert "".join(out.writes) == text


class _FailingStdout(io.StringIO):
    """A stdout whose write or flush fails as on a full device."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--in", "{shift}"],
        ["spectrum", "--in", "{shift}", "--grid=-2,2,-2,2,3,3"],
        ["spectrum", "--in", "{shift}", "--grid=-2,2,-2,2,3,3", "--format", "json"],
        ["drazin", "--in", "{j3}"],
        ["verify", "--suite", "chains", "--cases", "2"],
    ],
    ids=["analyze", "spectrum-csv", "spectrum-json", "drazin", "verify"],
)
def test_failed_stdout_write_is_exit_7(shift_doc, j3_doc, monkeypatch, capsys, argv, failing):
    argv = [a.format(shift=shift_doc, j3=j3_doc) for a in argv]
    monkeypatch.setattr(sys, "stdout", _FailingStdout(failing))
    assert main(argv) == 7
    assert capsys.readouterr().err == (
        f"error: cannot write stdout: [Errno {errno.ENOSPC}] No space left on device\n"
    )


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("run", ["demo", "cli"])
def test_entry_reports_a_failed_stdout_write_once(monkeypatch, capsys, tmp_path, run, failing):
    # a demo's print fails, or its bytes fail at entry's flush; main reports
    # its own failed write, and entry's flush of the same bytes adds nothing
    def demo():
        print("a table")
        return 0

    runs = {"demo": demo, "cli": lambda: main(["verify", "--suite", "chains", "--cases", "2"])}
    with open(tmp_path / "stdout", "w") as fh:
        out = _FailingStdout(failing)
        out.fileno = fh.fileno  # entry points this descriptor at devnull
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(SystemExit) as exc:
            entry(runs[run])
    assert exc.value.code == 7
    assert capsys.readouterr().err == (
        f"error: cannot write stdout: [Errno {errno.ENOSPC}] No space left on device\n"
    )


@pytest.mark.parametrize("run", ["demo", "cli", "silent"])
def test_entry_reports_a_print_to_a_closed_stdout(monkeypatch, capsys, run):
    # a process started with stdout closed has sys.stdout None, where print
    # drops its text: a run that prints is exit 7 with one error line, as
    # the CLI's own write is; a run that prints nothing is not an error
    def demo():
        print("a table")
        return 0

    runs = {
        "demo": demo,
        "cli": lambda: main(["verify", "--suite", "chains", "--cases", "2"]),
        "silent": lambda: 0,
    }
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as exc:
        entry(runs[run])
    err = capsys.readouterr().err
    if run == "silent":
        assert exc.value.code == 0 and err == ""
    else:
        assert exc.value.code == 7
        assert err == f"error: cannot write stdout: [Errno {errno.EBADF}] stdout is closed\n"


def test_verify_violation_with_failed_stdout_write_is_exit_7(monkeypatch, capsys):
    # exit 5 needs its report written; without it the run is an output error
    monkeypatch.setattr(verify, "subspace_intersection", verify.subspace_sum)
    monkeypatch.setattr(sys, "stdout", _FailingStdout("flush"))
    assert main(["verify", "--suite", "duality", "--cases", "5", "--seed", "1"]) == 7
    assert capsys.readouterr().err.startswith("error: cannot write stdout: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "args",
    [["verify", "--suite", "chains", "--cases", "2"], ["spectrum", "--grid=-2,2,-2,2,2,1"]],
    ids=["verify", "spectrum"],
)
@pytest.mark.parametrize("stdout", ["full", "full-unbuffered", "closed"])
def test_unwritable_stdout_is_exit_7(shift_doc, args, stdout):
    # a buffered stdout keeps the bytes of a failed write and flushes them
    # again at interpreter exit, which must not print a second error or
    # change the exit code; a process started with stdout closed has
    # sys.stdout None
    argv = args if args[0] == "verify" else [*args, "--in", shift_doc]
    src = os.path.dirname(os.path.dirname(fredprofile.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if stdout == "full-unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fredprofile", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            # runs in the child after full is made its stdout
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None,
        )
    assert proc.returncode == 7
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_console_script_entry(monkeypatch, capsys):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'fredprofile = "fredprofile.cli:entry"' in pyproject.read_text().splitlines()
    monkeypatch.setattr(sys, "argv", ["fredprofile", "verify", "--cases", "3"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert "suite chains: ok" in capsys.readouterr().out.splitlines()


def test_module_entry_point(shift_doc):
    proc = subprocess.run(
        [sys.executable, "-m", "fredprofile", "analyze", "--in", shift_doc],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = AnalysisReport.from_json(proc.stdout)
    assert rep.summary["index"] == "-1"


SHIFT_ROT_DOC = json.dumps(
    {
        "name": "shift_plus_rotation",
        "atoms": [
            {"type": "right_shift"},
            {
                "type": "matrix",
                "entries": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1/2"]],
            },
        ],
    }
)


def _run_module(flags, args):
    src = os.path.dirname(os.path.dirname(fredprofile.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *flags, "-m", "fredprofile", *args],
        capture_output=True,
        env=env,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--grid=-1,1,-1,1,5,5", "--format", "json"],
        ["analyze", "--lambda", "0,1"],
        ["analyze", "--lambda", "1/2,0"],
        ["verify", "--suite", "all", "--cases", "20", "--seed", "42"],
    ],
    ids=["spectrum", "analyze", "analyze-eigenvalue", "verify"],
)
def test_optimized_run_is_byte_identical(tmp_path, args):
    # no result may depend on an assert that python -O strips
    doc = tmp_path / "op.json"
    doc.write_text(SHIFT_ROT_DOC)
    argv = args if args[0] == "verify" else [*args, "--in", str(doc)]
    plain = _run_module([], argv)
    optimized = _run_module(["-O"], argv)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout
