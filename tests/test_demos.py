"""The documented demo invocations, run as scripts: their stdout must
match the outputs recorded in tests/demo_outputs byte for byte. README's
library quick start, run as written, must print what its comments say."""
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fredprofile

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "demo_outputs"

DEMOS = {
    "chain_profiles_jordan3": ["chain_profiles.py", "--name", "jordan3"],
    "chain_profiles_right_jordan3_qnil": [
        "chain_profiles.py", "--name", "right_jordan3_qnil", "--lambda", "1/10,0",
    ],
    # a powered catalog entry: chains and summary of (S - 0)^2, r_n = 2n
    "chain_profiles_right_shift_squared": [
        "chain_profiles.py", "--name", "right_shift_squared",
    ],
    "classification_table": ["classification_table.py"],
    "classification_table_points": [
        "classification_table.py", "--points", "0,0", "1/2,0", "0,1", "2,0",
    ],
    "spectrum_regions": ["spectrum_regions.py"],
    "spectrum_regions_right_right_left_pbw": [
        "spectrum_regions.py", "--name", "right_right_left", "--set", "pbw",
    ],
}


# a 2 x 2 document whose Drazin inverse has entries of about 5000 digits,
# past Python's 4300-digit int-string limit, which stays in force; the
# REJECTED cases run in a directory that holds it as long_entries.json
LONG_ENTRIES = json.dumps(
    {
        "name": "big",
        "atoms": [{"type": "matrix", "entries": [["1" * 2500, "2" * 2500], ["2" * 2500, "3"]]}],
    }
)

# malformed arguments, each with the exit code the CLI gives for the same
# text: spectrum --grid=-2,2,-2,2,+5,5 and analyze --lambda 1e3,0 or 1/2
# exit 1, analyze --in on a file that cannot be read exits 2, and analyze
# --in on the long-entry document exits 7. A catalog power has no grid scan,
# a usage error too.
REJECTED = {
    "spectrum_regions_signed_count": (["spectrum_regions.py", "--grid=-2,2,-2,2,+5,5"], 1),
    "spectrum_regions_power": (["spectrum_regions.py", "--name", "right_shift_squared"], 1),
    "chain_profiles_exponent_point": (["chain_profiles.py", "--lambda", "1e3,0"], 1),
    "classification_table_exponent_point": (
        ["classification_table.py", "--points", "0,0", "1e3,0"], 1,
    ),
    "classification_table_point_without_comma": (
        ["classification_table.py", "--points", "1/2"], 1,
    ),
    "chain_profiles_unreadable_doc": (
        ["chain_profiles.py", "--doc", str(RECORDED / "no_such_document.json")], 2,
    ),
    "chain_profiles_rational_too_long": (["chain_profiles.py", "--doc", "long_entries.json"], 7),
}


def _run_demo(script, *args, cwd=None):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fredprofile.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_pinned(name):
    proc = _run_demo(*DEMOS[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", REJECTED)
def test_demo_malformed_argument_is_one_error_line(name, tmp_path):
    argv, code = REJECTED[name]
    (tmp_path / "long_entries.json").write_text(LONG_ENTRIES)
    proc = _run_demo(*argv, cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert b"Traceback" not in proc.stderr


# arguments argparse refuses: exit 1, the CLI's usage error, not argparse's 2
USAGE_ERRORS = {
    "chain_profiles_unknown_name": ["chain_profiles.py", "--name", "nope"],
    "classification_table_no_points": ["classification_table.py", "--points"],
    "spectrum_regions_unknown_set": ["spectrum_regions.py", "--set", "nope"],
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_demo_usage_error_is_exit_1(name):
    script, *args = USAGE_ERRORS[name]
    proc = _run_demo(script, *args)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith(f"usage: {script} "), proc.stderr
    assert lines[-1].startswith(f"{script}: error: "), proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "script", ["chain_profiles.py", "classification_table.py", "spectrum_regions.py"]
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_demo_unwritable_stdout_is_exit_7(script, buffered):
    # the CLI's exit code and one error line, also after the flush at
    # interpreter exit
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fredprofile.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / script)],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
        )
    assert proc.returncode == 7
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: "), proc.stderr


@pytest.mark.parametrize(
    "script", ["chain_profiles.py", "classification_table.py", "spectrum_regions.py"]
)
def test_demo_closed_stdout_is_exit_7(script):
    # started with stdout closed, sys.stdout is None and print drops its
    # text; the demo's first print is the CLI's exit code and one error line
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fredprofile.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        # runs in the child after devnull is made its stdout
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 7
    assert proc.stderr.decode() == f"error: cannot write stdout: [Errno {errno.EBADF}] stdout is closed\n"


def test_readme_quick_start_prints_its_comments(capsys):
    # each print line of the block ends in a "# ..." comment giving its output
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    want = [ln.partition("# ")[2] for ln in block.splitlines() if ln.startswith("print(")]
    assert len(want) == 3
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
