"""The documented demo invocations, run as scripts: their stdout must
match the outputs recorded in tests/demo_outputs byte for byte."""
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
    "classification_table": ["classification_table.py"],
    "classification_table_points": [
        "classification_table.py", "--points", "0,0", "1/2,0", "0,1", "2,0",
    ],
    "spectrum_regions": ["spectrum_regions.py"],
    "spectrum_regions_right_right_left_pbw": [
        "spectrum_regions.py", "--name", "right_right_left", "--set", "pbw",
    ],
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_pinned(name):
    script, *args = DEMOS[name]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fredprofile.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{name}.txt").read_bytes()
