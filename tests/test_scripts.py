"""The two report scripts print byte-identical output to the copies recorded
under tests/golden/, with their documented exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, code, golden",
    [
        ("verify_all.py", [], 3, "verify_all.txt"),
        ("constants_report.py", ["--max-size", "4"], 0, "constants_report.txt"),
    ],
)
def test_script_output_matches_golden(script, args, code, golden):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        env=env,
    )
    assert out.returncode == code, out.stderr.decode()
    assert out.stdout == (ROOT / "tests" / "golden" / golden).read_bytes()
