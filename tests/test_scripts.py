"""The two report scripts print byte-identical output to the copies recorded
under tests/golden/, with their documented exit codes."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from superbc import interpbc
from superbc.cli import run

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


def test_a_fake_expansion_fails_verify_and_the_constants_report(monkeypatch, capsys):
    # an expansion that reports e_nu = H(nu), the hook product itself, breaks
    # e_nu H(nu) = 1 at every nu with H(nu) != 1: both checks must say so
    real = interpbc.expansion_identity

    def fake(m, hp):
        rep = real(m, hp)
        entries = tuple(
            en._replace(coefficient=en.hook_product, direct=True, reciprocal=en.hook_product ** 2 == 1)
            for en in rep.entries
        )
        return rep._replace(entries=entries, orientation="both" if all(en.reciprocal for en in entries) else "direct")

    monkeypatch.setattr(interpbc, "expansion_identity", fake)
    assert run(["verify", "expansion", "--p", "2", "--q", "2", "--max-size", "3"]) == 1
    assert "status=fail" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["constants_report.py", "--max-size", "3"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "scripts" / "constants_report.py"), run_name="__main__")
    assert exit_.value.code == 1
