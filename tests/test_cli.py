import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superbc.interpbc
from superbc.cli import _DESK_JACK_SIZE, _DESK_SIZE, _desk_scale, run
from superbc.exactalg import INCONSISTENT, LinearSolveOutcome, SparsePoly
from superbc.interpbc import DESK_PQ, interpolation_J
from superbc.partitions import HookParams, Partition


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def spawn(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "superbc", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_hooks_text(capsys):
    code, out = invoke(capsys, "hooks", "--p", "1", "--q", "1", "--size", "2")
    assert code == 0
    assert out.splitlines() == ["2", "1,1"]


def test_hooks_upto(capsys):
    code, out = invoke(capsys, "hooks", "--p", "1", "--q", "1", "--max-size", "2")
    assert code == 0
    assert out.splitlines() == ["∅", "1", "2", "1,1"]


def test_jack_text(capsys):
    code, out = invoke(capsys, "jack", "--mu", "2", "--theta", "1")
    assert code == 0
    assert out.strip() == "P[2](theta=1) = 1/2*p[2] + 1/2*p[1,1]"


def test_negative_rational_theta_after_a_space(capsys):
    # argparse alone takes "-1/2" for an option and exits 2
    for args in (("jack", "--mu", "2"), ("superjack", "--mu", "2", "--p", "2", "--q", "1")):
        for fmt in ("text", "structured"):
            glued = invoke(capsys, *args, "--theta=-1/2", "--format", fmt)
            spaced = invoke(capsys, *args, "--theta", "-1/2", "--format", fmt)
            assert spaced == glued
            assert glued[0] == 0
    code, out = invoke(capsys, "jack", "--mu", "2", "--theta", "-1/2")
    assert out.strip() == "P[2](theta=-1/2) = 2*p[2] - p[1,1]"


def test_grid_text(capsys):
    code, out = invoke(capsys, "grid", "--lambda", "1,1", "--p", "1", "--q", "1")
    assert code == 0
    assert out.strip() == "(1, 3)"


def test_interp_structured_round_trip(capsys):
    code, out = invoke(
        capsys,
        "interp", "--mu", "1", "--p", "2", "--q", "1", "--mode", "paper",
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "superbc"
    assert payload["invocation"]["subcommand"] == "interp"
    result = payload["result"]
    assert result["normalization_value"] == "-2"
    assert result["measured_top_coefficient"] == "-1/4"
    poly = SparsePoly.from_record(result["polynomial"])
    assert poly == interpolation_J(Partition.of(1), HookParams(2, 1), "paper").poly


def test_text_and_structured_agree(capsys):
    args = ("superjack", "--mu", "2,1", "--p", "2", "--q", "1", "--theta", "1")
    code, text_out = invoke(capsys, *args)
    assert code == 0
    code, json_out = invoke(capsys, *args, "--format", "structured")
    assert code == 0
    poly = SparsePoly.from_record(json.loads(json_out)["result"]["polynomial"])
    assert text_out.strip() == poly.to_text()


def test_interp_degenerate_fallback_exit_code(capsys):
    code, out = invoke(capsys, "interp", "--mu", "1", "--p", "1", "--q", "1")
    assert code == 3
    assert "mode = top" in out


def test_interp_explicit_paper_degenerate(capsys):
    code, out = invoke(
        capsys, "interp", "--mu", "1", "--p", "1", "--q", "1", "--mode", "paper",
        "--format", "structured",
    )
    assert code == 3
    assert json.loads(out)["result"]["error"] == "degenerate-normalization"


def test_kmu_with_derived(capsys):
    code, out = invoke(capsys, "kmu", "--mu", "1", "--p", "2", "--q", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k[1] = -1"
    assert lines[1].endswith("= -2")


def test_expand_text(capsys):
    code, out = invoke(capsys, "expand", "--size", "2", "--p", "1", "--q", "1")
    assert code == 0
    assert "orientation: reciprocal" in out


def test_verify_exit_codes(capsys):
    code, _ = invoke(capsys, "verify", "res-eval", "--p", "1", "--q", "1")
    assert code == 0
    code, _ = invoke(capsys, "verify", "vanishing", "--p", "1", "--q", "1", "--max-size", "2")
    assert code == 3


def test_usage_errors_exit_2():
    assert spawn("hooks", "--p", "1", "--q", "1").returncode == 2  # missing size
    assert spawn("jack", "--mu", "2", "--theta", "1.5").returncode == 2  # float theta
    assert spawn("grid", "--lambda", "2,2", "--p", "1", "--q", "1").returncode == 2  # not a hook
    assert spawn("kmu", "--mu", "1", "--p", "2").returncode == 2  # half a hook pair
    assert spawn("kmu", "--mu", "2,2", "--p", "1", "--q", "1").returncode == 2  # not a hook
    assert spawn("jack", "--mu", "2", "--theta", "0").returncode == 2  # degenerate theta
    assert spawn("jack", "--mu", "2", "--theta", "-1").returncode == 2  # vanishing norm


# one past each bound: every size bound of the table at (p, q) = (m, 1), where
# it applies to max(p, q) = m, then p or q past DESK_PQ, then jack's bound
_PAST_DESK = [
    (command, "--size" if command == "expand" else "--mu", str(bound + 1), "--p", str(m), "--q", "1")
    for command, bounds in _DESK_SIZE.items()
    for m, bound in enumerate(bounds, 1)
] + [
    ("superjack", "--mu", "1", "--p", str(DESK_PQ + 1), "--q", "1"),
    ("interp", "--mu", "1", "--p", "1", "--q", str(DESK_PQ + 1)),
    ("expand", "--size", "1", "--p", str(DESK_PQ + 1), "--q", "1"),
    ("jack", "--mu", str(_DESK_JACK_SIZE + 1)),
]


@pytest.mark.parametrize("argv", _PAST_DESK, ids=" ".join)
def test_past_desk_scale_exits_2(argv, capsys):
    # refused before any work, so none of these takes measurable time
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[0]} is desk scale: ")
    assert len(captured.err.splitlines()) == 1


def test_desk_scale_bounds_admit_their_own_size(capsys):
    for command, bounds in _DESK_SIZE.items():
        for m, bound in enumerate(bounds, 1):
            for hp in (HookParams(m, 1), HookParams(1, m), HookParams(m, m)):
                _desk_scale(command, bound, hp)
    _desk_scale("jack", _DESK_JACK_SIZE)
    assert run(["interp", "--mu", "10", "--p", "2", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: interp is desk scale: size <= 9 at (p, q) = (2, 1), got 10\n"


def test_import_loads_no_dataclasses_or_inspect():
    # -S keeps site and .pth hooks from importing either on their own
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, superbc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_internal_faults_exit_4(monkeypatch, capsys):
    # an inconsistent vanishing system is a fault of the program, neither a
    # failed verification (1) nor a usage error (2)
    monkeypatch.setattr(
        superbc.interpbc, "solve_exact", lambda *args, **kwargs: LinearSolveOutcome(INCONSISTENT)
    )
    interpolation_J.cache_clear()
    try:
        code = run(["interp", "--mu", "1", "--p", "2", "--q", "1"])
    finally:
        interpolation_J.cache_clear()
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error: vanishing system inconsistent")


def test_verify_structured_determinism():
    args = ("verify", "all", "--p", "1", "--q", "1", "--max-size", "2", "--format", "structured")
    first = spawn(*args)
    second = spawn(*args)
    assert first.returncode == second.returncode == 3
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_cache_file(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, _ = invoke(capsys, "jack", "--mu", "3,1", "--theta", "1", "--cache", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert any(e["partition"] == "3,1" for e in data["entries"])
    code, _ = invoke(capsys, "jack", "--mu", "3,1", "--theta", "1", "--cache", str(path))
    assert code == 0


def test_cache_env_var(tmp_path):
    import os

    path = tmp_path / "cache.json"
    env = dict(os.environ, SUPERBC_CACHE=str(path))
    out = spawn("jack", "--mu", "2", "--theta", "1", env=env)
    assert out.returncode == 0
    assert path.exists()


def test_unreadable_cache_is_ignored(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"format": 1, "entries": [')
    args = ("jack", "--mu", "2,1", "--theta", "1")
    fresh = spawn(*args)
    out = spawn(*args, "--cache", str(path))
    assert out.returncode == fresh.returncode == 0
    assert out.stdout == fresh.stdout
    assert out.stderr.startswith("warning:")
    assert json.loads(path.read_text())["format"] == 1


def test_cache_file_failing_to_parse_is_ignored_whole(tmp_path):
    # A well-formed but wrong first entry followed by an unparseable one: the
    # first must not be merged and used.
    path = tmp_path / "cache.json"
    poisoned = {"partition": "2", "theta": "1", "m": [{"partition": "2", "coefficient": "7"}]}
    broken = {"partition": "1,1", "theta": "x", "m": []}
    path.write_text(json.dumps({"format": 1, "entries": [poisoned, broken]}))
    args = ("jack", "--mu", "2", "--theta", "1")
    fresh = spawn(*args)
    out = spawn(*args, "--cache", str(path))
    assert out.returncode == fresh.returncode == 0
    assert out.stdout == fresh.stdout
    assert out.stderr.startswith("warning:")


_FLOAT_COEFFICIENT = json.dumps({"format": 1, "entries": [{
    "partition": "2", "theta": "1",
    "m": [{"partition": "2", "coefficient": "1"}, {"partition": "1,1", "coefficient": 0.5}],
}]})


# read one character at a time, this numerator would load as 2*theta + 1
_STRING_NUMERATOR = json.dumps({"format": 1, "entries": [{
    "partition": "2", "theta": "1",
    "m": [{"partition": "2", "coefficient": "1"},
          {"partition": "1,1", "coefficient": {"num": "12", "den": ["1"]}}],
}]})


@pytest.mark.parametrize(
    "content",
    ["[]", '{"format": 1, "entries": [{"partition": "2"}]}', _FLOAT_COEFFICIENT, _STRING_NUMERATOR],
    ids=["list", "no-theta", "number-coefficient", "string-numerator"],
)
def test_cache_file_of_the_wrong_shape_is_ignored(tmp_path, content):
    path = tmp_path / "cache.json"
    path.write_text(content)
    args = ("jack", "--mu", "2", "--theta", "1")
    fresh = spawn(*args)
    out = spawn(*args, "--cache", str(path))
    assert out.returncode == fresh.returncode == 0
    assert out.stdout == fresh.stdout
    assert out.stderr.startswith("warning:") and len(out.stderr.splitlines()) == 1


def test_cache_path_that_is_a_directory_exits_2(tmp_path, capsys):
    code = run(["expand", "--size", "3", "--p", "1", "--q", "1", "--cache", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_cache_path_in_a_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "c.json"
    code = run(["jack", "--mu", "2", "--cache", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert not path.parent.exists()


def test_jack_at_theta_minus_one(capsys):
    # P_(1,1) = e_2 has no pole at theta = -1; P_(2) does
    code, out = invoke(capsys, "jack", "--mu", "1,1", "--theta", "-1")
    assert code == 0
    assert out.strip() == "P[1,1](theta=-1) = -1/2*p[2] + 1/2*p[1,1]"
    assert spawn("jack", "--mu", "2", "--theta", "-1").returncode == 2


def test_version_flag():
    out = spawn("--version")
    assert out.returncode == 0
    assert out.stdout.strip().startswith("superbc ")
