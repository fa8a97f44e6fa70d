import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import superbc.cli
import superbc.interpbc
import superbc.symmfunc
from superbc.cli import _DESK_SIZE, _desk_scale, run
from superbc.exactalg import SparsePoly, add_terms
from superbc.interpbc import DESK_MAX_SIZE, DESK_PQ, DESK_WINDOW, PROPERTIES, interpolation_J
from superbc.partitions import HookParams, Partition, enumerate_hooks
from superbc.symmfunc import jack_P


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
        "interp", "--mu", "1", "--p", "2", "--q", "1", "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "superbc"
    assert payload["invocation"]["subcommand"] == "interp"
    result = payload["result"]
    assert result["normalization_value"] == "-2"
    assert result["measured_top_coefficient"] == "-1/4"
    poly = SparsePoly.from_record(result["polynomial"])
    assert poly == interpolation_J(Partition.of(1), HookParams(2, 1)).poly


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


@pytest.mark.parametrize("mode", ("paper", "top"))
def test_the_mode_option_is_gone(mode, capsys):
    # interpolation_J alone labels J, so the label is no argument
    with pytest.raises(SystemExit) as exc:
        run(["interp", "--mu", "1", "--p", "1", "--q", "1", "--mode", mode])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --mode" in captured.err


def test_interp_exits_3_exactly_when_it_prints_a_degenerate_normalization(capsys):
    codes = set()
    for hp in (HookParams(1, 1), HookParams(2, 1), HookParams(1, 2), HookParams(2, 2)):
        for mu in enumerate_hooks(hp, 4, "upto"):
            code, out = invoke(capsys, "interp", "--mu", str(mu), "--p", str(hp.p), "--q", str(hp.q))
            degenerate = "degenerate_normalization = true" in out.splitlines()
            assert degenerate or "degenerate_normalization = false" in out.splitlines()
            assert code == (3 if degenerate else 0), (hp, mu)
            codes.add(code)
    assert codes == {0, 3}


def test_kmu_with_derived(capsys):
    code, out = invoke(capsys, "kmu", "--mu", "1", "--p", "2", "--q", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k[1] = -1"
    assert lines[1].endswith("= -2")


def test_kmu_hook_product_prints_up_to_its_desk_bound(capsys):
    # the hook product of (n) is n!, the largest of size n; at the bound it
    # has 4300 digits, and one size past is refused, not an internal error
    bound = _DESK_SIZE["kmu", "--mu", False]
    code, out = invoke(capsys, "kmu", "--mu", str(bound))
    assert code == 0
    assert out == f"k[{bound}] = {math.factorial(bound)}\n"
    assert len(str(math.factorial(bound))) == 4300
    code = run(["kmu", "--mu", str(bound + 1), "--format", "structured"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: kmu is desk scale: size <= 1558 for --mu, got {bound + 1}\n"


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


def _bound(bounds, m):
    """The bound of a _DESK_SIZE row at max(p, q) = m."""
    return bounds[m - 1] if isinstance(bounds, tuple) else bounds


# one past each row of the table at (p, q) = (m, 1) for every m <= DESK_PQ
# (once, for a row without --p and --q), superjack's at theta = 1 (the
# default), 1/2 and -2/3 alike, then p past DESK_PQ for every row with --p
# and --q; then q past it, grid one past at (3, 3), and values far past a
# bound, some too large for an index, which are refused, not an internal
# error
_PAST_DESK = [
    (command, option, str(_bound(bounds, m) + 1)) + (("--p", str(m), "--q", "1") if paired else ()) + theta
    for (command, option, paired), bounds in _DESK_SIZE.items()
    for m in (range(1, DESK_PQ + 1) if paired else (1,))
    for theta in ([(), ("--theta", "1/2"), ("--theta", "-2/3")] if command == "superjack" else [()])
] + [
    (command, option, "1", "--p", str(DESK_PQ + 1), "--q", "1")
    for (command, option, paired) in _DESK_SIZE if paired
] + [
    ("interp", "--mu", "1", "--p", "1", "--q", str(DESK_PQ + 1)),
    ("grid", "--lambda", str(_DESK_SIZE["grid", "--lambda", True] + 1), "--p", "3", "--q", "3"),
    ("grid", "--lambda", "999999999999999999999999999999", "--p", "3", "--q", "3"),
    ("grid", "--lambda", "1", "--p", "1", "--q", "10000000000000000000000"),
    ("hooks", "--p", "1", "--q", "1", "--size", "100000"),
    ("hooks", "--p", "100000", "--q", "100000", "--max-size", "60"),
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
    for (command, option, paired), bounds in _DESK_SIZE.items():
        for m in range(1, DESK_PQ + 1):
            for hp in (HookParams(m, 1), HookParams(1, m), HookParams(m, m)) if paired else (None,):
                _desk_scale(command, option, _bound(bounds, m), hp)
    assert run(["interp", "--mu", "10", "--p", "2", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: interp is desk scale: size <= 9 for --mu at (p, q) = (2, 1), got 10\n"
    grid = _DESK_SIZE["grid", "--lambda", True]
    assert run(["grid", "--lambda", str(grid), "--p", str(DESK_PQ), "--q", str(DESK_PQ)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert run(["grid", "--lambda", f"{grid},1", "--p", "1", "--q", "1"]) == 2
    assert capsys.readouterr().err == f"error: grid is desk scale: size <= {grid} for --lambda, got {grid + 1}\n"
    # hooks bounds --size and --max-size apart, so the text names the option
    bound = _DESK_SIZE["hooks", "--max-size", True][0]
    assert run(["hooks", "--p", "1", "--q", "1", "--max-size", str(bound + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: hooks is desk scale: size <= {bound} for --max-size at (p, q) = (1, 1), got {bound + 1}\n"
    )


def test_superjack_has_one_bound_for_every_theta(capsys):
    # the (3, 3) bound that theta = 1 admits holds at theta = 1/2 too
    size = _DESK_SIZE["superjack", "--mu", True][2]
    code = run(["superjack", "--mu", str(size), "--p", "3", "--q", "3", "--theta", "1/2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and captured.out.count("\n") == 1


def test_readme_desk_bound_table_matches_the_cli():
    # the README states every desk bound that _desk_scale enforces
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| (`\w+`[^|]*?) \| (.*) \|$", readme, re.M))

    def bounds(row):
        return [tuple(map(int, group.split(", "))) for group in re.findall(r"at most (\d+(?:, \d+)*)", table[row])]

    rows = {"`verify`": [(DESK_MAX_SIZE,), (DESK_WINDOW,)]}
    for (command, _, _), bound in _DESK_SIZE.items():
        rows.setdefault(f"`{command}`", []).append(bound if isinstance(bound, tuple) else (bound,))
    assert {row: sorted(bounds(row)) for row in rows} == {row: sorted(found) for row, found in rows.items()}
    for row in {f"`{command}`" for command, _, paired in _DESK_SIZE if paired} | {"`verify`"}:
        assert f"`p, q <= {DESK_PQ}`" in table[row]


def test_import_loads_no_dataclasses_or_inspect():
    # every call pays for what the import loads: a module that only some
    # calls use is imported where it is used.  -S keeps site and .pth hooks
    # from importing any of these on their own.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys\n"
        "unused = {'json', 'typing', 'random', 'dataclasses', 'inspect'}\n"
        "import superbc\n"
        "print(sorted((unused | {'argparse'}) & set(sys.modules)))\n"
        "import superbc.cli\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_internal_faults_exit_4(monkeypatch, capsys):
    # a closed form that does not vanish on the grid is a fault of the
    # program, neither a failed verification (1) nor a usage error (2); one
    # more constant term keeps it in the squared span with the right top
    # degree, and makes it nonzero at grid(∅)
    genuine = superbc.interpbc.factorial_super_schur
    monkeypatch.setattr(
        superbc.interpbc, "factorial_super_schur",
        lambda mu, hp: add_terms([((0,) * (hp.p + hp.q), 1)], dict(genuine(mu, hp))),
    )
    interpolation_J.cache_clear()
    try:
        code = run(["interp", "--mu", "1", "--p", "2", "--q", "1"])
    finally:
        interpolation_J.cache_clear()
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error: the closed form does not vanish on the grid")


_USAGE_ERRORS = [
    ("error: verification suites are desk scale: p, q <= 3", ("verify", "all", "--p", "4", "--q", "1")),
    ("error: bounds exceed desk scale", ("verify", "vanishing", "--p", "1", "--q", "1", "--max-size", "7")),
    ("error: bounds exceed desk scale", ("verify", "vanishing", "--p", "1", "--q", "1", "--window", "5")),
    ("error: 2,2 is not a (1, 1)-hook partition", ("interp", "--mu", "2,2", "--p", "1", "--q", "1")),
    ("error: 5,4 is not a (1, 1)-hook partition", ("grid", "--lambda", "5,4", "--p", "1", "--q", "1")),
    ("error: 2,2 is not a (1, 1)-hook partition", ("kmu", "--mu", "2,2", "--p", "1", "--q", "1")),
    ("error: --p and --q must be given together", ("kmu", "--mu", "1", "--q", "2")),
    ("error: theta = 0 is a degenerate Jack parameter", ("superjack", "--mu", "2", "--p", "1", "--q", "1", "--theta", "0")),
    ("error: theta = 0 is a degenerate Jack parameter", ("jack", "--mu", "2", "--theta", "0")),
    ("error: P[2] has a pole at theta = -1", ("jack", "--mu", "2", "--theta", "-1")),
]


@pytest.mark.parametrize("message, argv", _USAGE_ERRORS, ids=[" ".join(a) for _, a in _USAGE_ERRORS])
def test_usage_errors_are_raised_where_they_are_detected(message, argv, capsys):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(message) and len(captured.err.splitlines()) == 1


def test_an_internal_value_error_exits_4(monkeypatch, capsys):
    # only the usage errors exit 2; a ValueError from the program's own data
    # is an internal fault
    def broken(*args, **kwargs):
        raise ValueError("parts not weakly decreasing: (1, 2)")

    monkeypatch.setattr(superbc.cli, "expansion_identity", broken)
    code = run(["expand", "--size", "2", "--p", "1", "--q", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "internal error: parts not weakly decreasing: (1, 2)\n"


@pytest.mark.parametrize("fault", [RuntimeError("no progress"), KeyError("nu"), RecursionError("deep")], ids=repr)
def test_any_other_exception_exits_4(fault, monkeypatch, capsys):
    # a UsageError exits 2 and every other exception 4: none leaves run
    # with a traceback and exit 1, which means a failed verification
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(superbc.cli, "expansion_identity", broken)
    code = run(["expand", "--size", "2", "--p", "1", "--q", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"internal error: {fault}\n"


def test_hooks_past_the_recursion_limit(capsys):
    # the recursive hook search raised RecursionError here
    code, out = invoke(capsys, "hooks", "--p", "1", "--q", "1", "--size", "1200")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1200
    assert lines[0] == "1200" and lines[-1] == ",".join(["1"] * 1200)


@pytest.mark.parametrize("mu, theta", [("2,1", "1"), ("3,1", "-1/2"), ("2,2", "3/7"), ("1,1", "-1")])
def test_jack_prints_the_symfun_text(mu, theta, capsys):
    code, out = invoke(capsys, "jack", "--mu", mu, "--theta", theta)
    f = jack_P(Partition.parse(mu), Fraction(theta))
    assert code == 0
    assert out == f"P[{mu}](theta={theta}) = {f.to_text()}\n"
    code, out = invoke(capsys, "jack", "--mu", mu, "--theta", theta, "--format", "structured")
    assert json.loads(out)["result"]["symfun"] == f.to_record()


_RATIONAL_THETA_CALLS = [
    (*argv, "--theta", theta, "--format", fmt)
    for theta in ("1/2", "2", "-1/2")
    for fmt in ("text", "structured")
    for argv in (
        ("jack", "--mu", "3,1"),
        # c_(2,2) vanishes at theta = -1/2, a pole of P_(2,2)
        ("jack", "--mu", "2,2"),
        ("superjack", "--mu", "2,1", "--p", "1", "--q", "1"),
        ("superjack", "--mu", "2,2", "--p", "2", "--q", "2"),
    )
]


def test_jack_at_a_rational_theta_takes_no_monomial_route(monkeypatch, capsys):
    # jack_P builds every rational theta from the integral form, so jack and
    # superjack never call the monomial expansion or its conversion
    before = [invoke(capsys, *argv) for argv in _RATIONAL_THETA_CALLS]
    assert {code for code, _ in before} == {0, 2}

    def refuse(*args, **kwargs):
        raise AssertionError("the monomial route was taken")

    monkeypatch.setattr(superbc.symmfunc, "jack_m_coeffs", refuse)
    monkeypatch.setattr(superbc.symmfunc.SymFun, "from_m", refuse)
    assert [invoke(capsys, *argv) for argv in _RATIONAL_THETA_CALLS] == before


def test_verify_structured_determinism():
    args = ("verify", "all", "--p", "1", "--q", "1", "--max-size", "2", "--format", "structured")
    first = spawn(*args)
    second = spawn(*args)
    assert first.returncode == second.returncode == 3
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


# a file of the layout that `symmfunc.save_jack_cache` writes, with the
# m[1,1] coefficient of P[2] at theta = 1/2 changed from 2/3 to 7
_TAMPERED_CACHE = json.dumps({"format": 1, "entries": [{
    "partition": "2", "theta": "1/2",
    "m": [{"partition": "2", "coefficient": "1"}, {"partition": "1,1", "coefficient": "7"}],
}]})


def test_a_cache_file_in_the_environment_changes_no_output(tmp_path):
    path = tmp_path / "tampered.json"
    path.write_text(_TAMPERED_CACHE)
    out = spawn("jack", "--mu", "2", "--theta", "1/2", env=dict(os.environ, SUPERBC_CACHE=str(path)))
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == "P[2](theta=1/2) = 2/3*p[2] + 1/3*p[1,1]\n"
    assert path.read_text() == _TAMPERED_CACHE


def test_no_cache_file_is_written(tmp_path):
    path = tmp_path / "cache.json"
    out = spawn("jack", "--mu", "3,1", "--theta", "1", env=dict(os.environ, SUPERBC_CACHE=str(path)))
    assert out.returncode == 0
    assert list(tmp_path.iterdir()) == []


_ONE_CALL_EACH = [
    ("hooks", "--p", "1", "--q", "1", "--size", "2"),
    ("jack", "--mu", "2"),
    ("superjack", "--mu", "2", "--p", "1", "--q", "1"),
    ("grid", "--lambda", "1", "--p", "1", "--q", "1"),
    ("interp", "--mu", "1", "--p", "2", "--q", "1"),
    ("kmu", "--mu", "2"),
    ("expand", "--size", "2", "--p", "1", "--q", "1"),
    ("verify", "all", "--p", "1", "--q", "1", "--max-size", "1"),
]


@pytest.mark.parametrize("argv", _ONE_CALL_EACH, ids=lambda argv: argv[0])
def test_the_cache_option_is_gone(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--cache", str(tmp_path / "cache.json")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --cache" in captured.err
    assert list(tmp_path.iterdir()) == []


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


def test_a_closed_stdout_exits_4_with_one_line():
    # a reader that stops early (`| head -2`) closes the pipe: a traceback
    # with exit 1 would read as a failed verification
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "superbc", "hooks", "--p", "3", "--q", "2", "--size", "6", "--format", "structured"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    assert out.returncode == 4
    assert out.stderr == "internal error: output closed\n"


def _to_full(*argv):
    with open("/dev/full", "w") as full:
        return subprocess.run(
            [sys.executable, "-m", "superbc", *argv], stdout=full, stderr=subprocess.PIPE, text=True
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_4_with_one_line():
    # any failed write is a fault, never a failed verification (1)
    out = _to_full("hooks", "--p", "1", "--q", "1", "--size", "2")
    assert out.returncode == 4
    assert out.stderr == "internal error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("superjack", "--help")], ids=" ".join)
def test_help_and_version_to_a_full_stdout_exit_4(argv):
    # argparse itself swallows an OSError from writing help or version text
    out = _to_full(*argv)
    assert out.returncode == 4
    assert out.stderr == "internal error: [Errno 28] No space left on device\n"


_NON_ASCII_DIGITS = [
    ("hooks", "--p", "٣", "--q", "2", "--size", "1"),
    ("hooks", "--p", "3", "--q", "２", "--size", "1"),
    ("hooks", "--p", "1", "--q", "1", "--max-size", "٢"),
    ("superjack", "--mu", "٣,1", "--p", "2", "--q", "1"),
    ("grid", "--lambda", "２", "--p", "1", "--q", "1"),
    ("superjack", "--mu", "2", "--p", "1", "--q", "1", "--theta", "١/2"),
    ("jack", "--mu", "2", "--theta", "-٢"),
    ("jack", "--mu", "2", "--theta", "-٣/2"),
]


@pytest.mark.parametrize("argv", _NON_ASCII_DIGITS, ids=" ".join)
def test_non_ascii_digits_are_usage_errors(argv, capsys):
    # int() and a Unicode \d read every script's digits, so `--p ٣` ran as
    # p = 3; only ASCII digits are numbers on the command line
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"superbc {argv[0]}: error: argument ")


def test_ascii_digits_and_the_empty_partition_still_parse(capsys):
    assert invoke(capsys, "superjack", "--mu", "∅", "--p", "1", "--q", "1", "--theta", "-1/2") == (0, "1\n")
    assert invoke(capsys, "hooks", "--p", "+1", "--q", " 1", "--size", "01")[0] == 0


# generated argv for every subcommand: each option is given with
# probability 7/8, so some calls miss a required one, and each value is
# small (6 in 8), far past every bound (1 in 8; the largest bound, grid's,
# is 10**6) or malformed (1 in 8).  Nothing costly runs: the bounds refuse
# every large value before any work.
@st.composite
def _values(draw, small):
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return draw(st.sampled_from(["", "x", "-1", "1.5", "1/0", "٣", "2,3"]))
    return str(draw(st.integers(10**7, 10**30) if kind == 1 else small))


_sizes = _values(st.integers(0, 3))
_partitions = _values(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda parts: ",".join(map(str, sorted(parts)[::-1])))
)
_pq = _values(st.integers(1, DESK_PQ + 1))
_thetas = st.sampled_from(["1", "1/2", "-2/3", "2", "0", "-1", "x"])
_OPTIONS = {
    "hooks": {"--p": _pq, "--q": _pq, "--size": _sizes, "--max-size": _sizes},
    "jack": {"--mu": _partitions, "--theta": _thetas},
    "superjack": {"--mu": _partitions, "--p": _pq, "--q": _pq, "--theta": _thetas},
    "grid": {"--lambda": _partitions, "--p": _pq, "--q": _pq},
    "interp": {"--mu": _partitions, "--p": _pq, "--q": _pq},
    "kmu": {"--mu": _partitions, "--p": _pq, "--q": _pq},
    "expand": {"--size": _sizes, "--p": _pq, "--q": _pq},
    "verify": {"--p": _pq, "--q": _pq, "--max-size": _sizes, "--window": _sizes},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command] + ([draw(st.sampled_from(PROPERTIES + ("all",)))] if command == "verify" else [])
    for option, values in _OPTIONS[command].items():
        if draw(st.integers(0, 7)):
            argv += [option, draw(values)]
    return argv + ["--format", draw(st.sampled_from(["text", "structured"]))]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200)
@given(_argvs())
def test_cli_exit_code_contract_under_generated_argv(argv):
    first = code, out, err = _call(argv)
    assert code in (0, 1, 2, 3), (code, err)
    if code == 2:
        assert out == "" and "error: " in err.splitlines()[-1]
    elif argv[-1] == "structured":
        json.loads(out)
    assert _call(argv) == first
