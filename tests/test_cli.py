import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import superbc.cli
import superbc.interpbc
import superbc.symmfunc
from superbc.cli import _DESK_HOOK_PRODUCT_SIZE, _DESK_JACK_SIZE, _DESK_SIZE, _desk_scale, run
from superbc.exactalg import SparsePoly, add_terms
from superbc.interpbc import DESK_PQ, interpolation_J
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
    code, out = invoke(capsys, "kmu", "--mu", str(_DESK_HOOK_PRODUCT_SIZE))
    assert code == 0
    assert out == f"k[{_DESK_HOOK_PRODUCT_SIZE}] = {math.factorial(_DESK_HOOK_PRODUCT_SIZE)}\n"
    assert len(str(math.factorial(_DESK_HOOK_PRODUCT_SIZE))) == 4300
    code = run(["kmu", "--mu", str(_DESK_HOOK_PRODUCT_SIZE + 1), "--format", "structured"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: kmu is desk scale: size <= 1558, got {_DESK_HOOK_PRODUCT_SIZE + 1}\n"


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


def _past_bound(key, m, bound):
    # key is a subcommand, or "superjack at theta != 1"
    command, route = key.split(" ")[0], " at theta != 1" in key
    size = "--size" if command == "expand" else "--mu"
    theta = ("--theta", "1/2") if route else ()
    return (command, size, str(bound + 1), "--p", str(m), "--q", "1") + theta


# one past each bound: every size bound of the table at (p, q) = (m, 1), where
# it applies to max(p, q) = m, then p or q past DESK_PQ, then jack's bound
# and that of kmu without --p and --q
_PAST_DESK = [
    _past_bound(key, m, bound) for key, bounds in _DESK_SIZE.items() for m, bound in enumerate(bounds, 1)
] + [
    ("superjack", "--mu", "1", "--p", str(DESK_PQ + 1), "--q", "1"),
    ("interp", "--mu", "1", "--p", "1", "--q", str(DESK_PQ + 1)),
    ("expand", "--size", "1", "--p", str(DESK_PQ + 1), "--q", "1"),
    ("kmu", "--mu", "1", "--p", str(DESK_PQ + 1), "--q", "1"),
    ("jack", "--mu", str(_DESK_JACK_SIZE + 1)),
    ("kmu", "--mu", str(_DESK_HOOK_PRODUCT_SIZE + 1)),
]


@pytest.mark.parametrize("argv", _PAST_DESK, ids=" ".join)
def test_past_desk_scale_exits_2(argv, capsys):
    # refused before any work, so none of these takes measurable time
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    route = " at theta != 1" if "--theta" in argv else ""
    assert captured.err.startswith(f"error: {argv[0]}{route} is desk scale: ")
    assert len(captured.err.splitlines()) == 1


def test_desk_scale_bounds_admit_their_own_size(capsys):
    for command, bounds in _DESK_SIZE.items():
        for m, bound in enumerate(bounds, 1):
            for hp in (HookParams(m, 1), HookParams(1, m), HookParams(m, m)):
                _desk_scale(command, bound, hp)
    _desk_scale("jack", _DESK_JACK_SIZE)
    _desk_scale("kmu", _DESK_HOOK_PRODUCT_SIZE)
    assert run(["interp", "--mu", "10", "--p", "2", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: interp is desk scale: size <= 9 at (p, q) = (2, 1), got 10\n"


def test_readme_desk_bound_table_matches_the_cli():
    # the README states every desk bound that _desk_scale enforces
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| (`\w+`[^|]*?) \| (.*) \|$", readme, re.M))

    def bounds(row):
        return [tuple(map(int, group.split(", "))) for group in re.findall(r"at most (\d+(?:, \d+)*)", table[row])]

    assert bounds("`interp`") == [_DESK_SIZE["interp"]]
    assert bounds("`superjack`") == [_DESK_SIZE["superjack"]]
    assert bounds("`superjack` at θ ≠ 1") == [_DESK_SIZE["superjack at theta != 1"]]
    assert bounds("`expand`") == [_DESK_SIZE["expand"]]
    assert bounds("`kmu`") == [_DESK_SIZE["kmu"], (_DESK_HOOK_PRODUCT_SIZE,)]
    assert bounds("`jack`") == [(_DESK_JACK_SIZE,)]
    for row in ("`interp`", "`superjack`", "`superjack` at θ ≠ 1", "`expand`", "`kmu`"):
        assert f"`p, q <= {DESK_PQ}`" in table[row]


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
