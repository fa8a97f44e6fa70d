"""Command-line front end: compute objects and run the verification suites,
with canonical text or structured JSON output.

A call depends only on its arguments: it reads and writes no file.

Exit codes: 0 success, 1 verification failure, 2 usage error (a
`UsageError`: a desk-scale bound, a non-hook argument or a degenerate Jack
parameter), 3 degenerate normalization (J_mu labelled top), 4 internal
error (any other exception: an exact computation that cannot fail did,
e.g. a closed form of J_mu that does not vanish on the grid).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

import superbc
from superbc.exactalg import rational_record
from superbc.interpbc import (
    DESK_PQ,
    PROPERTIES,
    VerifySpec,
    derive_k,
    expansion_identity,
    grid_point,
    interpolation_J,
    k_mu,
    verify_properties,
)
from superbc.partitions import HookParams, Partition, UsageError, enumerate_hooks
from superbc.superpoly import super_jack
# load_jack_cache is unused here; bench/tests/test_harness.py asserts the tracer rebinds it
from superbc.symmfunc import jack_P, load_jack_cache

_RATIONAL = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def _rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/2 or -3, got {text!r}")
    return Fraction(text)


def _glue_negative_rationals(argv: list) -> list:
    """Write `--theta -1/2` as `--theta=-1/2`: argparse reads a value that
    starts with "-" as an option unless it looks like -N or -N.N."""
    out = []
    for arg in argv:
        if out and out[-1] == "--theta" and arg.startswith("-") and _RATIONAL.match(arg):
            out[-1] = f"--theta={arg}"
        else:
            out.append(arg)
    return out


def _integer(least: int):
    """argparse type of the integers >= least, 1 or 0."""
    kind = "positive" if least else "nonnegative"

    def parse(text: str) -> int:
        # int() also reads the digits of other scripts
        if text.isascii():
            try:
                v = int(text)
                if v >= least:
                    return v
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")

    return parse


_positive, _nonnegative = _integer(1), _integer(0)


def _partition(text: str) -> Partition:
    try:
        if not (text.isascii() or text.strip() == "∅"):
            raise ValueError("parts are written in ASCII digits")
        return Partition.parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {err}")


# Desk-scale bounds, past which a call is a usage error before any work.  A
# row is keyed by its command, the option whose size it bounds and whether
# the call has --p and --q, which are then at most DESK_PQ; it holds one
# bound, or one per max(p, q) = 1, 2, 3.  The rule: a bound is at most the
# largest size whose call ran in under 5 s, spawn to exit, over every hook
# of that size at the costliest (p, q) with the same max(p, q), and at
# every theta for superjack.  hooks keeps about half of that (1.4-2.1 s at
# (m, m) on a 2-vCPU host), so that CI's 5 s timeout holds on a slower
# runner.  kmu with --p and --q does expand's work; without them it is the
# hook product alone, at most |mu|!, and its bound is the largest size whose
# factorial Python still prints under its default limit of 4300 digits.
# grid's point is built from the transpose of lambda, lambda_1 entries.
_DESK_SIZE = {
    ("hooks", "--size", True): (4000, 130, 60),
    ("hooks", "--max-size", True): (350, 65, 45),
    ("jack", "--mu", False): 16,
    ("superjack", "--mu", True): (17, 16, 13),
    ("grid", "--lambda", True): 10**6,
    ("interp", "--mu", True): (14, 9, 8),
    ("kmu", "--mu", False): 1558,
    ("expand", "--size", True): (17, 12, 7),
}
_DESK_SIZE["kmu", "--mu", True] = _DESK_SIZE["expand", "--size", True]


def _desk_scale(command: str, option: str, size: int, hp: HookParams | None = None) -> None:
    bound, where = _DESK_SIZE[command, option, hp is not None], ""
    if hp is not None and (hp.p > DESK_PQ or hp.q > DESK_PQ):
        raise UsageError(f"{command} is desk scale: p, q <= {DESK_PQ}")
    if isinstance(bound, tuple):
        bound, where = bound[max(hp.p, hp.q) - 1], f" at (p, q) = ({hp.p}, {hp.q})"
    if size > bound:
        raise UsageError(f"{command} is desk scale: size <= {bound} for {option}{where}, got {size}")


class _Parser(argparse.ArgumentParser):
    """argparse swallows an OSError from writing its help or version text;
    on stdout let it reach `main`, which maps it to exit 4 as it does for
    any other output.  Subparsers take the same class."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superbc",
        description="Exact hook-partition, super Jack, and type BC interpolation calculator.",
    )
    parser.add_argument("--version", action="version", version=f"superbc {superbc.__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hooks", parents=[common], help="enumerate (p, q)-hook partitions")
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--q", type=_positive, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--size", type=_nonnegative, help="exact size")
    group.add_argument("--max-size", type=_nonnegative, help="all sizes up to the bound")
    sp.set_defaults(func=_cmd_hooks)

    sp = sub.add_parser("jack", parents=[common], help="Jack symmetric function in the power-sum basis")
    sp.add_argument("--mu", type=_partition, required=True)
    sp.add_argument("--theta", type=_rational, default=Fraction(1))
    sp.set_defaults(func=_cmd_jack)

    sp = sub.add_parser("superjack", parents=[common], help="super Jack polynomial")
    sp.add_argument("--mu", type=_partition, required=True)
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--q", type=_positive, required=True)
    sp.add_argument("--theta", type=_rational, default=Fraction(1))
    sp.set_defaults(func=_cmd_superjack)

    sp = sub.add_parser("grid", parents=[common], help="shifted evaluation point of a partition")
    sp.add_argument("--lambda", dest="lam", type=_partition, required=True)
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--q", type=_positive, required=True)
    sp.set_defaults(func=_cmd_grid)

    sp = sub.add_parser("interp", parents=[common], help="type BC interpolation polynomial")
    sp.add_argument("--mu", type=_partition, required=True)
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--q", type=_positive, required=True)
    sp.set_defaults(func=_cmd_interp)

    sp = sub.add_parser("kmu", parents=[common], help="hook-product constant")
    sp.add_argument("--mu", type=_partition, required=True)
    sp.add_argument("--p", type=_positive, default=None)
    sp.add_argument("--q", type=_positive, default=None)
    sp.set_defaults(func=_cmd_kmu)

    sp = sub.add_parser("expand", parents=[common], help="expand powers of the quadratic power sum")
    sp.add_argument("--size", type=_nonnegative, required=True)
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--q", type=_positive, required=True)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("verify", parents=[common], help="run an exact verification suite")
    sp.add_argument("property", choices=PROPERTIES + ("all",))
    sp.add_argument("--p", type=_positive, required=True)
    sp.add_argument("--q", type=_positive, required=True)
    sp.add_argument("--max-size", type=_nonnegative, default=3)
    sp.add_argument("--window", type=_nonnegative, default=2)
    sp.set_defaults(func=_cmd_verify)

    return parser


def _cmd_hooks(args):
    hp = HookParams(args.p, args.q)
    if args.size is not None:
        option, size, mode = "--size", args.size, "exact"
    else:
        option, size, mode = "--max-size", args.max_size, "upto"
    _desk_scale("hooks", option, size, hp)
    names = [str(lam) for lam in enumerate_hooks(hp, size, mode)]
    return 0, {"partitions": names}, names


def _cmd_jack(args):
    _desk_scale("jack", "--mu", args.mu.size)
    f = jack_P(args.mu, args.theta)
    result = {"mu": str(args.mu), "theta": str(args.theta), "symfun": f.to_record()}
    return 0, result, [f"P[{args.mu}](theta={args.theta}) = {f.to_text()}"]


def _cmd_superjack(args):
    hp = HookParams(args.p, args.q)
    _desk_scale("superjack", "--mu", args.mu.size, hp)
    poly = super_jack(args.mu, hp, args.theta)
    result = {
        "mu": str(args.mu),
        "p": args.p,
        "q": args.q,
        "theta": str(args.theta),
        "polynomial": poly.to_record(),
    }
    return 0, result, [poly.to_text()]


def _cmd_grid(args):
    hp = HookParams(args.p, args.q)
    _desk_scale("grid", "--lambda", args.lam.size, hp)
    point = grid_point(args.lam, hp)
    coords = [str(c) for c in point.coords]
    result = {"lambda": str(args.lam), "p": args.p, "q": args.q, "coordinates": coords}
    return 0, result, ["(" + ", ".join(coords) + ")"]


def _interp_result(j) -> dict:
    return {
        "mu": str(j.mu),
        "p": j.hp.p,
        "q": j.hp.q,
        "mode": j.mode,
        "polynomial": j.poly.to_record(),
        "normalization_value": str(j.normalization_value),
        "measured_top_coefficient": str(j.measured_top_coefficient),
        "degenerate_normalization": j.degenerate_normalization,
        "extended_grid_used": j.extended_grid_used,
        "coefficients": [
            {"partition": str(nu), "coefficient": rational_record(c)} for nu, c in j.coefficients
        ],
    }


def _interp_lines(j) -> list:
    return [
        f"J[{j.mu}] = {j.poly.to_text()}",
        f"mode = {j.mode}",
        f"normalization_value = {j.normalization_value}",
        f"measured_top_coefficient = {j.measured_top_coefficient}",
        f"degenerate_normalization = {str(j.degenerate_normalization).lower()}",
        f"extended_grid_used = {str(j.extended_grid_used).lower()}",
    ]


def _cmd_interp(args):
    hp = HookParams(args.p, args.q)
    _desk_scale("interp", "--mu", args.mu.size, hp)
    j = interpolation_J(args.mu, hp)
    return (3 if j.degenerate_normalization else 0), _interp_result(j), _interp_lines(j)


def _cmd_kmu(args):
    if (args.p is None) != (args.q is None):
        raise UsageError("--p and --q must be given together")
    hp = None if args.p is None else HookParams(args.p, args.q)
    _desk_scale("kmu", "--mu", args.mu.size, hp)
    k = k_mu(args.mu)
    result = {"mu": str(args.mu), "k": str(k)}
    lines = [f"k[{args.mu}] = {k}"]
    if hp is not None:
        kd = derive_k(args.mu, hp)
        result.update({"p": args.p, "q": args.q, "k_derived": str(kd)})
        lines.append(f"k_derived[{args.mu}] at (p, q) = ({args.p}, {args.q}) = {kd}")
    return 0, result, lines


def _cmd_expand(args):
    hp = HookParams(args.p, args.q)
    _desk_scale("expand", "--size", args.size, hp)
    report = expansion_identity(args.size, hp)
    entries = [
        {
            "partition": str(en.nu),
            "coefficient": rational_record(en.coefficient),
            "hook_product": rational_record(en.hook_product),
            "direct": en.direct,
            "reciprocal": en.reciprocal,
        }
        for en in report.entries
    ]
    result = {
        "m": report.m,
        "p": args.p,
        "q": args.q,
        "orientation": report.orientation,
        "entries": entries,
    }
    lines = [
        f"nu=({en.nu}) e={en.coefficient} C={en.hook_product} "
        f"direct={str(en.direct).lower()} reciprocal={str(en.reciprocal).lower()}"
        for en in report.entries
    ]
    lines.append(f"orientation: {report.orientation}")
    return 0, result, lines


def _cmd_verify(args):
    hp = HookParams(args.p, args.q)
    report = verify_properties(VerifySpec(args.property, hp, args.max_size, args.window))
    return report.exit_code, report.record(), report.text_lines()


def _invocation(args) -> dict:
    skip = {"func", "format"}
    out = {"subcommand": args.command}
    for key, val in sorted(vars(args).items()):
        if key in skip or key == "command" or val is None:
            continue
        if isinstance(val, (Partition, Fraction)):
            val = str(val)
        out[key] = val
    return out


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_rationals(sys.argv[1:] if argv is None else list(argv)))
    try:
        code, result, lines = args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # an exact computation that cannot fail did: a closed form of J
        # that does not vanish on the grid, a division that should have
        # been exact, a check on data the program built itself, or any
        # other fault
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    if args.format == "structured":
        import json  # the text format, and every call that fails, need none

        payload = {
            "tool": "superbc",
            "version": superbc.__version__,
            "invocation": _invocation(args),
            "result": result,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main(argv=None) -> None:
    try:
        try:
            code = run(argv)
        finally:
            # flush here, so that a closed stdout raises inside this try
            sys.stdout.flush()
    except OSError as err:
        # the reader closed stdout, or writing it failed (a full disk): what
        # is left goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = "output closed" if isinstance(err, BrokenPipeError) else err
        print(f"internal error: {reason}", file=sys.stderr)
        code = 4
    sys.exit(code)


if __name__ == "__main__":
    main()
