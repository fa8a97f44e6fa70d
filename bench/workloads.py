"""The benchmark's workloads: their fixed item sets, the seeded order (or
draw) of the items of a run, and how a child process runs one item and
renders the text its reference digest is taken over.

Item ids are the interface to the reference digests in `digests.json`, so
they never depend on the seed: the seed only draws and orders the
`cli_session` invocations from a fixed pool.
"""

from __future__ import annotations

import random

WORKLOADS = ("interp_sweep", "jack_generic", "verify_cli", "cli_session")

# Workloads whose items are CLI invocations, each in its own fresh interpreter.
CLI_WORKLOADS = ("verify_cli", "cli_session")
# Workloads whose every time is mostly interpreter start and import, so it
# is scaled by the host's speed at starting Python, not at arithmetic (see
# calibrate.py).
SCALED_BY_START = ("cli_session",)

INTERP_HOOK = (3, 3)
# One size below ROADMAP W2 (|mu| <= 6) and W1 (degrees 6 and 7): a sweep
# then takes about 2 s instead of 8 to 10, so a 40 s run repeats it about
# twelve times instead of three.  The host's speed varies from one second to
# the next, and three samples of each item left the slowest and the median
# item spreading 0.15 to 0.3 between runs; host-speed scaling cannot remove
# variation faster than a repetition.
INTERP_MAX_SIZE = 5
JACK_DEGREES = (5, 6)
VERIFY_ARGV = ("verify", "all", "--p", "3", "--q", "3", "--max-size", "5", "--format", "structured")

SESSION_PQ = ((1, 1), (1, 2), (2, 1), (2, 2))
SESSION_MAX_SIZE = 4
SESSION_THETAS = ("1/2", "1", "2")
SESSION_PROPERTIES = ("vanishing", "normalization", "even-symmetry", "expansion", "res-eval", "all")
# Verify suites stop at max-size 3: at 4 one invocation takes twice as long
# as any other, and whether the draw caught one would set max_item_s.
SESSION_VERIFY_MAX_SIZE = 3
SESSION_FORMATS = ("text", "structured")
# The pool's slowest invocation, which every draw includes (in a seeded
# format): whether a draw caught it, or one of the few near it, moved the
# session's slowest item by a quarter from seed to seed.
SESSION_LONGEST = f"verify all --p 2 --q 2 --max-size {SESSION_VERIFY_MAX_SIZE}"
# Invocations drawn per subcommand; every subcommand appears in every draw.
SESSION_PER_SUBCOMMAND = 6


def _session_pool() -> dict:
    """Every invocation the cli_session draw can pick, keyed by subcommand."""
    from superbc.partitions import HookParams, enumerate_hooks, partitions_of

    pool: dict = {}

    def add(sub, *args):
        for fmt in SESSION_FORMATS:
            pool.setdefault(sub, []).append(" ".join((sub,) + args + ("--format", fmt)))

    for p, q in SESSION_PQ:
        pq = ("--p", str(p), "--q", str(q))
        for size in range(SESSION_MAX_SIZE + 1):
            add("hooks", *pq, "--size", str(size))
            add("hooks", *pq, "--max-size", str(size))
            add("expand", "--size", str(size), *pq)
        for mu in enumerate_hooks(HookParams(p, q), SESSION_MAX_SIZE, "upto"):
            if not mu.size:
                continue
            for theta in SESSION_THETAS:
                add("superjack", "--mu", str(mu), *pq, "--theta", theta)
            add("grid", "--lambda", str(mu), *pq)
            add("interp", "--mu", str(mu), *pq)
            add("kmu", "--mu", str(mu), *pq)
        for prop in SESSION_PROPERTIES:
            for max_size in range(1, SESSION_VERIFY_MAX_SIZE + 1):
                add("verify", prop, *pq, "--max-size", str(max_size))
    for d in range(1, SESSION_MAX_SIZE + 1):
        for lam in partitions_of(d):
            for theta in SESSION_THETAS:
                add("jack", "--mu", str(lam), "--theta", theta)
            add("kmu", "--mu", str(lam))
    return pool


def all_items(workload: str) -> list:
    """Every item id of a workload whose digest is recorded."""
    from superbc.partitions import HookParams, enumerate_hooks, partitions_of

    if workload == "interp_sweep":
        return [str(mu) for mu in enumerate_hooks(HookParams(*INTERP_HOOK), INTERP_MAX_SIZE, "upto")]
    if workload == "jack_generic":
        return [str(lam) for d in JACK_DEGREES for lam in partitions_of(d)]
    if workload == "verify_cli":
        return [" ".join(VERIFY_ARGV)]
    if workload == "cli_session":
        return [item for items in _session_pool().values() for item in items]
    raise ValueError(f"unknown workload {workload!r}")


def repetition_items(workload: str, ids: list, seed: int) -> list:
    """Item ids of every repetition of a run, in the order they run.

    The library sweeps go up in size, as a desk sweep does, in one fixed
    order whatever the seed: the first item of a size pays for work the
    others of that size share, so a seeded order would move the slowest
    and the median item.  The session draws the same number of invocations
    of every subcommand, one of them SESSION_LONGEST, in a seeded order.
    """
    rng = random.Random(seed)
    ids = sorted(ids)
    if workload in ("interp_sweep", "jack_generic"):
        return sorted(ids, key=lambda item: (_size(item), item))
    if workload == "verify_cli":
        return ids
    if workload == "cli_session":
        by_sub: dict = {}
        for item in ids:
            by_sub.setdefault(item.split(" ", 1)[0], []).append(item)
        longest = f"{SESSION_LONGEST} --format {rng.choice(SESSION_FORMATS)}"
        drawn = [longest]
        for sub in sorted(by_sub):
            rest = [item for item in by_sub[sub] if item != longest]
            drawn.extend(rng.sample(rest, SESSION_PER_SUBCOMMAND - (sub == longest.split(" ", 1)[0])))
        rng.shuffle(drawn)
        return drawn
    raise ValueError(f"unknown workload {workload!r}")


def _size(item: str) -> int:
    return 0 if item == "∅" else sum(int(v) for v in item.split(","))


# ---------------------------------------------------------------------------
# inside a child process (superbc is importable)


def library_call(workload: str, item: str):
    """Zero-argument callable doing one library item's timed work."""
    if workload == "interp_sweep":
        from superbc.interpbc import paper_or_top
        from superbc.partitions import HookParams, Partition

        mu, hp = Partition.parse(item), HookParams(*INTERP_HOOK)
        return lambda: paper_or_top(mu, hp)
    if workload == "jack_generic":
        from superbc.exactalg import THETA
        from superbc.partitions import Partition
        from superbc.symmfunc import jack_P

        lam = Partition.parse(item)
        return lambda: jack_P(lam, THETA)
    raise ValueError(f"{workload!r} has no library items")


def library_digest_text(workload: str, result) -> str:
    """Canonical text of a library item's result, taken outside the timed
    call: J_mu's mode, flags and polynomial, or P_lam's m-coefficients."""
    if workload == "interp_sweep":
        return "\n".join(
            (
                f"mode={result.mode}",
                f"degenerate_normalization={result.degenerate_normalization}",
                f"extended_grid_used={result.extended_grid_used}",
                result.poly.to_text(),
            )
        )
    if workload == "jack_generic":
        from superbc.partitions import sort_key

        m = result.to_m()
        return "\n".join(f"{lam}: {m[lam]}" for lam in sorted(m, key=sort_key))
    raise ValueError(f"{workload!r} has no library items")
