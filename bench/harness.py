"""Parent process of the benchmark.

Runs one workload for a fixed time budget from a single process, one child
interpreter at a time, with no extra threads.  Every repetition starts from
cold: fresh interpreters, no `SUPERBC_CACHE` (a fresh, absent cache file for
`cli_session`), and nothing warmed but Python's own bytecode.  Each item's
output is checked against its reference digest.  The host's speed is
measured between repetitions and every time is scaled by it (calibrate.py).
The last line printed is the JSON result; the lines before it are the same
figures for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import stats
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"
TMP_ROOT = ROOT / ".bench_tmp"
SPANS_ROOT = ROOT / ".bench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("max_item_s", "s"),
    ("item_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Standard-library starts between repetitions, which scale set-up time, and
# for workloads whose repetition is a single child, as many extra set-up-only
# interpreters before each repetition, which would otherwise give one set-up
# sample per repetition.  They are spread over the run because a shared
# host's speed drifts over seconds, and samples taken together drift together.
SETUP_PROBES_PER_REP = 4
# A run never outlives this: children still running are killed, items not
# yet started fail unrun.
RUN_LIMIT_S = 170


class SetupError(RuntimeError):
    """The package or the reference digests cannot be used; no result."""


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env(cache_path: Path | None = None) -> dict:
    """Environment of every child: superbc from this checkout's src, its
    bytecode cached as an installed package's is, a random hash seed, and
    SUPERBC_CACHE only where the workload gives one."""
    env = dict(os.environ)
    env.pop("SUPERBC_CACHE", None)
    env.pop("PYTHONHASHSEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if cache_path is not None:
        env["SUPERBC_CACHE"] = str(cache_path)
    return env


@dataclass
class Child:
    spawn_ns: int
    exit_ns: int
    report: dict | None
    error: str | None


def spawn(spec: dict, env: dict, deadline_ns: int | None = None, mode: str | None = None) -> Child:
    mode = mode or ("cli" if spec["workload"] in workloads.CLI_WORKLOADS else "lib")
    t_spawn = now_ns()
    timeout = None if deadline_ns is None else max(deadline_ns - t_spawn, 0) / 1e9
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Child(t_spawn, now_ns(), None, f"killed at the {RUN_LIMIT_S} s run limit")
    t_exit = now_ns()
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        return Child(t_spawn, t_exit, None, f"child exited {proc.returncode}: " + " | ".join(tail))
    return Child(t_spawn, t_exit, json.loads(lines[-1]), None)


@dataclass
class Repetition:
    wall_ns: int = 0
    setup_ns: int = 0
    item_ns: list = field(default_factory=list)
    peak_rss_kb: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    output_bytes: int = 0
    cache_bytes: int = 0
    # Set-up-only interpreters run just before the repetition, and the
    # host-speed factors of calibrate.py measured on both sides of it.
    probe_ns: list = field(default_factory=list)
    work_scale: float = 1.0
    start_scale: float = 1.0


def check_item(item: str, result: dict | None, ref: dict | None, child_error: str | None) -> str | None:
    """Why an item failed, or None when it matches its reference."""
    if child_error is not None:
        return child_error
    if result.get("error"):
        return result["error"].strip().splitlines()[-1]
    if ref is None:
        return "no reference digest"
    if result["sha256"] != ref["sha256"]:
        return "digest differs from the reference"
    if result["exit"] != ref.get("exit"):
        return f"exit code {result['exit']}, reference {ref.get('exit')}"
    return None


def _record(rep: Repetition, items: list, refs: dict, child: Child) -> None:
    results = child.report["items"] if child.report else [None] * len(items)
    for item, result in zip(items, results):
        rep.attempted += 1
        why = check_item(item, result, refs.get(item), child.error)
        if why is not None:
            rep.failures.append(f"{item}: {why}")
        if result is not None:
            rep.output_bytes += result["stdout_bytes"]
    if child.report:
        rep.setup_ns += child.report["imported_ns"] - child.spawn_ns
        rep.peak_rss_kb = max(rep.peak_rss_kb, child.report["peak_rss_kb"])
        if "layers" in child.report:
            rep.layers.append(child.report["layers"])


def _cli_item_ns(child: Child) -> int:
    """What a user waits for in one invocation: interpreter start and import,
    then the command itself.  The benchmark's own work in the child (its
    imports, the digest, the report) and the interpreter's exit are left out."""
    if not child.report:
        return child.exit_ns - child.spawn_ns
    result = child.report["items"][0]
    return child.report["imported_ns"] - child.spawn_ns + result["t1"] - result["t0"]


def run_repetition(workload: str, items: list, refs: dict, tmp: Path, deadline_ns: int,
                   spans_dir: Path | None = None) -> Repetition:
    """One cold pass over a workload's items; traced when spans_dir is set."""
    rep = Repetition()
    trace = spans_dir is not None
    if workload in workloads.CLI_WORKLOADS:
        cache = tmp / "jack-cache.json" if workload == "cli_session" else None
        if cache is not None and cache.exists():
            cache.unlink()
        env = child_env(cache)
        start = None
        for k, item in enumerate(items):
            if now_ns() >= deadline_ns:
                rep.attempted += 1
                rep.failures.append(f"{item}: not run, {RUN_LIMIT_S} s run limit reached")
                continue
            spec = {"workload": workload, "items": [item], "trace": trace,
                    "spans_path": str(spans_dir / f"spans-{k}.json") if trace else None}
            child = spawn(spec, env, deadline_ns)
            start = child.spawn_ns if start is None else start
            _record(rep, [item], refs, child)
            rep.item_ns.append(_cli_item_ns(child))
        rep.wall_ns = now_ns() - (start or now_ns())
        if cache is not None and cache.exists():
            rep.cache_bytes = cache.stat().st_size
    else:
        spec = {"workload": workload, "items": items, "trace": trace,
                "spans_path": str(spans_dir / "spans-0.json") if trace else None}
        child = spawn(spec, child_env(), deadline_ns)
        _record(rep, items, refs, child)
        if child.report:
            rep.item_ns = [r["t1"] - r["t0"] for r in child.report["items"]]
        rep.wall_ns = now_ns() - child.spawn_ns
    return rep


def setup_probe(workload: str, deadline_ns: int, mode: str | None = None) -> int:
    """Set-up time of one interpreter that imports what the workload's
    children import (or, with mode "stdlib", only the standard modules
    superbc uses) and runs no item."""
    child = spawn({"workload": workload, "items": [], "trace": False}, child_env(), deadline_ns, mode)
    if child.error:
        raise SetupError(f"superbc does not import from {SRC}: {child.error}")
    return child.report["imported_ns"] - child.spawn_ns


def load_refs(workload: str) -> dict:
    if not (SRC / "superbc" / "__init__.py").is_file():
        raise SetupError(f"no superbc package under {SRC}")
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            refs = json.load(fh)["workloads"][workload]
    except (OSError, ValueError, KeyError) as err:
        raise SetupError(f"no reference digests for {workload!r} in {DIGESTS}: {err}")
    if not refs:
        raise SetupError(f"reference digests for {workload!r} are empty")
    return refs


def _median(values) -> float:
    # A run whose children all died has no samples; it is reported as failed.
    values = list(values)
    return statistics.median(values) if values else 0.0


def _figures(reps: list, scaled: bool) -> tuple:
    """Timing metrics of a run, with each repetition's times multiplied by
    its host-speed factors when `scaled`, and the item and set-up samples
    behind them."""
    def work(rep):
        return rep.work_scale if scaled else 1.0

    def start(rep):
        return rep.start_scale if scaled else 1.0

    timed = [rep for rep in reps if rep.item_ns and not rep.failures]
    items = [_median(ts) / 1e9 for ts in zip(*([t * work(rep) for t in rep.item_ns] for rep in timed))]
    setups = [t * start(rep) / 1e9 for rep in reps for t in (rep.setup_ns, *rep.probe_ns)]
    values = {
        "wall_s": _median(rep.wall_ns * work(rep) / 1e9 for rep in reps),
        "max_item_s": max(items, default=0.0),
        "item_p50_s": _median(items),
        "setup_s": _median(setups),
    }
    return values, items, setups


def end_to_end(reps: list) -> tuple:
    """End-to-end metrics, and the per-item timing summary behind them.

    Every repetition runs the same items in the same order, so an item's
    time is its median over repetitions; a lone slow sample then does not
    become the run's slowest item.  Each repetition's set-up times are
    multiplied by its `start_scale` and its other times by its
    `work_scale`; the detail keeps the unscaled figures."""
    values, items, setups = _figures(reps, scaled=True)
    values["peak_rss_mb"] = _median(rep.peak_rss_kb / 1024 for rep in reps)
    detail = {"repetitions": len(reps), "item_times": stats.summarize(items) if items else {"n": 0},
              "setup_samples": len(setups), "unscaled": _figures(reps, scaled=False)[0]}
    return {name: (values[name], unit) for name, unit in END_TO_END}, detail


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    refs = load_refs(workload)
    ids = sorted(refs)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    start = now_ns()
    deadline = start + RUN_LIMIT_S * 10**9
    try:
        setup_probe(workload, deadline)  # compiles bytecode; fails fast if superbc is broken
        single_child = workload not in workloads.CLI_WORKLOADS or len(ids) == 1
        order = workloads.repetition_items(workload, ids, seed)
        if not trace:
            by_kernel = workload not in workloads.SCALED_BY_START
            if by_kernel:
                calibrate.sample()  # warms the interpreter's specialised bytecode
            reps, starts, kernels = [], [], []

            def probe_host():
                starts.append([setup_probe(workload, deadline, "stdlib") for _ in range(SETUP_PROBES_PER_REP)])
                if by_kernel:
                    kernels.append(calibrate.sample())

            probe_host()
            while True:
                probes = [setup_probe(workload, deadline) for _ in range(SETUP_PROBES_PER_REP if single_child else 0)]
                rep = run_repetition(workload, order, refs, tmp, deadline)
                probe_host()
                rep.probe_ns = probes
                rep.start_scale = calibrate.START_REF_S * 1e9 / statistics.median(starts[-2] + starts[-1])
                rep.work_scale = calibrate.REF_S / statistics.mean(kernels[-2:]) if by_kernel else rep.start_scale
                reps.append(rep)
                if rep.failures or now_ns() - start + rep.wall_ns > seconds * 1e9:
                    break
            metrics, detail = end_to_end(reps)
            detail["stdlib_start_s"] = stats.summarize(t / 1e9 for ts in starts for t in ts)
            if by_kernel:
                detail["kernel_s"] = stats.summarize(kernels)
        else:
            spans_dir = SPANS_ROOT / workload
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            plain = run_repetition(workload, order, refs, tmp, deadline)
            traced = run_repetition(workload, order, refs, tmp, deadline, spans_dir)
            reps = [plain, traced]
            raw = tracing.merge(traced.layers)
            metrics = tracing.layer_metrics(raw, traced.output_bytes, traced.cache_bytes,
                                            traced.wall_ns / plain.wall_ns if plain.wall_ns else 0.0)
            detail = {"untraced_wall_s": plain.wall_ns / 1e9, "traced_wall_s": traced.wall_ns / 1e9,
                      "spans_dir": str(spans_dir.relative_to(ROOT))}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(rep.attempted for rep in reps)
    failures = [f for rep in reps for f in rep.failures]
    return {"metrics": metrics, "detail": detail, "attempted": attempted, "failures": failures}


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What a result was measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "src_sha256": source.hexdigest(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _terminate(signum, frame):
    # Turned into SystemExit, which makes subprocess.run kill and reap the
    # running child before the harness exits.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    attempted, failed = out["attempted"], len(out["failures"])
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, bool(args.trace))))
    print("detail " + json.dumps(out["detail"]))
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':40s} {failed / attempted:>16.6g} ({failed} of {attempted} items)")
    for failure in out["failures"][:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1
