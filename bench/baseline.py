"""Measure a baseline: run the benchmark on ten consecutive seeds for every
workload in BENCHMARK.json, each run a separate process, and record each
end-to-end metric's median, quartiles and spread, plus the per-layer
metrics of one traced run on the first seed.

    python3 bench/baseline.py [--first-seed 1] [--out bench/baseline.json]

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  `--out -` prints without writing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness
import stats

SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(harness.BENCH_DIR / "baseline.json"))
    args = parser.parse_args(argv)
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds, bounds = spec["run_seconds"], {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    out = {"environment": harness.environment("all", seeds[0], seconds, False), "seeds": seeds,
           "workloads": {}}
    out["environment"].pop("workload")
    out["environment"].pop("seed")
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        if not all(r["correct"] for r in runs):
            raise SystemExit(f"{workload}: a run was not correct")
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(values),
                          "q1": q1, "q3": q3, "spread": stats.spread(values),
                          "bound": bounds[name], "values": values}
            print(f"{workload:13s} {name:12s} median {rows[name]['median']:10.5g} "
                  f"spread {rows[name]['spread']:6.3f} (bound {bounds[name]})", flush=True)
        traced = run_once(workload, seeds[0], seconds, trace=1)
        if not traced["correct"]:
            raise SystemExit(f"{workload}: the traced run was not correct")
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": rows,
            "traced_seed": seeds[0],
            "layers": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
