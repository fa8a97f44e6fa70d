"""Regenerate the reference digests in bench/digests.json.

    python3 bench/record_digests.py

This is the only thing that writes the references, and it is never run by
the benchmark itself: regenerate them only when a change of output is
intended, and say so in the change that does it.  Every item runs the way
the benchmark runs it, in a fresh interpreter with SUPERBC_CACHE unset.
"""

from __future__ import annotations

import json
import sys

import harness
import workloads


def record(workload: str) -> dict:
    items = workloads.all_items(workload)
    batches = [[item] for item in items] if workload in workloads.CLI_WORKLOADS else [items]
    refs = {}
    for batch in batches:
        child = harness.spawn({"workload": workload, "items": batch}, harness.child_env())
        if child.error:
            raise SystemExit(f"{workload}: {child.error}")
        for item, result in zip(batch, child.report["items"]):
            if result["error"]:
                raise SystemExit(f"{workload} {item}: {result['error']}")
            ref = {"sha256": result["sha256"]}
            if result["exit"] is not None:
                ref["exit"] = result["exit"]
            refs[item] = ref
    return dict(sorted(refs.items()))


def main() -> int:
    sys.path.insert(0, str(harness.SRC))
    try:
        with open(harness.DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"workloads": {}}
    for workload in workloads.WORKLOADS:
        old = data["workloads"].get(workload, {})
        new = record(workload)
        changed = sorted(k for k in new if old.get(k) != new[k])
        print(f"{workload}: {len(new)} items, {len(changed)} new or changed", file=sys.stderr)
        data["workloads"][workload] = new
    with open(harness.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
