"""Work done inside one child interpreter: run the items of a spec, time
each, digest each result outside its timed call, and print one JSON report
as the last line of standard output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import tracing
import workloads


def _now_ns() -> int:
    # CLOCK_MONOTONIC is shared by every process on the machine, so the
    # parent can subtract its spawn time from the child's stamps.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _cli_item(item: str) -> dict:
    from superbc import cli

    buf = io.StringIO()
    t0 = _now_ns()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(item.split(" "))
        error = None
    except SystemExit as exc:
        code, error = exc.code, None
    except Exception:
        code, error = None, traceback.format_exc()
    t1 = _now_ns()
    out = buf.getvalue().encode("utf-8")
    return {"t0": t0, "t1": t1, "exit": code, "sha256": hashlib.sha256(out).hexdigest(),
            "stdout_bytes": len(out), "error": error}


def _library_item(workload: str, item: str, tracer) -> dict:
    t0 = t1 = _now_ns()
    try:
        call = workloads.library_call(workload, item)
        t0 = _now_ns()
        result = call()
        t1 = _now_ns()
        error = None
    except Exception:
        result, error = None, traceback.format_exc()
    digest = None
    if error is None:
        # The digest is a check, not the workload: keep it out of the trace.
        with tracing.paused(tracer):
            text = workloads.library_digest_text(workload, result)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"t0": t0, "t1": t1, "exit": None, "sha256": digest, "stdout_bytes": 0, "error": error}


def main(imported_ns: int, spec_json: str) -> None:
    spec = json.loads(spec_json)
    workload, items = spec["workload"], spec["items"]
    tracer = inst = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
    results = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        if workload in workloads.CLI_WORKLOADS:
            results.append(_cli_item(item))
        else:
            results.append(_library_item(workload, item, tracer))
    report = {
        "imported_ns": imported_ns,
        "items": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        raw = tracer.summary()
        raw["counts"].update(tracing.cache_counts(inst))
        report["layers"] = raw
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"], items)
    sys.stdout.write(json.dumps(report) + "\n")
