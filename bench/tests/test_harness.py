"""Tests of the benchmark harness itself (not of superbc).

    python3 -m pytest bench/tests
"""

import json
import statistics
import subprocess
import sys

import pytest

import calibrate
import harness
import stats
import tracing
import workloads


# --- self time -------------------------------------------------------------


def _span(start, end, parent):
    return [0, start, end, parent, 0]


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span(0, 100, -1),  # root
        _span(10, 40, 0),  # child
        _span(30, 60, 0),  # overlaps the first child by 10
        _span(90, 120, 0),  # runs past the root's end: clipped to 90..100
        _span(15, 25, 1),  # grandchild inside the first child
        _span(200, 210, 0),  # entirely outside the root: covers nothing
    ]
    selfs = tracing.self_times(spans)
    # root: covered 10..60 and 90..100 -> 60 of 100
    assert selfs[0] == 40
    assert selfs[1] == 30 - 10
    assert selfs[2] == 30
    assert selfs[3] == 30
    assert selfs[4] == 10
    assert selfs[5] == 10


def test_self_time_identical_and_contained_children():
    spans = [_span(0, 50, -1), _span(10, 20, 0), _span(10, 20, 0), _span(5, 30, 0)]
    assert tracing.self_times(spans)[0] == 50 - 25


def test_tracer_records_parents_items_and_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("g:inner", lambda x: x + 1)
    outer = tracer.wrap("g:outer", lambda x: inner(inner(x)))
    tracer.item = 7
    assert outer(1) == 3
    with tracing.paused(tracer):
        assert outer(1) == 3
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["g:outer", "g:inner", "g:inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert all(s[4] == 7 for s in tracer.spans)
    summary = tracer.summary()["spans"]
    assert summary["g:inner"][0] == 2
    outer_row = summary["g:outer"]
    assert outer_row[1] == outer_row[2] - summary["g:inner"][2]


def test_tracer_closes_span_when_the_call_raises():
    tracer = tracing.Tracer()
    errors = []

    def probe(tr, fn, args, kwargs):
        return lambda result, error: errors.append(error)

    boom = tracer.wrap("g:boom", lambda: 1 / 0, probe)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert isinstance(errors[0], ZeroDivisionError)
    assert tracer._stack == [-1]


# --- order statistics ------------------------------------------------------


def test_median_and_nearest_rank_percentile():
    assert stats.summarize([3, 1, 2])["median"] == 2
    assert stats.summarize([4, 1, 3, 2])["median"] == 2.5
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5], 1) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.summarize([])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(11) == 9
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(150) == 93
    for n in (11, 30, 60, 78, 144, 1000):
        pct = stats.tail_percentile(n)
        values = list(range(n))
        cut = stats.percentile(values, pct)
        assert sum(v > cut for v in values) >= 10
        # and the next whole percentile would leave fewer than ten
        assert n * (1 - (pct + 1) / 100) < 10


def test_summary_reports_sample_count():
    short = stats.summarize([0.2, 0.1, 0.3])
    assert short == {"n": 3, "median": 0.2}
    long = stats.summarize([float(v) for v in range(40)])
    assert long["n"] == 40
    assert long["median"] == 19.5
    assert long["tail_pct"] == 75
    assert long["tail"] == 29.0


def test_item_times_are_medians_over_repetitions():
    reps = [harness.Repetition(wall_ns=10, item_ns=[1, 5, 2], peak_rss_kb=2048, probe_ns=[7, 8]),
            harness.Repetition(wall_ns=30, item_ns=[1, 90, 2], peak_rss_kb=2048),
            harness.Repetition(wall_ns=20, item_ns=[1, 5, 3], peak_rss_kb=4096),
            harness.Repetition(wall_ns=99, item_ns=[9, 9, 9], failures=["x: boom"])]
    metrics, detail = harness.end_to_end(reps)
    # the failed repetition's items are not timings of correct work
    assert metrics["max_item_s"][0] == 5 / 1e9
    assert metrics["item_p50_s"][0] == 2 / 1e9
    assert metrics["wall_s"][0] == 25 / 1e9
    assert metrics["setup_s"][0] == 0.0  # four zero set-ups against two probes
    assert metrics["peak_rss_mb"][0] == 2.0
    assert detail["item_times"]["n"] == 3
    assert detail["setup_samples"] == 6


def test_each_repetition_is_scaled_by_its_own_host_speed():
    reps = [harness.Repetition(wall_ns=10, setup_ns=4, item_ns=[2, 6], peak_rss_kb=2048, probe_ns=[4, 4],
                               work_scale=1.0, start_scale=1.0),
            harness.Repetition(wall_ns=20, setup_ns=8, item_ns=[4, 12], peak_rss_kb=2048, probe_ns=[8, 8],
                               work_scale=0.5, start_scale=0.5)]
    metrics, detail = harness.end_to_end(reps)
    # the second repetition ran on a host half as fast: scaled, it agrees
    assert metrics["wall_s"][0] == 10 / 1e9
    assert metrics["max_item_s"][0] == 6 / 1e9
    assert metrics["item_p50_s"][0] == 4 / 1e9
    assert metrics["setup_s"][0] == 4 / 1e9
    assert metrics["peak_rss_mb"][0] == 2.0  # memory is not scaled
    assert detail["unscaled"] == pytest.approx({"wall_s": 15 / 1e9, "max_item_s": 9 / 1e9,
                                                "item_p50_s": 6 / 1e9, "setup_s": 6 / 1e9})


def test_calibration_kernel_runs_no_superbc_code():
    # A change to superbc must not be able to move the host-speed scale.
    code = ("import sys, calibrate; calibrate.kernel(); "
            "sys.exit(any(m.startswith('superbc') for m in sys.modules))")
    env = harness.child_env()
    assert subprocess.run([sys.executable, "-c", code], cwd=harness.BENCH_DIR, env=env).returncode == 0
    assert calibrate.kernel() == calibrate.kernel()


def test_spread_matches_statistics_quantiles():
    values = [10.0, 10.4, 9.8, 10.1, 11.0, 9.9, 10.2, 10.3, 9.7, 10.6]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# --- correctness accounting ------------------------------------------------


def test_failed_frac_counts_a_corrupted_digest_and_a_raised_exception(tmp_path):
    with open(harness.DIGESTS, encoding="utf-8") as fh:
        refs = dict(json.load(fh)["workloads"]["interp_sweep"])
    refs["1"] = {"sha256": "0" * 64}  # corrupted
    items = ["∅", "1", "not-a-partition"]  # the last raises inside the child
    rep = harness.run_repetition("interp_sweep", items, refs, tmp_path, harness.now_ns() + 60 * 10**9)
    assert rep.attempted == 3
    assert len(rep.failures) == 2
    assert rep.failures[0].startswith("1: digest differs")
    assert rep.failures[1].startswith("not-a-partition: ValueError")


def test_a_child_that_dies_fails_every_item_it_held():
    child = harness.Child(0, 1, None, "child exited 1: boom")
    rep = harness.Repetition()
    harness._record(rep, ["a", "b"], {"a": {"sha256": "x"}, "b": {"sha256": "y"}}, child)
    assert rep.attempted == 2
    assert len(rep.failures) == 2


def test_child_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("SUPERBC_CACHE", "/elsewhere")
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = harness.child_env()
    for name in ("SUPERBC_CACHE", "PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE"):
        assert name not in env
    assert env["PYTHONPATH"].split(":")[0] == str(harness.SRC)
    assert harness.child_env(tmp_path / "c.json")["SUPERBC_CACHE"] == str(tmp_path / "c.json")


def test_cli_exit_code_is_part_of_the_reference():
    result = {"error": None, "sha256": "abc", "exit": 0, "stdout_bytes": 3}
    assert harness.check_item("x", result, {"sha256": "abc", "exit": 0}, None) is None
    assert "exit code" in harness.check_item("x", result, {"sha256": "abc", "exit": 3}, None)
    assert harness.check_item("x", result, None, None) == "no reference digest"


# --- wrappers --------------------------------------------------------------


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        yield tracer, inst
    finally:
        inst.uninstall()


def test_every_binding_of_a_wrapped_name_is_the_wrapper(installed):
    import superbc
    import superbc.cli
    import superbc.interpbc
    import superbc.symmfunc
    from superbc.exactalg import SparsePoly

    tracer, inst = installed
    assert inst.unwrapped_bindings() == []
    solve = inst.wrappers[tracing.SOLVE]
    for module in (superbc, superbc.exactalg, superbc.interpbc, superbc.symmfunc):
        assert module.solve_exact is solve
    super_jack = inst.wrappers["superpoly.super_jack:super_jack"]
    for module in (superbc, superbc.superpoly, superbc.interpbc, superbc.cli):
        assert module.super_jack is super_jack
    assert superbc.cli.load_jack_cache is inst.wrappers["cli.cache_load:load_jack_cache"]
    assert SparsePoly.__dict__["evaluate"] is inst.wrappers["exactalg.evaluate:SparsePoly.evaluate"]
    assert SparsePoly.__dict__["__rmul__"] is inst.wrappers["exactalg.polymul:SparsePoly.__rmul__"]


def test_uninstall_restores_the_originals():
    import superbc.interpbc

    original = superbc.interpbc.solve_exact
    inst = tracing.install(tracing.Tracer())
    assert superbc.interpbc.solve_exact is not original
    inst.uninstall()
    assert superbc.interpbc.solve_exact is original
    assert set(inst.unwrapped_bindings()) >= {"superbc.interpbc.solve_exact"}


def test_a_missing_target_fails_loudly_and_leaves_nothing_wrapped(monkeypatch):
    import superbc.interpbc

    original = superbc.interpbc.solve_exact
    bogus = ("exactalg.solve:gone", "superbc.exactalg", "no_such_function", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (bogus,))
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.install(tracing.Tracer())
    assert superbc.interpbc.solve_exact is original


def test_traced_calls_reach_every_layer_of_a_small_J(installed):
    from superbc.interpbc import paper_or_top
    from superbc.partitions import HookParams, Partition

    tracer, inst = installed
    inst.cached["interpbc.interpolation_J"].cache_clear()
    paper_or_top(Partition.of(2), HookParams(1, 1))
    raw = tracer.summary()
    raw["counts"].update(tracing.cache_counts(inst))
    metrics = tracing.layer_metrics(tracing.merge([raw]), 0, 0, 1.0)
    for name in ("exactalg.evaluate.calls", "exactalg.solve.calls", "interpbc.interpolation_J.calls",
                 "superpoly.super_jack.calls", "partitions.enumerate_hooks.calls"):
        assert metrics[name][0] > 0, name
    assert metrics["interpbc.solves_per_J"][0] >= 1
    inst.cached["interpbc.interpolation_J"].cache_clear()


# --- the benchmark's interface ---------------------------------------------


def test_benchmark_json_names_match_what_the_harness_reports():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    layers = tracing.layer_metrics(tracing.merge([]), 0, 0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layers.items()]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_sweep_order_is_fixed_and_session_draw_is_seeded():
    with open(harness.DIGESTS, encoding="utf-8") as fh:
        refs = json.load(fh)["workloads"]
    for workload in ("interp_sweep", "jack_generic"):
        ids = sorted(refs[workload])
        a = workloads.repetition_items(workload, ids, 1)
        assert a == workloads.repetition_items(workload, ids, 2)
        assert sorted(a) == ids
        assert a == sorted(ids, key=lambda item: (workloads._size(item), item))
    ids = sorted(refs["cli_session"])
    drawn = workloads.repetition_items("cli_session", ids, 1)
    assert drawn != workloads.repetition_items("cli_session", ids, 2)
    subs = {item.split(" ", 1)[0] for item in ids}
    assert len(drawn) == len(subs) * workloads.SESSION_PER_SUBCOMMAND
    for sub in subs:
        assert sum(item.startswith(sub + " ") for item in drawn) == workloads.SESSION_PER_SUBCOMMAND
    assert set(drawn) <= set(ids)
    assert any(item.startswith(workloads.SESSION_LONGEST + " --format ") for item in drawn)


def test_cli_item_time_leaves_out_the_benchmarks_own_work():
    report = {"imported_ns": 150, "items": [{"t0": 400, "t1": 1400}]}
    assert harness._cli_item_ns(harness.Child(100, 2000, report, None)) == 50 + 1000
    assert harness._cli_item_ns(harness.Child(100, 2000, None, "child exited 1")) == 1900
