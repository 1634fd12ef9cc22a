"""Tests of the benchmark harness itself (not tier-1).

    python -m pytest benchmarks/perf -q

The last test makes a real ``--smoke`` run (two processes, ~40 s).
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import pytest

from benchmarks.perf import calibrate, report, run, trace
from benchmarks.perf.workloads import (
    WORKLOADS,
    UpdateStream,
    Workload,
    build_scenario,
    ping_pong_index,
    traffic_plan,
)

SMALL = Workload(name="small", why="test", query_count=6, tick_rate=50,
                 amp=2.0, period=21)


@pytest.fixture(scope="module")
def small_scenario():
    return build_scenario(SMALL)


# -- the update stream ---------------------------------------------------------

def test_ping_pong_sweeps_forward_then_back():
    assert [ping_pong_index(k, 4) for k in range(8)] == [0, 1, 2, 3, 2, 1, 0, 1]


def test_ping_pong_is_stationary_over_whole_sweeps():
    period, sweep = 21, 40
    reference = Counter(ping_pong_index(k, period) for k in range(sweep))
    for start in (1, 7, 19, 20, 39, 123):
        window = Counter(ping_pong_index(start + k, period)
                         for k in range(sweep))
        assert window == reference


def test_stream_is_deterministic_per_seed(small_scenario):
    scenario, item_to_source = small_scenario
    names = [query.name for query in scenario.queries]
    plans = [traffic_plan(SMALL, names, seed) for seed in (3, 3, 4)]
    assert plans[0] == plans[1]
    assert plans[0] != plans[2]
    first, again = (UpdateStream(SMALL, scenario, item_to_source, plan.phase)
                    for plan in plans[:2])
    assert ([first.updates(k) for k in range(100)]
            == [again.updates(k) for k in range(100)])


def test_stream_value_distribution_does_not_depend_on_the_phase(small_scenario):
    scenario, item_to_source = small_scenario
    sweep = SMALL.cycle_ticks

    def one_sweep(phase, start):
        stream = UpdateStream(SMALL, scenario, item_to_source, phase)
        return Counter(round(value, 9) for k in range(start, start + sweep)
                       for value in stream.values(k).values())

    reference = one_sweep(0, 0)
    assert one_sweep(13, 0) == reference
    assert one_sweep(13, 5 * sweep + 3) == reference
    # ... and it starts from the deployment's own initial values.
    initial = scenario.traces.initial_values()
    at_rest = UpdateStream(SMALL, scenario, item_to_source, 0).values(0)
    assert at_rest == {name: initial[name] for name in at_rest}


def test_every_query_has_two_watchers(small_scenario):
    scenario, _ = small_scenario
    names = [query.name for query in scenario.queries]
    plan = traffic_plan(SMALL, names, seed=0)
    watchers = Counter(name for slice_ in plan.subscriptions
                       for name in slice_)
    assert set(watchers) == set(names)
    assert set(watchers.values()) == {2}


def test_no_builder_call_passes_a_mode_flag():
    banned = {"vectorize", "recompute_mode", "bank_index",
              "notify_queue_limit"}
    for workload in WORKLOADS.values():
        assert not banned & set(workload.shape())


# -- percentiles and self time ---------------------------------------------------

def test_percentile_interpolates_and_gates_on_sample_count():
    samples = [float(i) for i in range(1, 201)]            # 1..200
    assert report.percentile(samples, 50.0) == pytest.approx(100.5)
    assert report.percentile(samples, 95.0) == pytest.approx(190.05)
    assert report.percentile(samples, 99.0) is None        # 2 samples beyond
    assert report.percentile(samples[:4], 50.0) is None    # too few for a median
    assert report.tail(samples) == (95.0, pytest.approx(190.05))
    assert report.tail(samples[:30]) == (None, None)
    assert report.format_value(None, 24) == "n/a (n=24)"


def test_window_percentile_is_the_median_window_and_merges_thin_ones():
    quiet, stalled = [0.002] * 300, [0.002] * 200 + [0.5] * 100
    assert report.window_percentile([quiet, stalled, quiet], 95.0) == 0.002
    # 120 samples cannot carry a p95 (10 beyond it need 200): neighbours merge.
    assert report.window_percentile([[1.0] * 120, [3.0] * 120], 95.0) == 3.0
    assert report.window_percentile([[1.0] * 3], 50.0) is None


def test_calibration_slowdown_and_own_time():
    reference = calibrate.REFERENCE_SECONDS
    samples = [(0.0, reference), (1.0, 3.0 * reference)]
    assert calibrate.slowdown(samples) == pytest.approx(2.0)
    assert calibrate.own_seconds(samples) == pytest.approx(4.0 * reference)
    with pytest.raises(ValueError):
        calibrate.slowdown([])
    started, seconds = calibrate.unit()
    assert 0.0 < seconds < 1.0
    # A phase's CPU reading is net of the calibration that ran inside it.
    phase = {"before": {"cpu": 1.0},
             "after": {"cpu": 2.0, "calibration": samples}}
    assert report.server_cpu_seconds(phase) == pytest.approx(
        1.0 - 4.0 * reference)


def test_self_time_is_busy_minus_direct_children():
    #   0 outer [0, 10)        1 inner [1, 4) child of 0
    #   2 leaf  [2, 3) child of 1   3 inner [5, 9) child of 0
    columns = {
        "strings": ["outer", "inner", "leaf"],
        "name": [0, 1, 2, 1],
        "start": [0.0, 1.0, 2.0, 5.0],
        "busy": [10.0, 3.0, 1.0, 4.0],
        "parent": [-1, 0, 1, 0],
    }
    assert trace.self_times(columns) == [3.0, 2.0, 1.0, 4.0]
    totals = trace.totals(columns)
    assert totals["inner"] == {"count": 2, "busy": 7.0, "self": 6.0}
    assert sum(entry["self"] for entry in totals.values()) == 10.0
    assert trace.totals(columns, since=4.0)["inner"]["count"] == 1


def test_recorder_nests_spans_and_inherits_request_ids():
    recorder = trace.Recorder()

    def leaf(value):
        return value

    def outer(message):
        return timed_leaf(1) + timed_leaf(2)

    timed_leaf = trace._wrap_sync(leaf, "leaf", recorder, None)
    timed_outer = trace._wrap_sync(
        outer, "outer", recorder,
        lambda args, kwargs, result: ("x7", 42, "refresh", result))
    assert timed_outer({}) == 3
    columns = recorder.export()
    assert trace.span_names(columns) == ["outer", "leaf", "leaf"]
    assert columns["parent"] == [-1, 0, 0]
    assert columns["count"][0] == 3
    item = columns["strings"].index("x7")
    assert columns["item"] == [item] * 3 and columns["seq"] == [42] * 3
    assert all(own >= 0.0 for own in trace.self_times(columns))


def test_a_suspended_coroutine_is_not_the_parent_of_what_runs_meanwhile():
    recorder = trace.Recorder()

    async def slow():
        await asyncio.sleep(0.01)
        return "done"

    def quick():
        return None

    timed_slow = trace._wrap_async(slow, "slow", recorder, None)
    timed_quick = trace._wrap_sync(quick, "quick", recorder, None)

    async def scenario():
        task = asyncio.ensure_future(timed_slow())
        await asyncio.sleep(0)          # slow is now suspended in its sleep
        timed_quick()
        return await task

    assert asyncio.run(scenario()) == "done"
    columns = recorder.export()
    assert trace.span_names(columns) == ["slow", "quick"]
    assert columns["parent"] == [-1, -1]
    elapsed = columns["end"][0] - columns["start"][0]
    assert elapsed >= 0.009 and columns["busy"][0] < elapsed / 2


# -- installing and removing the wrappers ------------------------------------------

def test_install_then_uninstall_leaves_every_attribute_identical():
    import repro.service.cluster.router      # noqa: F401  (from-import bindings)
    import repro.service.server              # noqa: F401

    class Planner:
        def plan(self, query, values):
            return "plan"

    planner = Planner()
    targets = trace.patch_targets([planner])
    assert len(targets) > len(trace.SPAN_TABLE)     # from-import bindings too
    before = [vars(owner).get(name, "absent") for owner, name in targets]
    recorder = trace.Recorder()
    undo = trace.install(recorder, [planner])
    during = [vars(owner).get(name, "absent") for owner, name in targets]
    assert all(old is not new for old, new in zip(before, during))
    assert planner.plan("q", {}) == "plan"
    assert recorder.strings[recorder.name[0]] == trace.PLANNER_SPAN
    trace.uninstall(undo)
    after = [vars(owner).get(name, "absent") for owner, name in targets]
    assert all(old is new for old, new in zip(before, after))
    assert "plan" not in vars(planner)


# -- the manifest --------------------------------------------------------------------

def test_benchmark_json_names_what_the_code_reports():
    manifest = json.loads(
        (run.HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in report.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in report.PER_LAYER]
    assert all(m.bound <= 0.25 for m in report.END_TO_END)
    assert report.END_TO_END[0].name == "setup_s"


# -- the whole thing ---------------------------------------------------------------

def test_smoke_run_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "smoke.json"
    assert run.main(["--smoke", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [record["workload"] for record in runs] == list(run.SMOKE_WORKLOADS)
    for record in runs:
        assert record["correct"]
        for metric in report.END_TO_END:
            value = record["metrics"][metric.name]["value"]
            assert value is not None and value > 0, metric.name
        # failed_share has a real denominator behind it.
        assert record["attempted"] > 1000
        assert record["failed_share"] == record["failed"] / record["attempted"]
