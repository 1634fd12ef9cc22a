"""Hot-path throughput of the simulator's event loop.

Runs a fig-6-scale workload (the paper sweeps query count at fixed
item/trace scale, §7.2) and reports event-loop throughput
(``duration_ticks / loop_seconds``; the setup-time GP solves of
``initial_plan`` are excluded).

Results land in ``benchmarks/results/BENCH_hotpath.json``.  The committed
copy is the regression baseline: CI re-runs the reduced ``smoke`` entry
(``REPRO_BENCH_HOTPATH=smoke``) and fails when throughput falls below the
committed figure by more than ``MACHINE_MARGIN``.  Everything else is
gated on *counts*, which repeat exactly, not on time: the run's metric
counts must equal the committed ones (first recorded when the loop was
proved equal to the scalar reference, DESIGN.md §8), and the share of
refreshes the coordinator's per-item safe band answered.

Two more sections time the planner, not the loop: ``recompute_latency``
(a window breach: the Newton-KKT patch next to the multi-start solve at the
same breach points) and ``cold_plan`` (a query's first plan: the patch from
the linear anchor next to the multi-start solve on the same bank).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.dynamics.estimation import estimate_rates
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.cost_model import CostModel
from repro.filters.delta_recompute import find_planner_stats
from repro.filters.dual_dab import DualDABPlanner
from repro.simulation import SimulationConfig, run_simulation
from repro.queries.deviation import primary_variable
from repro.simulation.harness import build_planner
from repro.workloads import scaled_scenario

RESULT_NAME = "BENCH_hotpath.json"

#: Repetitions per point; the minimum loop time is reported so a
#: background scheduling hiccup cannot masquerade as a regression.
REPEATS = 3

#: How far below the committed ``ticks_per_sec`` a reading may fall before
#: it counts as a regression — a shared CI machine against the one the
#: baseline was recorded on (same margin as ``test_bench_bankscale.py``).
MACHINE_MARGIN = 3.0

POINTS = {
    "smoke": dict(query_count=40, item_count=40, trace_length=201),
    "fig6": dict(query_count=300, item_count=40, trace_length=401),
}

#: Points for the recompute-latency section.  Per-breach solve latency is
#: independent of the query count (each breach re-solves one query's GP),
#: so the fig6 entry keeps the paper's item/trace scale but trims the
#: query sweep — timing the multi-start reference at every breach point
#: would otherwise take many minutes.
RECOMPUTE_POINTS = {
    "smoke": dict(query_count=10, item_count=30, trace_length=151),
    "fig6": dict(query_count=40, item_count=40, trace_length=401),
}

#: 10x the default GBM volatility: secondary-DAB windows actually break.
#: At the default 0.002 a whole run produces near-zero recomputes and the
#: latency percentiles would be noise.
BREACH_VOLATILITY = 0.02

#: ``REPRO_BENCH_HOTPATH=smoke`` (the CI job) measures only the reduced
#: point and leaves the committed ``fig6`` entry untouched.
MODE = os.environ.get("REPRO_BENCH_HOTPATH", "full")
NAMES = ("smoke",) if MODE == "smoke" else ("smoke", "fig6")


def _measure(params):
    scenario = scaled_scenario(source_count=8, seed=13, **params)
    config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                              recompute_cost=2.0, source_count=8, seed=13,
                              fidelity_interval=1)
    runs = [run_simulation(config) for _ in range(REPEATS)]
    loop_seconds = min(run.loop_seconds for run in runs)
    result = runs[0]
    ticks = result.metrics.duration_ticks
    screened = result.window_screen_hits + result.window_screen_misses
    return {
        "window_screen_hits": result.window_screen_hits,
        "window_screen_misses": result.window_screen_misses,
        "window_screen_hit_rate": result.window_screen_hits / screened,
        "params": dict(params),
        "ticks": ticks,
        "loop_seconds": loop_seconds,
        "ticks_per_sec": ticks / loop_seconds,
        "solves_per_sec": result.metrics.gp_solves / result.wall_seconds,
        "metrics": _scalar_metrics(result.metrics),
    }


def _scalar_metrics(metrics):
    """Every scalar field of the metrics dataclass (the two per-query maps
    are breakdowns of ``recomputations`` and the fidelity loss)."""
    return {name: value for name, value in dataclasses.asdict(metrics).items()
            if not isinstance(value, dict)}


def _percentiles_ms(seconds):
    arr = np.asarray(seconds) * 1000.0
    summary = {"samples": len(seconds)}
    for label, q in (("p50", 50), ("p95", 95), ("p99", 99)):
        summary[f"{label}_ms"] = round(float(np.percentile(arr, q)), 4)
    summary["mean_ms"] = round(float(arr.mean()), 4)
    return summary


def _solve_chain(cost_model):
    """A ``plan(query, values, recompute_scale=1.0)`` that answers every
    plan, its μ·R row priced at ``recompute_scale`` times μ, with the
    multi-start solve of the query's compiled template (built on its first
    plan), warm-started from that query's previous optimum, plus the
    widening solve — the dual-DAB planner's last rung, as a
    solve-every-plan coordinator would run it.  A test-side oracle:
    nothing in ``src/`` can route a plan this way."""
    templates, warm = {}, {}

    def plan(query, values, recompute_scale=1.0):
        template = templates.get(query.name)
        if template is None:
            template = templates[query.name] = CompiledDualDabTemplate(
                query, values, cost_model)
        solution = template.solve(values, initial=warm.get(query.name),
                                  recompute_scale=recompute_scale)
        warm[query.name] = solution.values
        primary = {name: solution.values[primary_variable(name)]
                   for name in query.variables}
        return template.widen(values, primary, initial=solution.values)

    return plan


def _time_reference(cost_model, plan_calls):
    """The multi-start solve at the run's own breach points.

    Replays every ``plan`` call the run's planner saw, in order and at
    the price it was made at, through :func:`_solve_chain` on the run's
    cost model — cold solves included, so each breach solve starts warm
    from that query's previous optimum exactly as a solve-every-breach
    coordinator's would — and returns the latencies of the breach solves
    only.
    """
    reference = _solve_chain(cost_model)
    planned, seconds = set(), []
    for query, values, recompute_scale in plan_calls:
        started = time.perf_counter()
        reference(query, values, recompute_scale)
        elapsed = time.perf_counter() - started
        if query.name in planned:
            seconds.append(elapsed)
        planned.add(query.name)
    return seconds


def _measure_recompute(params):
    """Breach-resolution latency of the Newton-KKT patch, next to the
    multi-start solve it replaces.

    One run; the percentiles come from the hundreds of within-run breach
    samples, so repetition buys nothing.  The run's metric counts are
    recorded to be compared with the committed ones — first recorded from
    the run that answered every breach with the full solve, so the bench
    doubles as an end-to-end equivalence check at benchmark scale.
    """
    scenario = scaled_scenario(source_count=8, seed=13,
                               volatility=BREACH_VOLATILITY, **params)
    config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                              recompute_cost=5.0, source_count=8, seed=13,
                              fidelity_interval=1)
    planners, plan_calls = set(), []
    plan = DualDABPlanner.plan

    def recording_plan(self, query, values, recompute_scale=1.0):
        planners.add(self)
        plan_calls.append((query, dict(values), recompute_scale))
        return plan(self, query, values, recompute_scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DualDABPlanner, "plan", recording_plan)
        result = run_simulation(config)
    latency = result.recompute_latency
    (planner,) = planners           # one coordinator, one planner stack
    reference = _percentiles_ms(
        _time_reference(planner.cost_model, plan_calls))
    entry = {
        "params": dict(params),
        "volatility": BREACH_VOLATILITY,
        "breaches": result.metrics.recomputations,
        "patch": latency,
        "reference": reference,
        "patch_hit_rate": latency["patch_hit_rate"],
        "fallbacks": latency["fallbacks"],
        "metrics": _scalar_metrics(result.metrics),
    }
    for q in ("p50", "p95", "p99"):
        entry[f"{q}_speedup"] = round(
            reference[f"{q}_ms"] / latency[f"{q}_ms"], 2)
    return entry


def _measure_cold(params):
    """First-plan latency of the point's whole bank through the planner
    stack that ships, next to the same plans through :func:`_solve_chain`
    — the multi-start solve that answered every first plan before the
    linear-anchor rung, and is still its fallback.  ``accepted_share`` is
    the share of first plans the rung answered."""
    scenario = scaled_scenario(source_count=8, seed=13, **params)
    config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                              recompute_cost=2.0, source_count=8, seed=13)
    items = config.used_items
    cost_model = CostModel(
        ddm=config.ddm, recompute_cost=config.recompute_cost,
        rates=estimate_rates(config.traces, config.rate_estimator, items))
    values = config.traces.initial_values(items)

    def first_plans(plan):
        seconds = []
        for query in config.queries:
            started = time.perf_counter()
            plan(query, values)
            seconds.append(time.perf_counter() - started)
        return seconds

    first_plans(_solve_chain(cost_model))   # warm the interpreter and numpy
    shipped = build_planner(config, cost_model)
    cold = _percentiles_ms(first_plans(shipped.plan))
    reference = _percentiles_ms(first_plans(_solve_chain(cost_model)))
    stats = find_planner_stats(shipped)
    return {
        "params": dict(params),
        "plans": stats.cold_solves,
        "accepted_share": round(stats.reanchors / stats.cold_solves, 4),
        "multistart_solves": stats.multistart_solves,
        "newton_iterations_per_plan": round(
            stats.patch_newton_iterations / max(stats.reanchors, 1), 2),
        "max_residual": stats.max_residual,
        "cold": cold,
        "reference": reference,
        "p50_speedup": round(reference["p50_ms"] / cold["p50_ms"], 2),
    }


@pytest.fixture(scope="module")
def hotpath(results_dir):
    """Measured entries plus the committed baseline (read before writing)."""
    path = results_dir / RESULT_NAME
    baseline = json.loads(path.read_text()) if path.exists() else {}
    entries = {name: _measure(POINTS[name]) for name in NAMES}
    committed = baseline.get("recompute_latency", {})
    recompute = {}
    for name in NAMES:
        entry = recompute[name] = _measure_recompute(RECOMPUTE_POINTS[name])
        entry["metrics_identical"] = (
            entry["metrics"] == committed.get(name, {}).get("metrics"))
    cold = {name: _measure_cold(POINTS[name]) for name in NAMES}
    merged = dict(baseline)
    merged.update(entries)
    merged["recompute_latency"] = dict(
        baseline.get("recompute_latency", {}), **recompute)
    merged["cold_plan"] = dict(baseline.get("cold_plan", {}), **cold)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return {"entries": entries, "recompute": recompute, "cold": cold,
            "baseline": baseline}


def test_hotpath_metrics_identical(benchmark, hotpath):
    """The loop replays the committed run count for count."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, entry in hotpath["entries"].items():
        committed = hotpath["baseline"].get(name, {}).get("metrics")
        if committed is None:
            pytest.skip("no committed baseline yet")
        assert entry["metrics"] == committed, name


def test_window_screen_hit_rate(benchmark, hotpath):
    """The quiet path is the common path: at least 95 % of refreshes are
    answered by the per-item safe band (DESIGN.md §8.5) without a
    per-query window check."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, entry in hotpath["entries"].items():
        assert entry["window_screen_hit_rate"] >= 0.95, (name, entry)


def test_recompute_latency_acceptance(benchmark, hotpath):
    """What the section is for: >=70% of breaches resolve via patch, every
    breach is a patch or a fallback, the run's metric counts equal the
    committed ones, a patch is never slower than the multi-start solve it
    replaces, and the patch itself has not regressed (median within 2x of
    the committed one).  The reference/patch *ratio* is recorded but not
    gated: both paths share one kernel, so making the full solve faster
    lowers the ratio without anything having got worse."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    committed = hotpath["baseline"].get("recompute_latency", {})
    for name, entry in hotpath["recompute"].items():
        patch, reference = entry["patch"], entry["reference"]
        assert entry["breaches"] > 0, name
        assert patch["patches"] + patch["fallbacks"] == entry["breaches"], name
        assert reference["samples"] == entry["breaches"], name
        assert entry["patch_hit_rate"] >= 0.7, name
        assert patch["p50_ms"] <= reference["p50_ms"], name
        assert patch["p95_ms"] <= reference["p95_ms"], name
        if "metrics" in committed.get(name, {}):
            assert entry["metrics_identical"], name
            assert patch["p50_ms"] <= 2.0 * committed[name]["patch"]["p50_ms"], (
                f"{name}: patch p50 {patch['p50_ms']:.2f} ms vs committed "
                f"{committed[name]['patch']['p50_ms']:.2f} ms")


def test_cold_plan_acceptance(benchmark, hotpath):
    """A first plan is a Newton-KKT patch from the linear anchor: the rung
    answers at least 95 % of the bank's first plans (a count), and their
    median is at most half the multi-start solve's, timed on the same
    plans in the same process."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, entry in hotpath["cold"].items():
        assert entry["plans"] == POINTS[name]["query_count"], name
        assert entry["accepted_share"] >= 0.95, (name, entry)
        assert entry["max_residual"] <= 1e-6, (name, entry)
        assert entry["cold"]["p50_ms"] <= 0.5 * entry["reference"]["p50_ms"], (
            name, entry)


def test_hotpath_no_regression_vs_committed(benchmark, hotpath):
    """CI gate, on absolutes: at every measured point, throughput may not
    fall below the committed figure by more than ``MACHINE_MARGIN``."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, entry in hotpath["entries"].items():
        committed = hotpath["baseline"].get(name, {}).get("ticks_per_sec")
        if committed is None:
            pytest.skip("no committed baseline yet")
        measured = entry["ticks_per_sec"]
        assert measured >= committed / MACHINE_MARGIN, (
            f"{name} throughput regressed: measured {measured:.0f} ticks/s "
            f"vs committed {committed:.0f}")
