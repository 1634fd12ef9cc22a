"""Hot-path throughput: vectorized event loop vs the scalar reference.

Runs the same fig-6-scale workload (the paper sweeps query count at fixed
item/trace scale, §7.2) twice — ``vectorize=True`` (the default) and the
``--no-vectorize`` scalar reference — and reports event-loop throughput
(``duration_ticks / loop_seconds``; the setup-time GP solves of
``initial_plan`` are identical in both paths and excluded).  The two runs
must produce identical ``SimulationMetrics``: the vectorized path is a
bitwise-equal reimplementation, not an approximation (DESIGN.md §8).

Results land in ``benchmarks/results/BENCH_hotpath.json``.  The committed
copy is the regression baseline: CI re-runs the reduced ``smoke`` entry
(``REPRO_BENCH_HOTPATH=smoke``) and fails when the measured speedup drops
below half the committed one.  The window-check screen is gated on
*counts*, which repeat exactly, not on time: metric identity, and the
share of refreshes the coordinator's per-item safe band answered.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.simulation import SimulationConfig, run_simulation
from repro.workloads import scaled_scenario

RESULT_NAME = "BENCH_hotpath.json"

#: Repetitions per (point, path); the minimum loop time is reported so a
#: background scheduling hiccup cannot masquerade as a regression.
REPEATS = 3

POINTS = {
    "smoke": dict(query_count=40, item_count=40, trace_length=201),
    "fig6": dict(query_count=300, item_count=40, trace_length=401),
}

#: Points for the recompute-latency section (ISSUE 7).  Per-breach solve
#: latency is independent of the query count (each breach re-solves one
#: query's GP), so the fig6 entry keeps the paper's item/trace scale but
#: trims the query sweep — the full-mode reference would otherwise spend
#: many minutes on thousands of 50 ms multi-start solves.
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
    base = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                            recompute_cost=2.0, source_count=8, seed=13,
                            fidelity_interval=1)
    loops = {}
    results = {}
    for vectorize in (True, False):
        config = replace(base, vectorize=vectorize)
        runs = [run_simulation(config) for _ in range(REPEATS)]
        loops[vectorize] = min(run.loop_seconds for run in runs)
        results[vectorize] = runs[0]
    ticks = results[True].metrics.duration_ticks
    vector = results[True]
    screened = vector.window_screen_hits + vector.window_screen_misses
    return {
        "window_screen_hits": vector.window_screen_hits,
        "window_screen_misses": vector.window_screen_misses,
        "window_screen_hit_rate": vector.window_screen_hits / screened,
        "params": dict(params),
        "ticks": ticks,
        "loop_seconds_vectorized": loops[True],
        "loop_seconds_scalar": loops[False],
        "ticks_per_sec_vectorized": ticks / loops[True],
        "ticks_per_sec_scalar": ticks / loops[False],
        "speedup": loops[False] / loops[True],
        "gp_solves": vector.metrics.gp_solves,
        "solves_per_sec": vector.metrics.gp_solves / vector.wall_seconds,
        "metrics_identical": results[True].metrics == results[False].metrics,
    }


def _measure_recompute(params):
    """Breach-resolution latency, full multi-start solve vs delta patch.

    One run per mode; the percentiles come from the hundreds of
    within-run breach samples, so repetition buys nothing.  The two runs
    must agree on every simulation-visible metric (the delta counters are
    the only permitted difference) — the bench doubles as an end-to-end
    equivalence check at benchmark scale.
    """
    scenario = scaled_scenario(source_count=8, seed=13,
                               volatility=BREACH_VOLATILITY, **params)
    base = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                            recompute_cost=5.0, source_count=8, seed=13,
                            fidelity_interval=1)
    entry = {"params": dict(params), "volatility": BREACH_VOLATILITY}
    metrics = {}
    for mode in ("full", "delta"):
        result = run_simulation(replace(base, recompute_mode=mode))
        entry[mode] = result.recompute_latency
        metrics[mode] = result.metrics
    entry["breaches"] = metrics["full"].recomputations
    entry["patch_hit_rate"] = entry["delta"]["patch_hit_rate"]
    entry["fallback_rate"] = entry["delta"]["fallback_rate"]
    for q in ("p50", "p95", "p99"):
        entry[f"{q}_speedup"] = round(
            entry["full"][f"{q}_ms"] / entry["delta"][f"{q}_ms"], 2)
    entry["metrics_identical"] = (
        replace(metrics["delta"], delta_patches=0, delta_fallbacks=0)
        == metrics["full"])
    return entry


@pytest.fixture(scope="module")
def hotpath(results_dir):
    """Measured entries plus the committed baseline (read before writing)."""
    path = results_dir / RESULT_NAME
    baseline = json.loads(path.read_text()) if path.exists() else {}
    entries = {name: _measure(POINTS[name]) for name in NAMES}
    recompute = {name: _measure_recompute(RECOMPUTE_POINTS[name])
                 for name in NAMES}
    merged = dict(baseline)
    merged.update(entries)
    merged["recompute_latency"] = dict(
        baseline.get("recompute_latency", {}), **recompute)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return {"entries": entries, "recompute": recompute, "baseline": baseline}


def test_hotpath_metrics_identical(benchmark, hotpath):
    """The vectorized loop replays the scalar run bit for bit."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, entry in hotpath["entries"].items():
        assert entry["metrics_identical"], name


def test_window_screen_hit_rate(benchmark, hotpath):
    """The quiet path is the common path: at least 95 % of refreshes are
    answered by the per-item safe band (DESIGN.md §8.5) without a
    per-query window check."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name, entry in hotpath["entries"].items():
        assert entry["window_screen_hit_rate"] >= 0.95, (name, entry)


def test_hotpath_speedup_floor(benchmark, hotpath):
    """Conservative floors — the committed JSON records the real numbers
    (≥5x on the fig6 point on the reference machine)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert hotpath["entries"]["smoke"]["speedup"] >= 1.5
    if "fig6" in hotpath["entries"]:
        assert hotpath["entries"]["fig6"]["speedup"] >= 3.0


def test_recompute_latency_acceptance(benchmark, hotpath):
    """What the section is for: >=70% of breaches resolve via patch, both
    modes agree on every simulation-visible metric, a patch is never slower
    than the full solve it replaces, and the patch itself has not regressed
    (median within 2x of the committed one).  The full/delta *ratio* is
    recorded but not gated: both paths share one kernel, so making the full
    solve faster lowers the ratio without anything having got worse."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    committed = hotpath["baseline"].get("recompute_latency", {})
    for name, entry in hotpath["recompute"].items():
        assert entry["metrics_identical"], name
        assert entry["breaches"] > 0, name
        assert entry["patch_hit_rate"] >= 0.7, name
        patch_p50 = entry["delta"]["p50_ms"]
        assert patch_p50 <= entry["full"]["p50_ms"], name
        assert entry["delta"]["p95_ms"] <= entry["full"]["p95_ms"], name
        if name in committed:
            assert patch_p50 <= 2.0 * committed[name]["delta"]["p50_ms"], (
                f"{name}: patch p50 {patch_p50:.2f} ms vs committed "
                f"{committed[name]['delta']['p50_ms']:.2f} ms")


def test_hotpath_no_regression_vs_committed(benchmark, hotpath):
    """CI gate: the measured smoke speedup must stay within 2x of the
    committed baseline."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    committed = hotpath["baseline"].get("smoke")
    if not committed:
        pytest.skip("no committed baseline yet")
    measured = hotpath["entries"]["smoke"]["speedup"]
    assert measured >= committed["speedup"] / 2.0, (
        f"smoke speedup regressed: measured {measured:.2f}x vs committed "
        f"{committed['speedup']:.2f}x"
    )
