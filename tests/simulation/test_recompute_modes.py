"""End-to-end recompute contract: every breach is patched first, and what
the run serves is what the full solve served.

On a pinned breach-heavy workload (10x GBM volatility so secondary windows
actually break — default traces produce almost no recomputes):

1. **Golden identity** — the golden tuple below and the ``recompute-full``
   record in ``golden_reference_metrics.json`` were first captured while
   every breach was answered by the full multi-start solve, and the
   patch-first run reproduced them on every simulation-visible metric (an
   accepted patch is the optimum the full solve would have produced).
   Both were re-recorded once plans were made at the values the
   coordinator holds, with no plan cache in front of the planner, again
   once λ became the per-update whole-trace mean, and again once the
   coordinator priced a query's μ·R row at μ/2 until its window is first
   left (DESIGN.md §4; recomputations 48 → 56, refreshes 2 447 → 2 446).
   Only the two patch/fallback counters may differ.
2. **Accounting** — every breach recompute is either a patch or a
   full-solve fallback, the clear majority patch, and every accepted
   patch held the KKT residual to 10x the tolerance.
3. **Stats plane** — the counters and the ``recompute_latency``
   percentile summary surface through ``SimulationResult``; stacks that
   solve no GP have no patch layer and report none.
"""

import dataclasses

import pytest

from repro.simulation import SimulationConfig, run_simulation
from repro.workloads import scaled_scenario
from tests.golden import (
    HOW_FIELDS,
    assert_matches_reference,
    reference_metrics,
)

# (refreshes, recomputations, fidelity_loss_percent, dab_change_messages,
#  user_notifications, gp_solves) at seed 13, fidelity_interval 2,
# volatility 0.02.
GOLDEN_FULL = (2446, 56, 0.0, 145, 962, 0)

#: ``newton_patch``'s default KKT tolerance, which every planner runs with.
KKT_TOL = 1e-7


def _config(**overrides):
    scenario = scaled_scenario(query_count=6, item_count=20, trace_length=151,
                               source_count=4, seed=13, volatility=0.02)
    return SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                            recompute_cost=5.0, source_count=4, seed=13,
                            fidelity_interval=2, **overrides)


@pytest.fixture(scope="module")
def result():
    return run_simulation(_config())


class TestGoldenIdentity:
    def test_full_mode_matches_golden(self, result):
        m = result.metrics
        got = (m.refreshes, m.recomputations, m.fidelity_loss_percent,
               m.dab_change_messages, m.user_notifications, m.gp_solves)
        assert got == GOLDEN_FULL

    def test_full_mode_equals_scalar_reference(self, result):
        """Patching may not perturb a single served metric relative to
        the recorded full-solve reference run."""
        assert_matches_reference(result.metrics, "recompute-full")


class TestModeEquivalence:
    def test_delta_differs_only_in_delta_counters(self, result):
        want = reference_metrics("recompute-full")
        differing = {
            field.name for field in dataclasses.fields(want)
            if getattr(result.metrics, field.name) != getattr(want, field.name)}
        assert differing <= set(HOW_FIELDS)

    def test_breaches_partition_into_patches_and_fallbacks(self, result):
        m = result.metrics
        assert m.delta_patches + m.delta_fallbacks == m.recomputations
        # The clear majority of breaches patch.
        assert m.delta_patches / m.recomputations >= 0.7

    def test_accepted_patches_hold_the_kkt_residual(self, result):
        latency = result.recompute_latency
        assert latency["patches"] > 0
        assert 0.0 <= latency["max_residual"] <= 10.0 * KKT_TOL


class TestStatsPlane:
    def test_delta_latency_section(self, result):
        latency = result.recompute_latency
        assert latency["patches"] == result.metrics.delta_patches
        assert latency["fallbacks"] == result.metrics.delta_fallbacks
        assert latency["samples"] == latency["patches"] + latency["fallbacks"]
        assert latency["cold_solves"] == len(_config().queries)
        assert latency["patch_hit_rate"] == pytest.approx(
            latency["patches"] / latency["samples"], abs=1e-4)
        assert 0.0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        """No selector and no shim: the deleted option is not accepted."""
        for mode in ("full", "delta"):
            with pytest.raises(TypeError, match="recompute_mode"):
                _config(recompute_mode=mode)

    def test_patch_layer_requires_a_gp_stack(self):
        """Only the planner stacks that solve a GP carry a patch ladder;
        the closed-form baselines run exactly as before and report no
        recompute section."""
        scenario = scaled_scenario(query_count=2, item_count=16,
                                   trace_length=41, source_count=2, seed=1)
        for algorithm, patch_layer in (("sharfman_baseline", False),
                                       ("optimal_refresh", True),
                                       ("half_and_half", True)):
            result = run_simulation(SimulationConfig(
                queries=scenario.queries, traces=scenario.traces,
                source_count=2, seed=1, algorithm=algorithm))
            assert (result.recompute_latency is not None) == patch_layer
            if not patch_layer:
                assert result.metrics.delta_patches == 0
                assert result.metrics.delta_fallbacks == 0
