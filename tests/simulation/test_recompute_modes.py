"""End-to-end recompute-mode contract (ISSUE 7 satellite).

Three guarantees, on a pinned breach-heavy workload (10x GBM volatility so
secondary windows actually break — default traces produce almost no
recomputes):

1. **Golden bit-identity** — ``recompute_mode="full"`` (the default) runs
   the exact pre-delta solve path: the golden metrics tuple below was
   captured on this config with the delta wrapper in pass-through mode and
   must never drift; the full-mode run must also equal the recorded
   scalar reference run (``tests/golden.py``) field for field.
2. **Observable equivalence** — a delta-mode run differs from the full-mode
   run *only* in the delta counters: every simulation-visible metric
   (refreshes, recomputations, fidelity, messages, notifications) is
   identical, because an accepted patch is the same optimum the full solve
   would have produced.
3. **Stats plane** — the patch/fallback/residual counters and the
   ``recompute_latency`` percentile summary surface through
   ``SimulationResult`` in both modes.
"""

import dataclasses

import pytest

from repro.exceptions import SimulationError
from repro.simulation import SimulationConfig, run_simulation
from repro.workloads import scaled_scenario
from tests.golden import assert_matches_reference

# (refreshes, recomputations, fidelity_loss_percent, dab_change_messages,
#  user_notifications, gp_solves) at seed 13, fidelity_interval 2,
# volatility 0.02 — captured from the full-mode (pass-through) solve path.
GOLDEN_FULL = (2499, 75, 0.0, 166, 946, 81)


def _config(mode):
    scenario = scaled_scenario(query_count=6, item_count=20, trace_length=151,
                               source_count=4, seed=13, volatility=0.02)
    return SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                            recompute_cost=5.0, source_count=4, seed=13,
                            fidelity_interval=2, recompute_mode=mode)


@pytest.fixture(scope="module")
def full_result():
    return run_simulation(_config("full"))


@pytest.fixture(scope="module")
def delta_result():
    return run_simulation(_config("delta"))


class TestGoldenIdentity:
    def test_full_mode_matches_golden(self, full_result):
        m = full_result.metrics
        got = (m.refreshes, m.recomputations, m.fidelity_loss_percent,
               m.dab_change_messages, m.user_notifications, m.gp_solves)
        assert got == GOLDEN_FULL
        assert m.delta_patches == 0 and m.delta_fallbacks == 0

    def test_full_mode_equals_scalar_reference(self, full_result):
        """The wrapper in pass-through mode may not perturb a single
        metric relative to the scalar reference run."""
        assert_matches_reference(full_result.metrics, "recompute-full")


class TestModeEquivalence:
    def test_delta_differs_only_in_delta_counters(self, full_result,
                                                  delta_result):
        allowed = {"delta_patches", "delta_fallbacks"}
        for field in dataclasses.fields(full_result.metrics):
            full_value = getattr(full_result.metrics, field.name)
            delta_value = getattr(delta_result.metrics, field.name)
            if field.name in allowed:
                continue
            assert delta_value == full_value, (
                f"delta mode changed simulation-visible metric {field.name!r}")

    def test_breaches_partition_into_patches_and_fallbacks(self, delta_result):
        m = delta_result.metrics
        assert m.delta_patches + m.delta_fallbacks == m.recomputations
        # ISSUE 7 acceptance: the clear majority of breaches patch.
        assert m.delta_patches / m.recomputations >= 0.7


class TestStatsPlane:
    def test_delta_latency_section(self, delta_result):
        latency = delta_result.recompute_latency
        assert delta_result.recompute_mode == "delta"
        assert latency["mode"] == "delta"
        assert latency["patches"] == delta_result.metrics.delta_patches
        assert latency["fallbacks"] == delta_result.metrics.delta_fallbacks
        assert latency["samples"] == latency["patches"] + latency["fallbacks"]
        assert latency["patch_hit_rate"] == pytest.approx(
            latency["patches"] / latency["samples"], abs=1e-4)
        assert 0.0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]

    def test_full_latency_section(self, full_result):
        latency = full_result.recompute_latency
        assert full_result.recompute_mode == "full"
        assert latency["mode"] == "full"
        assert latency["patches"] == 0 and latency["fallbacks"] == 0
        assert latency["samples"] == latency["full_solves"] > 0
        assert latency["p50_ms"] > 0.0


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError, match="recompute_mode"):
            _config("incremental")

    def test_delta_requires_dual_dab_family(self):
        scenario = scaled_scenario(query_count=2, item_count=16,
                                   trace_length=41, source_count=2, seed=1)
        with pytest.raises(SimulationError, match="dual-DAB"):
            SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                             source_count=2, seed=1,
                             algorithm="optimal_refresh",
                             recompute_mode="delta")
