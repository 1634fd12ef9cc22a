"""Tests for the multi-coordinator dissemination network (Fig. 8(c))."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation import (
    CrashWindow,
    DisseminationConfig,
    FaultConfig,
    run_dissemination,
)
from repro.workloads import scaled_scenario
from tests.golden import assert_matches_reference


@pytest.fixture(scope="module")
def scenario():
    return scaled_scenario(query_count=6, item_count=16, trace_length=121,
                           source_count=2, seed=17)


def run(scenario, **kwargs):
    defaults = dict(queries=scenario.queries, traces=scenario.traces,
                    recompute_cost=5.0, coordinator_count=3, source_count=2,
                    seed=17, fidelity_interval=4)
    defaults.update(kwargs)
    return run_dissemination(DisseminationConfig(**defaults))


class TestConfig:
    def test_validation(self, scenario):
        with pytest.raises(SimulationError):
            DisseminationConfig(queries=[], traces=scenario.traces)
        with pytest.raises(SimulationError):
            DisseminationConfig(queries=scenario.queries, traces=scenario.traces,
                                coordinator_count=0)

    def test_aao_not_supported(self, scenario):
        config = DisseminationConfig(queries=scenario.queries,
                                     traces=scenario.traces, algorithm="aao_t")
        with pytest.raises(SimulationError, match="AAO"):
            run_dissemination(config)


class TestReferenceGolden:
    """Fig. 8(c)-shaped runs (3 children, Pareto delays, 10x volatility so
    windows break) against the metrics the scalar sources and coordinators
    produced before ``run_dissemination`` moved to the one evaluation
    path.  The root port is each child's only "source"; it has no slab."""

    FAULTS = FaultConfig(loss_rate=0.05, duplicate_rate=0.02,
                         crash_windows=(CrashWindow(1, 40.0, 70.0),), seed=5)

    @pytest.mark.parametrize("golden_id, faults", [
        ("dissemination-pareto", None),
        ("dissemination-pareto-faulted", FAULTS)])
    def test_matches_scalar_reference(self, golden_id, faults):
        volatile = scaled_scenario(query_count=6, item_count=16,
                                   trace_length=121, source_count=2, seed=17,
                                   volatility=0.02)
        result = run(volatile, fault_config=faults)
        assert result.metrics.recomputations > 0
        assert_matches_reference(result.metrics, golden_id)


class TestBehaviour:
    def test_dual_dab_runs(self, scenario):
        result = run(scenario, algorithm="dual_dab")
        assert result.metrics.refreshes > 0
        assert result.coordinator_count == 3

    def test_wsdab_baseline_explodes_in_recomputations(self, scenario):
        """The Fig. 8(c) claim: at any scale the recompute-per-refresh
        baseline does orders of magnitude more recomputations."""
        dual = run(scenario, algorithm="dual_dab")
        wsdab = run(scenario, algorithm="sharfman_baseline")
        assert wsdab.metrics.recomputations >= 10 * max(dual.metrics.recomputations, 1)

    def test_fidelity_tracked_per_query(self, scenario):
        result = run(scenario, algorithm="dual_dab")
        losses = result.metrics.per_query_loss_percent
        assert set(losses) == {q.name for q in scenario.queries}

    def test_zero_delay_fidelity(self, scenario):
        result = run(scenario, algorithm="dual_dab", zero_delay=True,
                     fidelity_interval=1)
        assert result.metrics.fidelity_loss_percent == pytest.approx(0.0, abs=0.5)

    def test_query_partitioning_covers_all(self, scenario):
        result = run(scenario, algorithm="dual_dab")
        assert len(result.metrics.per_query_loss_percent) == len(scenario.queries)
