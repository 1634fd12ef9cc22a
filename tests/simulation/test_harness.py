"""Tests for the one-call simulation harness."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation import AlgorithmName, SimulationConfig, run_simulation
from repro.workloads import scaled_scenario


@pytest.fixture(scope="module")
def scenario():
    return scaled_scenario(query_count=4, item_count=16, trace_length=121,
                           source_count=3, seed=13)


def run(scenario, **kwargs):
    defaults = dict(queries=scenario.queries, traces=scenario.traces,
                    recompute_cost=2.0, source_count=3, seed=13,
                    fidelity_interval=2)
    defaults.update(kwargs)
    return run_simulation(SimulationConfig(**defaults))


class TestConfigValidation:
    def test_algorithm_from_string(self, scenario):
        config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                                  algorithm="dual_dab")
        assert config.algorithm is AlgorithmName.DUAL_DAB

    def test_unknown_algorithm(self, scenario):
        with pytest.raises(SimulationError, match="unknown algorithm"):
            SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                             algorithm="magic")

    def test_duration_defaults_to_trace_length(self, scenario):
        config = SimulationConfig(queries=scenario.queries, traces=scenario.traces)
        assert config.duration == scenario.traces.duration

    def test_duration_beyond_traces_rejected(self, scenario):
        with pytest.raises(SimulationError, match="duration"):
            SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                             duration=10_000)

    def test_queries_required(self, scenario):
        with pytest.raises(SimulationError):
            SimulationConfig(queries=[], traces=scenario.traces)

    def test_missing_traces_detected(self, scenario):
        from repro.queries import parse_query

        alien = parse_query("nosuchitem : 1", name="alien")
        with pytest.raises(SimulationError, match="no traces"):
            SimulationConfig(queries=[alien], traces=scenario.traces)

    def test_aao_t_needs_period(self, scenario):
        with pytest.raises(SimulationError, match="aao_period"):
            SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                             algorithm="aao_t")

    def test_used_items(self, scenario):
        config = SimulationConfig(queries=scenario.queries, traces=scenario.traces)
        used = config.used_items
        assert used == sorted(set(used))
        assert all(any(i in q.variables for q in scenario.queries) for i in used)


class TestDeterminism:
    def test_same_seed_same_metrics(self, scenario):
        a = run(scenario, algorithm="dual_dab")
        b = run(scenario, algorithm="dual_dab")
        assert a.metrics.refreshes == b.metrics.refreshes
        assert a.metrics.recomputations == b.metrics.recomputations
        assert a.metrics.fidelity_loss_percent == b.metrics.fidelity_loss_percent


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", [
        "optimal_refresh", "dual_dab", "sharfman_baseline", "uniform_baseline",
    ])
    def test_runs_and_counts(self, scenario, algorithm):
        result = run(scenario, algorithm=algorithm)
        assert result.metrics.refreshes > 0
        # ticks 0..duration inclusive
        assert result.metrics.duration_ticks == scenario.traces.duration + 1

    def test_aao_t_runs(self, scenario):
        result = run(scenario, algorithm="aao_t", aao_period=40)
        # periodic solves happen duration/period times (plus patches)
        assert result.metrics.recomputations >= scenario.traces.duration // 40

    def test_dual_dab_beats_optimal_refresh_on_recomputations(self, scenario):
        """The paper's headline: ≥9× fewer recomputations."""
        dual = run(scenario, algorithm="dual_dab")
        optimal = run(scenario, algorithm="optimal_refresh")
        assert dual.metrics.recomputations * 9 <= optimal.metrics.recomputations

    def test_optimal_refresh_has_fewest_refreshes(self, scenario):
        optimal = run(scenario, algorithm="optimal_refresh")
        dual = run(scenario, algorithm="dual_dab")
        baseline = run(scenario, algorithm="sharfman_baseline")
        assert optimal.metrics.refreshes <= dual.metrics.refreshes
        assert optimal.metrics.refreshes <= baseline.metrics.refreshes

    def test_total_cost_favors_dual_dab(self, scenario):
        dual = run(scenario, algorithm="dual_dab", recompute_cost=5.0)
        optimal = run(scenario, algorithm="optimal_refresh", recompute_cost=5.0)
        assert dual.metrics.total_cost < optimal.metrics.total_cost

    def test_cache_disabled_still_runs(self, scenario):
        """No plan cache is left to disable: the option is gone, and the
        run's GP solves are the plans its solver rung answered."""
        with pytest.raises(TypeError, match="cache_grid"):
            run(scenario, algorithm="dual_dab", cache_grid=None)
        result = run(scenario, algorithm="optimal_refresh", duration=60)
        latency = result.recompute_latency
        assert result.metrics.gp_solves == latency["multistart_solves"]
        assert result.metrics.refreshes > 0

    def test_zero_delay_perfect_fidelity(self, scenario):
        for algorithm in ("dual_dab", "optimal_refresh"):
            result = run(scenario, algorithm=algorithm, zero_delay=True,
                         fidelity_interval=1)
            assert result.metrics.fidelity_loss_percent == 0.0
