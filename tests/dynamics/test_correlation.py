"""Tests for correlation estimation and the online rate tracker."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.dynamics import Trace, TraceSet
from repro.dynamics.correlation import (
    CorrelationMatrix,
    OnlineRateTracker,
    co_movement_factor,
    correlation_adjusted_rates,
    estimate_correlations,
)
from repro.queries import parse_query


def correlated_traces(rho: float, length: int = 600, seed: int = 0) -> TraceSet:
    """Two positive traces whose increments correlate with coefficient rho."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(length - 1)
    own_a = rng.standard_normal(length - 1)
    own_b = rng.standard_normal(length - 1)
    mix = np.sqrt(abs(rho))
    inc_a = mix * shared + np.sqrt(1 - abs(rho)) * own_a
    inc_b = np.sign(rho) * mix * shared + np.sqrt(1 - abs(rho)) * own_b
    base = 1000.0
    a = base + np.concatenate(([0.0], np.cumsum(inc_a)))
    b = base + np.concatenate(([0.0], np.cumsum(inc_b)))
    return TraceSet([Trace("a", a), Trace("b", b)])


class TestEstimateCorrelations:
    def test_positive_correlation_detected(self):
        corr = estimate_correlations(correlated_traces(0.9), interval=1)
        assert corr.between("a", "b") > 0.5

    def test_negative_correlation_detected(self):
        corr = estimate_correlations(correlated_traces(-0.9), interval=1)
        assert corr.between("a", "b") < -0.5

    def test_independent_near_zero(self):
        corr = estimate_correlations(correlated_traces(0.0), interval=1)
        assert abs(corr.between("a", "b")) < 0.3

    def test_diagonal_is_one(self):
        corr = estimate_correlations(correlated_traces(0.5), interval=1)
        assert corr.between("a", "a") == pytest.approx(1.0)

    def test_symmetry(self):
        corr = estimate_correlations(correlated_traces(0.7), interval=1)
        assert corr.between("a", "b") == pytest.approx(corr.between("b", "a"))

    def test_interval_validation(self):
        with pytest.raises(TraceError):
            estimate_correlations(correlated_traces(0.5), interval=0)

    def test_too_short_for_interval(self):
        with pytest.raises(TraceError, match="too short"):
            estimate_correlations(correlated_traces(0.5, length=30), interval=20)

    def test_unknown_item_lookup(self):
        corr = estimate_correlations(correlated_traces(0.5), interval=1)
        with pytest.raises(KeyError):
            corr.between("a", "zzz")

    def test_flat_trace_yields_zero_not_nan(self):
        traces = TraceSet([
            Trace("flat", np.full(100, 7.0)),
            Trace("moving", 7.0 + 0.1 * np.arange(100)),
        ])
        corr = estimate_correlations(traces, interval=1)
        assert corr.between("flat", "moving") == 0.0


class TestCoMovementFactor:
    def make_matrix(self, rho):
        return CorrelationMatrix(items=("a", "b"),
                                 matrix=np.array([[1.0, rho], [rho, 1.0]]))

    def test_independent_is_one(self):
        assert co_movement_factor("a", ["b"], self.make_matrix(0.0)) == 1.0

    def test_positive_raises_factor(self):
        assert co_movement_factor("a", ["b"], self.make_matrix(0.8)) == pytest.approx(1.8)

    def test_negative_lowers_factor(self):
        assert co_movement_factor("a", ["b"], self.make_matrix(-0.4)) == pytest.approx(0.6)

    def test_clamped(self):
        assert co_movement_factor("a", ["b"], self.make_matrix(-0.99)) == 0.5

    def test_no_partners(self):
        assert co_movement_factor("a", [], self.make_matrix(0.9)) == 1.0
        assert co_movement_factor("a", ["a"], self.make_matrix(0.9)) == 1.0


class TestCorrelationAdjustedRates:
    def test_partners_from_query_terms(self):
        corr = estimate_correlations(correlated_traces(0.9), interval=1)
        query = parse_query("a*b : 1", name="corr_q")
        adjusted = correlation_adjusted_rates({"a": 2.0, "b": 3.0}, corr, [query])
        assert adjusted["a"] > 2.0  # co-moving partner raises the weight
        assert adjusted["b"] > 3.0

    def test_items_without_partners_untouched(self):
        corr = estimate_correlations(correlated_traces(0.9), interval=1)
        query = parse_query("a^2 : 1", name="solo")  # a has no partners
        adjusted = correlation_adjusted_rates({"a": 2.0, "b": 3.0}, corr, [query])
        assert adjusted["a"] == 2.0
        assert adjusted["b"] == 3.0


class TestOnlineRateTracker:
    def test_ewma_converges_to_true_rate(self):
        tracker = OnlineRateTracker({"x": 0.0}, alpha=0.3)
        for t in range(1, 60):
            tracker.observe("x", 100.0 + 0.5 * t, float(t))
        assert tracker.rate_of("x") == pytest.approx(0.5, rel=0.05)

    def test_first_observation_records_baseline_only(self):
        tracker = OnlineRateTracker({"x": 1.0}, alpha=0.5)
        tracker.observe("x", 100.0, 1.0)
        assert tracker.rate_of("x") == 1.0  # unchanged until a delta exists

    def test_zero_elapsed_ignored(self):
        tracker = OnlineRateTracker({"x": 1.0}, alpha=0.5)
        tracker.observe("x", 100.0, 1.0)
        tracker.observe("x", 105.0, 1.0)
        assert tracker.rate_of("x") == 1.0

    def test_alpha_validation(self):
        with pytest.raises(TraceError):
            OnlineRateTracker({}, alpha=0.0)

    def test_unknown_item_rate(self):
        assert OnlineRateTracker({}).rate_of("nope") == 0.0

    def test_shared_dict_updates_cost_model(self):
        """The wiring contract used by the harness: the tracker mutates the
        very dict the cost model reads."""
        from repro.filters import CostModel

        model = CostModel(rates={"x": 1.0})
        tracker = OnlineRateTracker(model.rates, alpha=1.0)
        tracker.rates = model.rates
        tracker.observe("x", 100.0, 1.0)
        tracker.observe("x", 104.0, 2.0)
        assert model.rate_of("x") == pytest.approx(4.0)


class TestHarnessIntegration:
    def test_adaptive_and_correlation_options_run(self):
        from repro.simulation import SimulationConfig, run_simulation
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(query_count=3, item_count=16,
                                   trace_length=121, source_count=3, seed=41)
        config = SimulationConfig(
            queries=scenario.queries, traces=scenario.traces,
            algorithm="dual_dab", recompute_cost=2.0, source_count=3,
            seed=41, fidelity_interval=4,
            adaptive_rate_alpha=0.2, correlation_aware=True,
        )
        metrics = run_simulation(config).metrics
        assert metrics.refreshes > 0
        assert metrics.fidelity_loss_percent <= 5.0
