"""Tests for rate-of-change estimation (paper Section V methodology)."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.dynamics import (
    EwmaRateEstimator,
    SampledRateEstimator,
    Trace,
    TraceSet,
    UnitRateEstimator,
    estimate_rates,
)
from repro.filters import CostModel
from repro.workloads import scaled_scenario


def linear_trace(slope: float, length: int = 301, start: float = 100.0) -> Trace:
    return Trace("lin", start + slope * np.arange(length))


class TestSampledRateEstimator:
    def test_linear_trace_recovers_slope(self):
        """For v(t) = v0 + s·t the sampled estimator must return exactly s
        regardless of the sampling interval."""
        trace = linear_trace(slope=0.05)
        for interval in (1, 10, 60):
            estimate = SampledRateEstimator(interval).estimate(trace)
            assert estimate == pytest.approx(0.05, rel=1e-9)

    def test_flat_trace_is_zero(self):
        trace = Trace("flat", np.full(200, 42.0))
        assert SampledRateEstimator().estimate(trace) == 0.0

    def test_short_trace_falls_back_to_endpoints(self):
        trace = Trace("short", np.array([10.0, 10.5, 11.0]))
        estimate = SampledRateEstimator(60).estimate(trace)
        assert estimate == pytest.approx(0.5)

    def test_interval_validation(self):
        with pytest.raises(TraceError):
            SampledRateEstimator(0)

    def test_sampling_smooths_oscillation(self):
        """A fast oscillation looks slower at coarse sampling — what the
        paper's one-minute interval does on its ~10 000 s traces."""
        values = 100.0 + np.tile([0.0, 1.0], 150)
        trace = Trace("osc", values)
        fine = SampledRateEstimator(1).estimate(trace)
        coarse = SampledRateEstimator(60).estimate(trace)
        assert coarse < fine

    def test_default_is_the_mean_per_update_move(self):
        values = 100.0 * np.exp(np.cumsum(
            np.random.default_rng(4).normal(0.0, 0.002, 102)))
        trace = Trace("walk", values)
        assert SampledRateEstimator().estimate(trace) == float(
            np.mean(np.abs(np.diff(values))))


def _per_query_spreads(queries, estimate, reference):
    """Each query's max/min over its items of ``estimate / reference``:
    1 when the estimate has the reference's shape on that query."""
    spreads = []
    for query in queries:
        ratios = [estimate[name] / reference[name] for name in query.variables]
        spreads.append(max(ratios) / min(ratios))
    return np.array(spreads)


class TestRateShape:
    """Only the shape of λ across a query's items moves a plan, and on a
    service-length trace the shape is what a 60-tick interval gets wrong."""

    def test_scaling_every_rate_moves_no_dab(self):
        from repro.simulation.harness import SimulationConfig, build_planner

        scenario = scaled_scenario(query_count=6, item_count=20,
                                   trace_length=201, source_count=4, seed=7)
        items = sorted({name for query in scenario.queries
                        for name in query.variables})
        rates = estimate_rates(scenario.traces, items=items)
        values = scenario.traces.initial_values(items)
        for algorithm in ("dual_dab", "optimal_refresh"):
            config = SimulationConfig(queries=scenario.queries,
                                      traces=scenario.traces,
                                      algorithm=algorithm)
            for factor in (7.3, 0.01):
                base = build_planner(config, CostModel(rates=rates,
                                                       recompute_cost=5.0))
                scaled = build_planner(config, CostModel(
                    rates={name: rate * factor for name, rate in rates.items()},
                    recompute_cost=5.0))
                # First plans: a later plan is a Newton patch, which stops
                # at a KKT tolerance (≈ 1e-8 relative), not at the optimum.
                for query in scenario.queries:
                    want = base.plan(query, values)
                    got = scaled.plan(query, values)
                    for side in ("primary", "secondary"):
                        expected, actual = getattr(want, side), getattr(got, side)
                        if expected is None:
                            assert actual is None
                            continue
                        for name, bound in expected.items():
                            assert actual[name] == pytest.approx(
                                bound, rel=1e-9, abs=0.0)

    def test_per_update_sampling_keeps_the_papers_shape_on_a_short_trace(self):
        """The 102-tick service trace is a prefix of the 10 000-tick one;
        the paper's method on the long trace is the reference."""
        long = scaled_scenario(query_count=100, item_count=40,
                               trace_length=10_000, seed=0)
        short = scaled_scenario(query_count=100, item_count=40,
                                trace_length=102, seed=0)
        items = sorted({name for query in short.queries
                        for name in query.variables})
        for name in items:
            assert np.array_equal(short.traces[name].values,
                                  long.traces[name].values[:102])
        reference = SampledRateEstimator(60).estimate_all(long.traces, items)

        per_update = _per_query_spreads(
            short.queries, estimate_rates(short.traces, items=items),
            reference)
        assert per_update.max() <= 2.0

        one_minute = _per_query_spreads(
            short.queries,
            SampledRateEstimator(60).estimate_all(short.traces, items),
            reference)
        assert np.median(one_minute) > 10.0


class TestEwmaRateEstimator:
    def test_linear_trace(self):
        assert EwmaRateEstimator().estimate(linear_trace(0.05)) == pytest.approx(0.05)

    def test_recency_weighting(self):
        """Quiet history then a burst: EWMA must sit above the whole-trace
        mean estimator's view of the same data."""
        values = np.concatenate([np.full(200, 100.0),
                                 100.0 + np.cumsum(np.full(50, 0.5))])
        trace = Trace("burst", values)
        ewma = EwmaRateEstimator(alpha=0.2).estimate(trace)
        mean = SampledRateEstimator(1).estimate(trace)
        assert ewma > mean

    def test_alpha_validation(self):
        with pytest.raises(TraceError):
            EwmaRateEstimator(alpha=0.0)
        with pytest.raises(TraceError):
            EwmaRateEstimator(alpha=1.5)


class TestUnitRateEstimator:
    def test_constant(self):
        assert UnitRateEstimator().estimate(linear_trace(5.0)) == 1.0
        assert UnitRateEstimator(3.0).estimate(linear_trace(5.0)) == 3.0

    def test_validation(self):
        with pytest.raises(TraceError):
            UnitRateEstimator(0.0)


class TestEstimateRates:
    def make_traces(self):
        return TraceSet([
            Trace("a", 10.0 + 0.1 * np.arange(200)),
            Trace("b", 10.0 + 0.4 * np.arange(200)),
        ])

    def test_default_estimator(self):
        rates = estimate_rates(self.make_traces())
        assert rates["a"] == pytest.approx(0.1, rel=1e-9)
        assert rates["b"] == pytest.approx(0.4, rel=1e-9)

    def test_item_subset(self):
        rates = estimate_rates(self.make_traces(), items=["a"])
        assert set(rates) == {"a"}

    def test_custom_estimator(self):
        rates = estimate_rates(self.make_traces(), estimator=UnitRateEstimator())
        assert rates == {"a": 1.0, "b": 1.0}
