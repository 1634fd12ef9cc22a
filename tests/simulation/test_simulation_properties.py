"""Property-based tests of simulator invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamics import Trace, TraceSet
from repro.simulation import (
    EventKind,
    EventQueue,
    MetricsCollector,
    SourceNode,
    ZeroDelayModel,
)


@st.composite
def positive_series(draw):
    length = draw(st.integers(min_value=3, max_value=60))
    start = draw(st.floats(min_value=1.0, max_value=100.0))
    steps = draw(st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        min_size=length - 1, max_size=length - 1))
    values = [start]
    for step in steps:
        values.append(max(values[-1] + step, 0.1))
    return np.array(values)


class TestSourceFilterInvariant:
    @given(positive_series(), st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_pushes_exactly_when_filter_crossed(self, series, bound):
        """Replay a source tick by tick: a refresh happens iff the value
        moved strictly more than the DAB from the last pushed value, and
        after every push the filter re-centres."""
        traces = TraceSet([Trace("x", series)])
        queue = EventQueue()
        source = SourceNode(0, ["x"], traces, queue,
                            MetricsCollector(1.0), ZeroDelayModel())
        source.set_bounds({"x": bound})

        last_pushed = series[0]
        expected_pushes = []
        for tick in range(1, len(series)):
            if abs(series[tick] - last_pushed) > bound:
                last_pushed = series[tick]
                expected_pushes.append((tick, series[tick]))

        for tick in range(1, len(series)):
            source.on_tick(tick)

        actual = []
        while queue:
            event = queue.pop()
            assert event.kind is EventKind.REFRESH_ARRIVAL
            actual.append((int(event.time), event.payload["value"]))
        assert actual == expected_pushes

    @given(positive_series(), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_cached_value_always_within_bound_of_source(self, series, bound):
        """Zero-delay replay: the last-pushed value is never more than the
        DAB away from the source's live value (Condition 1's data half)."""
        traces = TraceSet([Trace("x", series)])
        queue = EventQueue()
        source = SourceNode(0, ["x"], traces, queue,
                            MetricsCollector(1.0), ZeroDelayModel())
        source.set_bounds({"x": bound})
        for tick in range(1, len(series)):
            source.on_tick(tick)
            live = series[tick]
            assert abs(live - source.push.centres[0]) <= bound + 1e-12


class TestMetricsInvariants:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_fidelity_within_bounds(self, observations):
        collector = MetricsCollector(1.0)
        for ok in observations:
            collector.record_fidelity("q", ok)
        loss = collector.mean_fidelity_loss_percent()
        assert 0.0 <= loss <= 100.0
        expected = 100.0 * observations.count(False) / len(observations)
        assert loss == pytest.approx(expected)

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_total_cost_linear_in_mu(self, refreshes, recomputations, mu):
        collector = MetricsCollector(mu)
        collector.record_refresh(refreshes)
        for _ in range(recomputations):
            collector.record_recomputation("q")
        assert collector.summary().total_cost == pytest.approx(
            refreshes + mu * recomputations)


class TestQabScalingProperty:
    @given(st.floats(min_value=1.5, max_value=4.0))
    @settings(max_examples=10, deadline=None)
    def test_looser_qab_means_fewer_or_equal_refreshes(self, factor):
        """Relaxing every query's accuracy bound can only reduce the
        refresh traffic (filters get wider everywhere)."""
        from repro.simulation import SimulationConfig, run_simulation
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(query_count=2, item_count=16,
                                   trace_length=81, source_count=2, seed=55)
        refreshes = {}
        for label, queries in (
            ("tight", scenario.queries),
            ("loose", [q.with_qab(q.qab * factor) for q in scenario.queries]),
        ):
            config = SimulationConfig(
                queries=queries, traces=scenario.traces, algorithm="dual_dab",
                recompute_cost=2.0, source_count=2, seed=55,
                fidelity_interval=10, zero_delay=True,
            )
            refreshes[label] = run_simulation(config).metrics.refreshes
        assert refreshes["loose"] <= refreshes["tight"] * 1.05 + 2
