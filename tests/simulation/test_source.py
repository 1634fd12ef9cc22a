"""Tests for push sources (DAB filtering semantics)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.dynamics import Trace, TraceSet
from repro.simulation import (
    Event,
    EventKind,
    EventQueue,
    MetricsCollector,
    SourceNode,
    ZeroDelayModel,
    assign_items_to_sources,
)
from repro.simulation.network import ConstantDelayModel


def make_source(values, bound=None):
    traces = TraceSet([Trace("x", np.array(values, dtype=float))])
    queue = EventQueue()
    metrics = MetricsCollector(recompute_cost=1.0)
    source = SourceNode(0, ["x"], traces, queue, metrics, ZeroDelayModel())
    if bound is not None:
        source.set_bounds({"x": bound})
    return source, queue


class TestAssignment:
    def test_round_robin(self):
        mapping = assign_items_to_sources(["a", "b", "c", "d", "e"], 2)
        assert mapping == {"a": 0, "b": 1, "c": 0, "d": 1, "e": 0}

    def test_invalid_count(self):
        with pytest.raises(SimulationError):
            assign_items_to_sources(["a"], 0)

    def test_source_needs_items(self):
        traces = TraceSet([Trace("x", np.array([1.0, 2.0]))])
        with pytest.raises(SimulationError):
            SourceNode(0, [], traces, EventQueue(), MetricsCollector(1.0),
                       ZeroDelayModel())


class TestPushFiltering:
    def test_paper_filter_semantics(self):
        """Paper: value 5 pushed, b = 1 — next refresh when the value
        leaves [4, 6] (strictly outside)."""
        source, queue = make_source([5.0, 5.9, 6.0, 6.1], bound=1.0)
        source.on_tick(1)   # 5.9: inside
        source.on_tick(2)   # 6.0: |6-5| = 1, NOT > 1
        assert len(queue) == 0
        source.on_tick(3)   # 6.1: outside
        assert len(queue) == 1
        event = queue.pop()
        assert event.kind is EventKind.REFRESH_ARRIVAL
        assert event.payload["value"] == 6.1

    def test_filter_recentres_after_push(self):
        source, queue = make_source([5.0, 6.5, 7.0, 8.0], bound=1.0)
        source.on_tick(1)   # 6.5 pushed; filter now centred there
        source.on_tick(2)   # 7.0: |7 - 6.5| = 0.5, silent
        assert len(queue) == 1
        source.on_tick(3)   # 8.0: |8 - 6.5| = 1.5 > 1 -> push
        assert len(queue) == 2

    def test_downward_moves_also_push(self):
        source, queue = make_source([5.0, 3.5], bound=1.0)
        source.on_tick(1)
        assert len(queue) == 1

    def test_forwards_every_change_without_bounds(self):
        """No DAB yet: every tick pushes (the fail-safe the live agent
        shares), and the first bound puts the window in force."""
        source, queue = make_source([5.0, 50.0, 50.5, 50.7])
        source.on_tick(1)
        source.on_tick(2)
        assert [queue.pop().payload["value"] for _ in range(2)] == [50.0, 50.5]
        source.set_bounds({"x": 1.0})
        source.on_tick(3)
        assert len(queue) == 0

    def test_network_delay_applied(self):
        traces = TraceSet([Trace("x", np.array([5.0, 10.0]))])
        queue = EventQueue()
        source = SourceNode(0, ["x"], traces, queue,
                            MetricsCollector(1.0), ConstantDelayModel(0.25))
        source.set_bounds({"x": 1.0})
        source.on_tick(1)
        assert queue.pop().time == pytest.approx(1.25)

    def test_dab_change_event(self):
        source, queue = make_source([5.0, 6.5], bound=10.0)
        source.on_tick(1)
        assert len(queue) == 0  # wide filter: silent
        source.on_dab_change(Event(1.0, EventKind.DAB_CHANGE_ARRIVAL,
                                   {"source_id": 0, "bounds": {"x": 1.0}}))
        source.on_tick(1)
        assert len(queue) == 1  # tightened filter now fires

    def test_bounds_for_foreign_items_ignored(self):
        source, _queue = make_source([5.0, 6.0])
        source.set_bounds({"not_mine": 1.0})
        assert "not_mine" not in source.push.bounds

    def test_repr(self):
        source, _ = make_source([1.0, 2.0])
        assert "id=0" in repr(source)
