"""Unit tests for the dissemination network's root relay."""

import numpy as np
import pytest

from repro.dynamics import Trace, TraceSet
from repro.simulation.dissemination import RootRelay, _RootPort, _PORT_BASE
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import ZeroDelayModel
from repro.simulation.source import SourceNode


@pytest.fixture()
def relay_world():
    queue = EventQueue()
    metrics = MetricsCollector(recompute_cost=1.0)
    traces = TraceSet([Trace("x", np.array([10.0, 11.0, 12.0])),
                       Trace("y", np.array([20.0, 20.0, 20.0]))])
    source = SourceNode(0, ["x", "y"], traces, queue, metrics, ZeroDelayModel())
    root = RootRelay(queue, metrics, ZeroDelayModel(),
                     initial_values={"x": 10.0, "y": 20.0},
                     item_to_source={"x": 0, "y": 0})
    root.attach_sources([source])
    return root, source, queue, metrics


def source_refresh(time, item, value):
    return Event(time, EventKind.REFRESH_ARRIVAL,
                 {"item": item, "value": value, "source_id": 0})


class TestRootPort:
    def test_port_ids_distinct_from_sources(self, relay_world):
        root, _source, _queue, _metrics = relay_world
        port = _RootPort(root, child_id=3)
        assert port.source_id == _PORT_BASE + 3

    def test_port_forwards_bounds_to_root(self, relay_world):
        root, _source, _queue, _metrics = relay_world
        port = _RootPort(root, child_id=0)
        port.set_bounds({"x": 0.5})
        assert root.filters[0].bounds == {"x": 0.5}

    def test_reordered_child_changes_leave_the_root_on_the_newer(
            self, relay_world):
        # Two same-tick changes race over independent delays: the older
        # one lands last and must not overwrite the newer bound.
        root, source, queue, _metrics = relay_world
        port = _RootPort(root, child_id=0)
        port.set_bounds({"x": 1.0})
        root.bootstrap()
        for epoch, bound in ((2, 0.2), (1, 0.5)):
            port.on_dab_change(Event(5.0, EventKind.DAB_CHANGE_ARRIVAL,
                                     {"source_id": port.source_id,
                                      "bounds": {"x": bound},
                                      "epochs": {"x": epoch}}))
        assert root.filters[0].bounds == {"x": 0.2}
        for event in _drain(queue):
            source.on_dab_change(event)
        assert source.push.bounds["x"] == 0.2


class TestRelayFiltering:
    def test_bootstrap_programs_sources_with_global_min(self, relay_world):
        root, source, _queue, _metrics = relay_world
        _RootPort(root, 0).set_bounds({"x": 0.5, "y": 2.0})
        _RootPort(root, 1).set_bounds({"x": 1.5})
        root.bootstrap()
        assert source.push.bounds == {"x": 0.5, "y": 2.0}

    def test_forwarding_respects_per_child_filters(self, relay_world):
        root, _source, queue, _metrics = relay_world
        _RootPort(root, 0).set_bounds({"x": 0.4})   # tight child
        _RootPort(root, 1).set_bounds({"x": 5.0})   # loose child
        root.bootstrap()
        root.on_source_refresh(source_refresh(1.0, "x", 11.0))  # moved by 1.0
        forwarded = []
        while queue:
            event = queue.pop()
            if event.kind is EventKind.REFRESH_ARRIVAL and "dest" in event.payload:
                forwarded.append(event.payload["dest"])
        # only the tight child's filter (0.4 < 1.0) is crossed
        assert forwarded == [0]

    def test_forwarding_recentres_per_child(self, relay_world):
        root, _source, queue, _metrics = relay_world
        _RootPort(root, 0).set_bounds({"x": 0.4})
        root.bootstrap()
        root.on_source_refresh(source_refresh(1.0, "x", 11.0))
        while queue:
            queue.pop()
        # second refresh inside the re-centred filter: not forwarded
        root.on_source_refresh(source_refresh(2.0, "x", 11.2))
        forwarded = [e for e in _drain(queue)
                     if e.kind is EventKind.REFRESH_ARRIVAL]
        assert forwarded == []

    def test_uninterested_children_never_receive(self, relay_world):
        root, _source, queue, _metrics = relay_world
        _RootPort(root, 0).set_bounds({"y": 0.1})  # child only wants y
        root.bootstrap()
        root.on_source_refresh(source_refresh(1.0, "x", 15.0))
        forwarded = [e for e in _drain(queue)
                     if e.kind is EventKind.REFRESH_ARRIVAL]
        assert forwarded == []

    def test_refreshes_counted_at_root(self, relay_world):
        root, _source, _queue, metrics = relay_world
        _RootPort(root, 0).set_bounds({"x": 0.4})
        root.bootstrap()
        root.on_source_refresh(source_refresh(1.0, "x", 11.0))
        assert metrics.refreshes == 1

    def test_bound_updates_after_bootstrap_reprogram_sources(self, relay_world):
        root, source, queue, metrics = relay_world
        port = _RootPort(root, 0)
        port.set_bounds({"x": 1.0})
        root.bootstrap()
        # child tightens its bound later (as a DAB-change message)
        port.on_dab_change(Event(5.0, EventKind.DAB_CHANGE_ARRIVAL,
                                 {"source_id": port.source_id,
                                  "bounds": {"x": 0.2}}))
        dab_events = [e for e in _drain(queue)
                      if e.kind is EventKind.DAB_CHANGE_ARRIVAL]
        assert dab_events and dab_events[0].payload["bounds"] == {"x": 0.2}
        assert metrics.dab_change_messages >= 1


def _drain(queue):
    events = []
    while queue:
        events.append(queue.pop())
    return events
