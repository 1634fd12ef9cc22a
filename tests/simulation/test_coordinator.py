"""Tests for the coordinator's recompute policies and message fanout."""

import numpy as np
import pytest

from repro.dynamics.traces import Trace, TraceSet
from repro.exceptions import SimulationError
from repro.filters import CostModel, DualDABPlanner, OptimalRefreshPlanner
from repro.filters.heuristics import DifferentSumPlanner
from repro.queries import parse_query
from repro.simulation import (
    Coordinator,
    Event,
    EventKind,
    EventQueue,
    MetricsCollector,
    RecomputeMode,
    SourceNode,
)
from repro.simulation.network import ConstantDelayModel, ZeroDelayModel


class _FakeSource:
    def __init__(self, source_id):
        self.source_id = source_id
        self.bounds = {}
        self.dab_changes = 0

    def set_bounds(self, bounds):
        self.bounds.update(bounds)

    def on_dab_change(self, event):
        self.dab_changes += 1
        self.set_bounds(event.payload["bounds"])


def make_coordinator(mode, mu=1.0, queries=None, values=None):
    queries = queries or [parse_query("x*y : 5", name="cq")]
    values = values or {"x": 2.0, "y": 2.0}
    model = CostModel(rates={k: 1.0 for k in values}, recompute_cost=mu)
    if mode is RecomputeMode.EVERY_REFRESH:
        planner = DifferentSumPlanner(model, OptimalRefreshPlanner(model))
    else:
        planner = DifferentSumPlanner(model, DualDABPlanner(model))
    queue = EventQueue()
    metrics = MetricsCollector(recompute_cost=mu)
    item_to_source = {name: 0 for q in queries for name in q.variables}
    coordinator = Coordinator(
        queries=queries, planner=planner, mode=mode, queue=queue,
        metrics=metrics, initial_values=values, item_to_source=item_to_source,
    )
    source = _FakeSource(0)
    coordinator.attach_sources([source])
    coordinator.initial_plan()
    return coordinator, queue, metrics, source


def refresh(time, item, value):
    return Event(time, EventKind.REFRESH_ARRIVAL,
                 {"item": item, "value": value, "source_id": 0})


class TestBootstrap:
    def test_initial_plan_seeds_sources(self):
        coordinator, _queue, _metrics, source = make_coordinator(
            RecomputeMode.ON_WINDOW_VIOLATION)
        assert set(source.bounds) == {"x", "y"}
        assert all(b > 0 for b in source.bounds.values())

    def test_duplicate_query_names_rejected(self):
        queries = [parse_query("x : 1", name="dup"), parse_query("y : 1", name="dup")]
        model = CostModel()
        with pytest.raises(SimulationError, match="unique"):
            Coordinator(queries=queries, planner=DifferentSumPlanner(model),
                        mode=RecomputeMode.EVERY_REFRESH, queue=EventQueue(),
                        metrics=MetricsCollector(1.0),
                        initial_values={"x": 1.0, "y": 1.0}, item_to_source={})

    def test_needs_queries(self):
        with pytest.raises(SimulationError):
            Coordinator(queries=[], planner=None,
                        mode=RecomputeMode.EVERY_REFRESH, queue=EventQueue(),
                        metrics=MetricsCollector(1.0), initial_values={},
                        item_to_source={})

    def test_aao_mode_requires_planner_and_period(self):
        with pytest.raises(SimulationError, match="AAO"):
            Coordinator(queries=[parse_query("x : 1")], planner=None,
                        mode=RecomputeMode.AAO_PERIODIC, queue=EventQueue(),
                        metrics=MetricsCollector(1.0),
                        initial_values={"x": 1.0}, item_to_source={})


class TestDirectConstruction:
    def test_minimal_arguments_build_what_ships(self):
        """No optional argument selects an evaluator: a bare Coordinator
        serves the banked evaluation and a bare SourceNode scans a slab,
        both equal to the reference definitions."""
        coordinator, _queue, _metrics, _source = make_coordinator(
            RecomputeMode.ON_WINDOW_VIOLATION)
        coordinator.on_refresh(refresh(1.0, "x", 2.5))
        assert coordinator.query_values_array().tolist() == [
            query.evaluate(coordinator.cache) for query in coordinator.queries]
        traces = TraceSet([Trace("x", np.array([5.0, 6.5, 6.6])),
                           Trace("y", np.array([2.0, 2.5, 9.0]))])
        queue = EventQueue()
        source = SourceNode(0, ["x", "y"], traces, queue,
                            MetricsCollector(1.0), ZeroDelayModel())
        assert source._slab.tolist() == [
            [traces[name].at(tick) for name in ("x", "y")]
            for tick in range(3)]
        source.set_bounds({"x": 1.0, "y": 1.0})
        source.on_tick(1)
        assert queue.pop().payload["item"] == "x"
        assert not queue


class TestEveryRefreshPolicy:
    def test_each_refresh_recomputes(self):
        coordinator, _queue, metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.on_refresh(refresh(1.0, "x", 2.5))
        coordinator.on_refresh(refresh(2.0, "x", 3.0))
        assert metrics.refreshes == 2
        assert metrics.recomputations == 2

    def test_cache_updated(self):
        coordinator, _queue, _metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.on_refresh(refresh(1.0, "x", 2.5))
        assert coordinator.cache["x"] == 2.5


class TestWindowPolicy:
    def test_no_recompute_inside_window(self):
        coordinator, _queue, metrics, _source = make_coordinator(
            RecomputeMode.ON_WINDOW_VIOLATION)
        plan = coordinator.plans["cq"]
        inside = plan.reference_values["x"] + 0.5 * plan.secondary["x"]
        coordinator.on_refresh(refresh(1.0, "x", inside))
        assert metrics.refreshes == 1
        assert metrics.recomputations == 0

    def test_recompute_on_violation(self):
        coordinator, _queue, metrics, _source = make_coordinator(
            RecomputeMode.ON_WINDOW_VIOLATION)
        plan = coordinator.plans["cq"]
        outside = plan.reference_values["x"] + 1.5 * plan.secondary["x"]
        coordinator.on_refresh(refresh(1.0, "x", outside))
        assert metrics.recomputations == 1
        # plan is re-centred on the new values
        assert coordinator.plans["cq"].reference_values["x"] == pytest.approx(outside)

    def test_only_affected_queries_recomputed(self):
        queries = [parse_query("x*y : 5", name="qa"),
                   parse_query("u*v : 5", name="qb")]
        values = {"x": 2.0, "y": 2.0, "u": 2.0, "v": 2.0}
        coordinator, _queue, metrics, _source = make_coordinator(
            RecomputeMode.ON_WINDOW_VIOLATION, queries=queries, values=values)
        plan = coordinator.plans["qa"]
        outside = plan.reference_values["x"] + 2.0 * plan.secondary["x"]
        coordinator.on_refresh(refresh(1.0, "x", outside))
        assert metrics.summary().recomputations_per_query == {"qa": 1}


class TestFanout:
    def test_dab_change_sent_on_recompute(self):
        coordinator, queue, metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.on_refresh(refresh(1.0, "x", 3.0))
        kinds = []
        while queue:
            kinds.append(queue.pop().kind)
        assert EventKind.DAB_CHANGE_ARRIVAL in kinds
        assert metrics.dab_change_messages >= 1

    def test_dab_change_routed_to_source(self):
        coordinator, queue, _metrics, source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.on_refresh(refresh(1.0, "x", 3.0))
        while queue:
            event = queue.pop()
            if event.kind is EventKind.DAB_CHANGE_ARRIVAL:
                coordinator.on_dab_change(event)
        assert source.dab_changes >= 1

    def test_unknown_source_rejected(self):
        coordinator, _queue, _metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        bogus = Event(1.0, EventKind.DAB_CHANGE_ARRIVAL,
                      {"source_id": 99, "bounds": {}})
        with pytest.raises(SimulationError):
            coordinator.on_dab_change(bogus)


class TestUserNotifications:
    def test_notification_on_qab_crossing(self):
        coordinator, _queue, metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        # initial query value is 4; QAB = 5, so value must move past 9
        coordinator.on_refresh(refresh(1.0, "x", 5.0))  # 5*2 = 10 > 4 + 5
        assert metrics.user_notifications == 1

    def test_no_notification_inside_qab(self):
        coordinator, _queue, metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.on_refresh(refresh(1.0, "x", 2.1))  # 4.2: inside QAB
        assert metrics.user_notifications == 0


class TestBusyServer:
    def test_refresh_queues_while_busy(self):
        coordinator, queue, metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.check_delay = ConstantDelayModel(0.5)
        coordinator.on_refresh(refresh(1.0, "x", 3.0))       # busy until 1.5+
        coordinator.on_refresh(refresh(1.2, "y", 3.0))       # must requeue
        assert metrics.refreshes == 1
        requeued = [queue.pop() for _ in range(len(queue))]
        times = [e.time for e in requeued if e.kind is EventKind.REFRESH_ARRIVAL]
        assert times and times[0] >= 1.5

    def test_recompute_extends_busy_time(self):
        coordinator, _queue, _metrics, _source = make_coordinator(
            RecomputeMode.EVERY_REFRESH)
        coordinator.recompute_delay = ConstantDelayModel(0.2)
        coordinator.on_refresh(refresh(1.0, "x", 3.0))
        assert coordinator.busy_until >= 1.2


class _RecordingPlanner:
    """Planner wrapper that records warm-start clears."""

    def __init__(self, planner):
        self.planner = planner
        self.warm_start_clears = 0

    def plan(self, query, values):
        return self.planner.plan(query, values)

    def clear_warm_starts(self):
        self.warm_start_clears += 1


class TestResyncWarmStartClearing:
    def _coordinator(self):
        from repro.simulation.faults import FaultConfig, FaultModel

        query = parse_query("x*y : 5", name="cq")
        values = {"x": 2.0, "y": 2.0}
        model = CostModel(rates={k: 1.0 for k in values}, recompute_cost=1.0)
        planner = _RecordingPlanner(
            DifferentSumPlanner(model, DualDABPlanner(model)))
        queue = EventQueue()
        metrics = MetricsCollector(recompute_cost=1.0)
        coordinator = Coordinator(
            queries=[query], planner=planner,
            mode=RecomputeMode.ON_WINDOW_VIOLATION,
            queue=queue, metrics=metrics, initial_values=values,
            item_to_source={"x": 0, "y": 0},
            fault_model=FaultModel(FaultConfig(loss_rate=0.01)),
        )
        coordinator.attach_sources([_FakeSource(0)])
        coordinator.initial_plan()
        return coordinator, planner

    def test_resync_refresh_clears_warm_starts(self):
        coordinator, planner = self._coordinator()
        coordinator.on_refresh(Event(1.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 2.4,
                                      "source_id": 0, "resync": True}))
        assert planner.warm_start_clears == 1

    def test_plain_refresh_keeps_warm_starts(self):
        coordinator, planner = self._coordinator()
        coordinator.on_refresh(refresh(1.0, "x", 2.4))
        assert planner.warm_start_clears == 0
