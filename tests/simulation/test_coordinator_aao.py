"""Unit tests for the coordinator's AAO-periodic mode."""

import pytest

from repro.filters import AAOPlanner, CostModel, DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner
from repro.queries import parse_query
from repro.simulation import (
    Coordinator,
    Event,
    EventKind,
    EventQueue,
    MetricsCollector,
)


class _FakeSource:
    def __init__(self, source_id):
        self.source_id = source_id
        self.bounds = {}

    def set_bounds(self, bounds):
        self.bounds.update(bounds)

    def on_dab_change(self, event):
        self.set_bounds(event.payload["bounds"])


@pytest.fixture()
def aao_coordinator():
    queries = [parse_query("x*y : 5", name="aq1"),
               parse_query("y*z : 4", name="aq2")]
    values = {"x": 2.0, "y": 2.0, "z": 3.0}
    model = CostModel(rates={k: 1.0 for k in values}, recompute_cost=2.0)
    queue = EventQueue()
    metrics = MetricsCollector(recompute_cost=2.0)
    coordinator = Coordinator(
        queries=queries,
        planner=DifferentSumPlanner(model, DualDABPlanner(model)),
        queue=queue, metrics=metrics,
        initial_values=values,
        item_to_source={k: 0 for k in values},
        aao_planner=AAOPlanner(model),
        aao_period=30,
    )
    source = _FakeSource(0)
    coordinator.attach_sources([source])
    coordinator.initial_plan()
    return coordinator, queue, metrics, source


class TestAAOPeriodic:
    def test_initial_plan_schedules_first_period(self, aao_coordinator):
        coordinator, queue, _metrics, source = aao_coordinator
        times = []
        while queue:
            event = queue.pop()
            if event.kind is EventKind.AAO_PERIODIC:
                times.append(event.time)
        assert times == [30.0]
        assert set(source.bounds) == {"x", "y", "z"}

    def test_initial_plans_share_primaries(self, aao_coordinator):
        coordinator, _queue, _metrics, _source = aao_coordinator
        y1 = coordinator.core.plans["aq1"].primary["y"]
        y2 = coordinator.core.plans["aq2"].primary["y"]
        assert y1 == pytest.approx(y2, rel=1e-6)

    def test_periodic_event_recomputes_and_reschedules(self, aao_coordinator):
        coordinator, queue, metrics, _source = aao_coordinator
        while queue:
            queue.pop()
        coordinator.core.cache["x"] = 2.4
        coordinator.on_aao_periodic(Event(30.0, EventKind.AAO_PERIODIC))
        assert metrics.recomputations == 1  # one AAO solve == one recomputation
        next_times = []
        while queue:
            event = queue.pop()
            if event.kind is EventKind.AAO_PERIODIC:
                next_times.append(event.time)
        assert next_times == [60.0]
        # the new plans are centred on the drifted cache
        assert coordinator.core.plans["aq1"].reference_values["x"] == pytest.approx(2.4)

    def test_window_violation_patches_single_query(self, aao_coordinator):
        coordinator, _queue, metrics, _source = aao_coordinator
        plan = coordinator.core.plans["aq1"]
        outside = plan.reference_values["x"] + 2.0 * plan.secondary["x"]
        coordinator.on_refresh(Event(5.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": outside,
                                      "source_id": 0}))
        per_query = metrics.summary().recomputations_per_query
        assert per_query.get("aq1") == 1
        assert "aq2" not in per_query

    def test_busy_time_scales_with_query_count(self, aao_coordinator):
        from repro.simulation.network import ConstantDelayModel

        coordinator, _queue, _metrics, _source = aao_coordinator
        coordinator.recompute_delay = ConstantDelayModel(0.1)
        coordinator.on_aao_periodic(Event(30.0, EventKind.AAO_PERIODIC))
        # 2 queries x 0.1s of solve time
        assert coordinator.busy_until == pytest.approx(30.2)


class TestResyncDropsJointWarmStart:
    def test_faulted_aao_t_run_starts_the_next_joint_solve_cold(
            self, monkeypatch):
        """A recovered source's resync drops every planner's optimum —
        the joint AAO one included — so the next periodic solve does not
        start from the pre-crash joint optimum."""
        from repro.filters import multi_query
        from repro.simulation import (CrashWindow, FaultConfig,
                                      SimulationConfig, run_simulation)
        from repro.workloads import scaled_scenario

        log = []
        plan_all = multi_query.AAOPlanner.plan_all
        clear = multi_query.AAOPlanner.clear_warm_starts

        def recording_plan_all(self, queries, values, recompute_scales=None):
            log.append(("plan", self._warm_start is None))
            return plan_all(self, queries, values, recompute_scales)

        def recording_clear(self):
            clear(self)
            log.append(("clear", self._warm_start is None))

        monkeypatch.setattr(multi_query.AAOPlanner, "plan_all",
                            recording_plan_all)
        monkeypatch.setattr(multi_query.AAOPlanner, "clear_warm_starts",
                            recording_clear)
        scenario = scaled_scenario(query_count=4, item_count=16,
                                   trace_length=121, source_count=3,
                                   seed=13)
        faults = FaultConfig(crash_windows=(CrashWindow(1, 25.0, 50.0),),
                             seed=5)
        metrics = run_simulation(SimulationConfig(
            queries=scenario.queries, traces=scenario.traces,
            algorithm="aao_t", aao_period=40, recompute_cost=2.0,
            source_count=3, seed=13, fidelity_interval=2,
            fault_config=faults)).metrics

        assert metrics.recovery_resyncs == 1
        # Every resynced refresh clears; a joint solve starts cold exactly
        # when it is the first, or the first after a clear.
        assert ("clear", True) in log and ("clear", False) not in log
        cold_expected, plans = True, []
        for kind, cold in log:
            if kind == "clear":
                cold_expected = True
                continue
            plans.append((cold, cold_expected))
            cold_expected = False
        assert [cold for cold, _ in plans] == [want for _, want in plans]
        assert sum(cold for cold, _ in plans) == 2
