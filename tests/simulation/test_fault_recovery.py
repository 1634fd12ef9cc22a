"""Tests for the degradation protocol layered over the fault model:
DAB epochs, refresh sequence numbers, staleness leases, ack/retry
delivery, crash resync, and solver-failure fallback."""

import numpy as np
import pytest

from repro.dynamics import Trace, TraceSet
from repro.exceptions import InfeasibleProblemError
from repro.filters import CostModel, DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner
from repro.queries import parse_query
from repro.simulation import (
    Coordinator,
    CrashWindow,
    Event,
    EventKind,
    EventQueue,
    FaultConfig,
    FaultModel,
    MetricsCollector,
    PartitionWindow,
    SourceNode,
    ZeroDelayModel,
)

#: Enables the recovery machinery without any stochastic channel firing
#: (the crash is far beyond every test's horizon).
FAR_CRASH = FaultConfig(crash_windows=(CrashWindow(99, 1e7, 1e7 + 1),))


def make_source(values=(5.0, 6.0, 7.0, 8.0), fault_config=None, items=("x",)):
    traces = TraceSet([Trace(name, np.array(values, dtype=float))
                       for name in items])
    queue = EventQueue()
    metrics = MetricsCollector(recompute_cost=1.0)
    model = FaultModel(fault_config) if fault_config is not None else None
    source = SourceNode(0, list(items), traces, queue, metrics,
                        ZeroDelayModel(), fault_model=model)
    return source, queue, metrics


def make_world(fault_config=None, queries=None, values=None):
    """A real coordinator wired to a real source over a zero-delay link."""
    queries = queries or [parse_query("x*y : 5", name="cq")]
    values = values or {"x": 2.0, "y": 2.0}
    model = CostModel(rates={k: 1.0 for k in values}, recompute_cost=1.0)
    planner = DifferentSumPlanner(model, DualDABPlanner(model))
    queue = EventQueue()
    metrics = MetricsCollector(recompute_cost=1.0)
    fault_model = FaultModel(fault_config) if fault_config is not None else None
    items = sorted(values)
    traces = TraceSet([Trace(name, np.full(200, values[name])) for name in items])
    coordinator = Coordinator(
        queries=queries, planner=planner, queue=queue, metrics=metrics,
        initial_values=values,
        item_to_source={name: 0 for name in items}, fault_model=fault_model,
    )
    source = SourceNode(0, items, traces, queue, metrics, ZeroDelayModel(),
                        fault_model=fault_model)
    coordinator.attach_sources([source])
    coordinator.initial_plan()
    return coordinator, source, queue, metrics


def drain(queue, coordinator, source, until=float("inf")):
    """Dispatch queued events to the right handler, in order."""
    handlers = {
        EventKind.REFRESH_ARRIVAL: coordinator.on_refresh,
        EventKind.DAB_CHANGE_ARRIVAL: coordinator.on_dab_change,
        EventKind.DAB_ACK_ARRIVAL: coordinator.on_dab_ack,
        EventKind.RETRY_CHECK: coordinator.on_retry_check,
        # LEASE_CHECK reschedules itself forever; the lease tests drive it
        # directly instead.
        EventKind.LEASE_CHECK: lambda event: None,
        EventKind.HEARTBEAT_ARRIVAL: coordinator.on_heartbeat,
        EventKind.VALUE_PROBE_ARRIVAL: source.on_value_probe,
    }
    while queue and queue.peek_time() <= until:
        event = queue.pop()
        handlers[event.kind](event)


class TestEpochOrdering:
    def test_stale_epoch_rejected(self):
        source, _queue, metrics = make_source()
        source.set_bounds({"x": 1.0}, epochs={"x": 2})
        source.set_bounds({"x": 9.0}, epochs={"x": 1})   # the older message
        assert source.push.bounds["x"] == 1.0
        assert metrics.duplicate_rejects == 1

    def test_reordered_in_flight_changes_land_on_newest(self):
        """Two DAB-changes in flight, delivered in either order, must leave
        the source on the later epoch's bound."""
        for arrival_order in ([1, 2], [2, 1]):
            source, _queue, _metrics = make_source()
            for epoch in arrival_order:
                source.on_dab_change(Event(
                    1.0, EventKind.DAB_CHANGE_ARRIVAL,
                    {"source_id": 0, "bounds": {"x": float(epoch)},
                     "epochs": {"x": epoch}}))
            assert source.push.bounds["x"] == 2.0, \
                f"arrival order {arrival_order} left a stale filter"
            assert source.push.epochs["x"] == 2

    def test_duplicate_delivery_is_idempotent(self):
        source, _queue, metrics = make_source()
        payload = {"source_id": 0, "bounds": {"x": 1.5}, "epochs": {"x": 3}}
        source.on_dab_change(Event(1.0, EventKind.DAB_CHANGE_ARRIVAL, payload))
        source.on_dab_change(Event(1.1, EventKind.DAB_CHANGE_ARRIVAL, dict(payload)))
        assert source.push.bounds["x"] == 1.5
        assert metrics.duplicate_rejects == 1

    def test_bootstrap_path_needs_no_epochs(self):
        source, _queue, _metrics = make_source()
        source.set_bounds({"x": 2.0})
        assert source.push.bounds["x"] == 2.0
        assert source.push.epochs == {}


class TestMisroutedBounds:
    def test_unknown_item_counted_not_silently_dropped(self):
        source, _queue, metrics = make_source()
        source.set_bounds({"x": 1.0, "not_mine": 2.0})
        assert "not_mine" not in source.push.bounds
        assert source.push.bounds["x"] == 1.0
        assert metrics.misrouted_bounds == 1


class TestRefreshSequencing:
    def test_stale_refresh_rejected_in_fault_mode(self):
        coordinator, _source, _queue, metrics = make_world(FAR_CRASH)
        coordinator.on_refresh(Event(1.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 3.0,
                                      "source_id": 0, "seq": 2}))
        coordinator.on_refresh(Event(1.1, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 9.0,
                                      "source_id": 0, "seq": 1}))
        assert coordinator.core.cache["x"] == 3.0   # the overtaken value lost
        assert metrics.duplicate_rejects == 1
        assert metrics.refreshes == 2          # both deliveries still counted

    def test_fault_free_path_ignores_sequence_numbers(self):
        coordinator, _source, _queue, _metrics = make_world(None)
        coordinator.on_refresh(Event(1.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 3.0,
                                      "source_id": 0, "seq": 2}))
        coordinator.on_refresh(Event(1.1, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 9.0,
                                      "source_id": 0, "seq": 1}))
        # Without faults the original last-writer-wins semantics hold
        # bit-for-bit (the golden-identity guarantee).
        assert coordinator.core.cache["x"] == 9.0


class TestAckRetry:
    def test_delivered_change_is_acked_and_retires(self):
        coordinator, source, queue, metrics = make_world(FAR_CRASH)
        coordinator._send_dab_change(0, {"x": 0.7}, {"x": 1}, time=1.0)
        assert len(coordinator.dab_retries.outstanding) == 1
        drain(queue, coordinator, source)
        assert coordinator.dab_retries.outstanding == {}
        assert source.push.bounds["x"] == 0.7
        assert metrics.dab_retries == 0

    def test_partition_lost_change_is_retried_until_delivered(self):
        config = FaultConfig(partitions=(PartitionWindow(0.5, 2.0),))
        coordinator, source, queue, metrics = make_world(config)
        coordinator._send_dab_change(0, {"x": 0.7}, {"x": 1}, time=1.0)
        assert metrics.messages_dropped == 1   # initial send fell in the hole
        drain(queue, coordinator, source)
        assert metrics.dab_retries >= 1
        assert source.push.bounds["x"] == 0.7       # the retransmit got through
        assert coordinator.dab_retries.outstanding == {}

    def test_permanent_partition_exhausts_retries(self):
        config = FaultConfig(partitions=(PartitionWindow(0.0, 1e9),))
        coordinator, source, queue, metrics = make_world(config)
        bootstrap_bound = source.push.bounds["x"]
        coordinator._send_dab_change(0, {"x": 0.7}, {"x": 1}, time=1.0)
        drain(queue, coordinator, source)
        assert metrics.dab_retries == 8        # the whole default schedule
        assert metrics.dab_retry_exhausted == 1
        assert coordinator.dab_retries.outstanding == {}
        assert source.push.bounds["x"] == bootstrap_bound   # never delivered; gave up

    def test_given_up_change_widens_the_served_bound(self):
        """A source that never acked may still filter on a wider, stale
        bound, so giving up marks the item suspect and the answer is
        served with a widened bound until the item is heard from."""
        query = parse_query("x*y : 5", name="cq")
        # Longer than the whole default schedule: 2+4+8+16+5*30 = 180.
        config = FaultConfig(partitions=(PartitionWindow(0.0, 200.0),))
        coordinator, source, queue, metrics = make_world(config,
                                                         queries=[query])
        coordinator._send_dab_change(0, {"x": 0.7}, {"x": 1}, time=1.0)
        drain(queue, coordinator, source)
        assert metrics.dab_retries == 8
        assert metrics.dab_retry_exhausted == 1
        assert coordinator.reported_bound(query, 181.0) > query.qab
        assert coordinator.leases.suspect_since == {"x": 181.0}


class TestStalenessLeases:
    def test_lease_expiry_marks_suspect_and_probes(self):
        config = FaultConfig(crash_windows=(CrashWindow(99, 1e7, 1e7 + 1),),
                             lease_duration=10.0, lease_check_interval=5.0)
        coordinator, _source, queue, metrics = make_world(config)
        coordinator.on_lease_check(Event(15.0, EventKind.LEASE_CHECK))
        assert set(coordinator.leases.suspect_since) == {"x", "y"}
        assert metrics.lease_expiries == 2
        assert metrics.value_probes == 2
        kinds = [queue.pop().kind for _ in range(len(queue))]
        assert kinds.count(EventKind.VALUE_PROBE_ARRIVAL) == 2
        assert EventKind.LEASE_CHECK in kinds   # reschedules itself

    def test_refresh_clears_suspicion_and_accounts_exposure(self):
        config = FaultConfig(crash_windows=(CrashWindow(99, 1e7, 1e7 + 1),),
                             lease_duration=10.0)
        coordinator, _source, _queue, metrics = make_world(config)
        coordinator.on_lease_check(Event(15.0, EventKind.LEASE_CHECK))
        coordinator.on_refresh(Event(18.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 2.1,
                                      "source_id": 0, "seq": 1}))
        assert "x" not in coordinator.leases.suspect_since
        assert "y" in coordinator.leases.suspect_since
        assert metrics.staleness_exposure_seconds == pytest.approx(3.0)

    def test_heartbeat_seq_gap_means_lost_refreshes(self):
        coordinator, _source, _queue, metrics = make_world(FAR_CRASH)
        # The source claims it has pushed seq 4 for x; we never saw any.
        coordinator.on_heartbeat(Event(12.0, EventKind.HEARTBEAT_ARRIVAL,
                                       {"source_id": 0,
                                        "seqs": {"x": 4, "y": 0}}))
        assert "x" in coordinator.leases.suspect_since
        assert "y" not in coordinator.leases.suspect_since
        assert metrics.refresh_gaps == 1
        assert metrics.value_probes == 1
        assert coordinator.leases.last_heard["y"] == 12.0   # quiet-but-in-bound: renewed

    def test_heartbeat_overtaken_by_a_refresh_renews_the_lease(self):
        coordinator, _source, _queue, metrics = make_world(FAR_CRASH)
        coordinator.on_refresh(Event(11.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 2.1,
                                      "source_id": 0, "seq": 3}))
        # Sent when x was at seq 2, delivered after the seq-3 refresh: a
        # simulated source never renumbers, so this is reorder, not loss.
        coordinator.on_heartbeat(Event(12.0, EventKind.HEARTBEAT_ARRIVAL,
                                       {"source_id": 0,
                                        "seqs": {"x": 2, "y": 0}}))
        assert coordinator.leases.suspect_since == {}
        assert metrics.refresh_gaps == 0
        assert metrics.value_probes == 0
        assert coordinator.leases.last_heard["x"] == 12.0

    def test_reported_bound_widens_with_staleness(self):
        query = parse_query("x*y : 5", name="cq")
        coordinator, _source, _queue, _metrics = make_world(
            FAR_CRASH, queries=[query])
        assert coordinator.reported_bound(query, 10.0) == query.qab
        coordinator.leases.mark_suspect(["x"], 10.0)
        early = coordinator.reported_bound(query, 10.0)
        late = coordinator.reported_bound(query, 50.0)
        assert early > query.qab
        assert late > early   # uncertainty grows while the item stays dark


class TestCrashRecovery:
    def test_crashed_source_is_silent_then_resyncs(self):
        config = FaultConfig(crash_windows=(CrashWindow(0, 1.0, 3.0),))
        source, queue, metrics = make_source(
            values=(5.0, 50.0, 60.0, 70.0, 80.0), fault_config=config)
        source.set_bounds({"x": 1.0})
        source.on_tick(1)   # crashed: a huge move pushes nothing
        source.on_tick(2)   # still crashed
        assert len(queue) == 0
        source.on_tick(3)   # back up: resync push
        assert metrics.recovery_resyncs == 1
        event = queue.pop()
        assert event.payload["resync"] is True
        assert event.payload["value"] == 70.0

    def test_messages_to_crashed_source_are_lost(self):
        config = FaultConfig(crash_windows=(CrashWindow(0, 0.0, 10.0),))
        source, queue, metrics = make_source(fault_config=config)
        source.on_dab_change(Event(5.0, EventKind.DAB_CHANGE_ARRIVAL,
                                   {"source_id": 0, "bounds": {"x": 1.0},
                                    "epochs": {"x": 1}}))
        assert "x" not in source.push.bounds
        assert metrics.messages_dropped == 1

    def test_value_probe_answers_with_fresh_value_and_seq(self):
        source, queue, _metrics = make_source(values=(5.0, 6.0, 7.0),
                                              fault_config=FAR_CRASH)
        source.on_value_probe(Event(2.0, EventKind.VALUE_PROBE_ARRIVAL,
                                    {"item": "x", "source_id": 0}))
        event = queue.pop()
        assert event.kind is EventKind.REFRESH_ARRIVAL
        assert event.payload["probe_reply"] is True
        assert event.payload["value"] == 7.0
        assert event.payload["seq"] == 1


class _RaisingPlanner:
    """A planner whose runtime solves always fail."""

    def __init__(self, calls_before_failure=0, inner=None):
        self.calls = 0
        self.calls_before_failure = calls_before_failure
        self.inner = inner

    def plan(self, query, values, recompute_scale=1.0):
        self.calls += 1
        if self.calls > self.calls_before_failure:
            raise InfeasibleProblemError("synthetic solver failure")
        return self.inner.plan(query, values, recompute_scale)


class TestSolverDegradation:
    def _world(self, planner):
        query = parse_query("x*y : 5", name="cq")
        values = {"x": 2.0, "y": 2.0}
        queue = EventQueue()
        metrics = MetricsCollector(recompute_cost=1.0)
        coordinator = Coordinator(
            queries=[query], planner=planner, queue=queue,
            metrics=metrics, initial_values=values,
            item_to_source={"x": 0, "y": 0},
        )
        return coordinator, metrics

    def test_cold_start_falls_back_to_uniform_plan(self):
        coordinator, metrics = self._world(_RaisingPlanner())
        coordinator.initial_plan()    # must not raise
        assert metrics.solver_fallbacks == 1
        plan = coordinator.core.plans["cq"]
        assert all(b > 0 for b in plan.primary.values())

    def test_runtime_failure_keeps_previous_plan(self):
        model = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=1.0)
        good = DifferentSumPlanner(model, DualDABPlanner(model))
        planner = _RaisingPlanner(calls_before_failure=1, inner=good)
        coordinator, metrics = self._world(planner)
        coordinator.initial_plan()
        valid_plan = coordinator.core.plans["cq"]
        # A refresh far outside the window forces a recompute, which fails.
        coordinator.on_refresh(Event(1.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 40.0, "source_id": 0}))
        assert metrics.solver_fallbacks == 1
        assert coordinator.core.plans["cq"] is valid_plan
        assert metrics.recomputations == 1    # the attempt is still counted


class TestBusyRequeuePriority:
    def test_queue_priority_beats_insertion_order(self):
        queue = EventQueue()
        queue.push(Event(5.0, EventKind.REFRESH_ARRIVAL, {"item": "late"}))
        queue.push(Event(5.0, EventKind.REFRESH_ARRIVAL, {"item": "requeued"}),
                   priority=-1)
        assert queue.pop().payload["item"] == "requeued"
        assert queue.pop().payload["item"] == "late"

    def test_requeued_refresh_not_starved_by_tick_tie(self):
        """A refresh the busy coordinator requeues to ``busy_until`` must be
        served before a fresh arrival that lands on exactly that time."""
        from repro.simulation.network import ConstantDelayModel

        query = parse_query("x*y : 5", name="cq")
        values = {"x": 2.0, "y": 2.0}
        model = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=1.0)
        planner = DifferentSumPlanner(model, DualDABPlanner(model))
        queue = EventQueue()
        metrics = MetricsCollector(recompute_cost=1.0)
        coordinator = Coordinator(
            queries=[query], planner=planner, queue=queue,
            metrics=metrics, initial_values=values,
            item_to_source={"x": 0, "y": 0},
            check_delay=ConstantDelayModel(1.0),
        )
        coordinator.initial_plan()
        coordinator.on_refresh(Event(1.0, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 2.05, "source_id": 0}))
        assert coordinator.busy_until == 2.0
        # A competitor that will arrive at exactly busy_until, queued FIRST.
        queue.push(Event(2.0, EventKind.REFRESH_ARRIVAL,
                         {"item": "y", "value": 2.02, "source_id": 0}))
        # The refresh that finds the coordinator busy gets requeued.
        coordinator.on_refresh(Event(1.5, EventKind.REFRESH_ARRIVAL,
                                     {"item": "x", "value": 2.10, "source_id": 0}))
        assert queue.pop().payload["item"] == "x", \
            "the waiting refresh must be served before the tie at busy_until"
