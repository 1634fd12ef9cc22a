"""The source plane's two tables, and the one contract both adapters keep.

``SourceLeases`` and ``DabRetryTable`` are driven here at explicit times,
with no event loop and no simulator.  The contract test then runs one
script — a refresh, a heartbeat showing a gap, a sweep past the lease,
the probe answers, a DAB change given up on — through the simulator's
``Coordinator`` and through a loopback ``CoordinatorServer`` on a step
clock, and requires equal suspect sets, probe lists and degraded bounds.
"""

import asyncio

from repro.filters import CostModel, DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner
from repro.queries import parse_query
from repro.service import protocol
from repro.service.resilience import RetryPolicy
from repro.service.server import CoordinatorServer
from repro.service.source_plane import DabRetryTable, SourceLeases
from repro.simulation import (
    Coordinator,
    CrashWindow,
    Event,
    EventKind,
    EventQueue,
    FaultConfig,
    FaultModel,
    MetricsCollector,
)
from repro.simulation.faults import DAB_RETRY

OWNER = {"x": 0, "y": 0, "z": 1}


def leases(lease_duration=10.0, owner=OWNER):
    metrics = MetricsCollector(recompute_cost=1.0)
    return SourceLeases(owner, lease_duration=lease_duration,
                        metrics=metrics), metrics


class TestSequenceFloors:
    def test_accept_only_above_the_floor(self):
        table, metrics = leases()
        assert table.accept(["x"], [2]) == [0]
        assert table.accept(["x"], [2]) == []    # duplicate
        assert table.accept(["x"], [1]) == []    # overtaken
        assert table.accept(["x"], [3]) == [0]
        assert table.last_seq == {"x": 3}
        assert metrics.duplicate_rejects == 2
        assert metrics.refreshes == 2            # delivered, then rejected

    def test_a_column_is_admitted_in_entry_order(self):
        table, metrics = leases()
        table.accept(["y"], [4])
        # x twice: the second entry is held to the first's number.
        assert table.accept(["x", "y", "x", "x", "y"],
                            [5, 4, 5, 6, 9]) == [0, 3, 4]
        assert table.last_seq == {"x": 6, "y": 9}
        assert metrics.duplicate_rejects == metrics.refreshes == 2

    def test_raise_floor_never_lowers(self):
        table, _ = leases()
        table.raise_floors(["x"], [5])
        table.raise_floors(["x", "y", "y"], [3, 2, 1])
        assert table.floors(["x", "y", "z"]) == {"x": 5, "y": 2}

    def test_floors_work_with_leases_off(self):
        table, metrics = leases(lease_duration=None)
        assert not table.enabled
        assert table.accept(["x"], [1]) == [0]
        assert table.accept(["x"], [1]) == []
        table.heard("x", 5.0)
        assert table.heartbeat(0, {"x": 9}, 5.0) == ([], [])
        assert table.sweep(100.0, ["x", "y"]) == {}
        table.mark_suspect(["x"], 5.0)
        assert table.suspect_since == {} and table.last_heard == {}
        assert metrics.refresh_gaps == 0


class TestLeases:
    def test_first_sweep_baselines_then_expires(self):
        table, metrics = leases()
        assert table.sweep(5.0, ["x", "y", "z"]) == {}      # grace period
        assert table.last_heard == {"x": 5.0, "y": 5.0, "z": 5.0}
        table.heard("y", 12.0)
        assert table.sweep(15.0, ["x", "y", "z"]) == {}     # 10 is not > 10
        probes = table.sweep(15.5, ["x", "y", "z"])
        assert probes == {0: ["x"], 1: ["z"]}
        assert table.suspect_since == {"x": 15.5, "z": 15.5}
        assert metrics.lease_expiries == 2
        # A suspect item is probed again on every sweep, counted once.
        assert table.sweep(16.0, ["x", "y", "z"]) == {0: ["x"], 1: ["z"]}
        assert metrics.lease_expiries == 2

    def test_unowned_item_goes_suspect_unprobed(self):
        table, _ = leases(owner={"x": 0})
        table.sweep(0.0, ["x", "w"])
        assert table.sweep(11.0, ["x", "w"]) == {0: ["x"]}
        assert set(table.suspect_since) == {"x", "w"}

    def test_exposure_is_recorded_once_when_heard(self):
        table, metrics = leases()
        table.mark_suspect(["x"], 3.0)
        table.sweep(4.0, ["x"])
        table.sweep(9.0, ["x"])
        assert metrics.staleness_exposure_seconds == 0.0    # not at sweeps
        table.heard("x", 10.5)
        assert metrics.staleness_exposure_seconds == 7.5
        assert table.suspect_since == {}
        assert table.last_heard["x"] == 10.5

    def test_a_column_renews_every_lease_and_names_whom_to_hear(self):
        table, metrics = leases()
        table.mark_suspect(["y"], 3.0)
        # The first entry, then each later one of a suspect item: here the
        # two entries of y, not x's second.
        assert table.renew(["x", "y", "x", "y"], 7.0) == [0, 1, 3]
        assert table.last_heard == {"x": 7.0, "y": 7.0}
        # Renewal alone clears no suspicion; hearing the entry does.
        assert table.suspect_since == {"y": 3.0}
        assert metrics.staleness_exposure_seconds == 0.0
        assert table.renew(["z"], 8.0) == [0]
        off, _ = leases(lease_duration=None)
        off.mark_suspect(["y"], 3.0)
        assert off.renew(["x", "y"], 7.0) == []
        assert off.last_heard == {}

    def test_mark_suspect_keeps_the_earliest_time(self):
        table, _ = leases()
        table.mark_suspect(["x"], 3.0)
        table.mark_suspect(["x", "y"], 8.0)
        assert table.suspect_since == {"x": 3.0, "y": 8.0}

    def test_heartbeat_in_step_ahead_and_behind(self):
        table, metrics = leases()
        table.accept(["x", "y"], [4, 4])
        probe, resync = table.heartbeat(0, {"x": 4, "y": 2, "z": 9}, 12.0)
        assert (probe, resync) == ([], ["y"])    # z is not source 0's
        assert table.last_heard == {"x": 12.0}
        probe, resync = table.heartbeat(0, {"x": 6, "y": 2}, 13.0)
        assert (probe, resync) == (["x"], ["y"])
        assert table.suspect_since == {"x": 13.0, "y": 12.0}
        assert metrics.refresh_gaps == 2
        # Every heartbeat that still shows the gap asks again; the gap
        # itself is counted once.
        assert table.heartbeat(0, {"x": 6}, 14.0) == (["x"], [])
        assert metrics.refresh_gaps == 2


class _Core:
    """What the widening reads of a coordinator core."""

    def __init__(self, queries, cache):
        self.queries = queries
        self.cache = cache
        self.drifts = []

    def uncertainty_widened_bound(self, query, drifts):
        self.drifts.append(dict(drifts))
        return query.qab + sum(drifts.values())


class TestWidening:
    def test_drift_grows_with_staleness(self):
        qa = parse_query("x*y : 5", name="qa")
        qb = parse_query("z : 2", name="qb")
        core = _Core([qa, qb], {"x": 2.0, "y": -4.0, "z": 1.0})
        table = SourceLeases(OWNER, lease_duration=10.0, drift_rel=0.05)
        assert table.degraded_bounds(0.0, core) == {}
        assert table.widened_bound(qa, 0.0, core) == 5.0
        table.mark_suspect(["y"], 10.0)
        assert table.degraded_bounds(30.0, core) == {
            "qa": 5.0 + 0.05 * 4.0 * (1.0 + 20.0 / 10.0)}
        assert core.drifts[-1] == {"y": 0.05 * 4.0 * 3.0}

    def test_recovery_state_keys_and_round_trip(self):
        table, _ = leases()
        table.accept(["x"], [3])
        table.heard("x", 4.0)
        table.mark_suspect(["y"], 5.0)
        state = table.recovery_state()
        assert list(state) == ["last_seq", "suspect_since", "item_last_heard"]
        restored, _ = leases()
        restored.restore(state)
        assert restored.recovery_state() == state


class TestDabRetryTable:
    def test_default_fault_schedule(self):
        """The simulator's default: checks 2, 4, 8, 16 then every 30 after
        each send, and a give-up after the eighth resend."""
        table = DabRetryTable(DAB_RETRY)
        msg_id = table.track(0, {"x": 1.0}, {"x": 1}, 0.0)
        checks = []
        while True:
            now = table.outstanding[msg_id].due
            checks.append(now)
            resend, given_up = table.due(now)
            if given_up:
                break
            assert [m for m, _ in resend] == [msg_id]
        assert checks == [2.0, 6.0, 14.0, 30.0, 60.0, 90.0, 120.0, 150.0,
                          180.0]
        assert given_up[0].bounds == {"x": 1.0}
        assert len(table) == 0

    def test_nothing_due_before_its_time_and_ack_retires(self):
        table = DabRetryTable(RetryPolicy(base_delay=1.0, max_attempts=3))
        first = table.track(0, {"x": 1.0}, {"x": 1}, 0.0)
        second = table.track(1, {"z": 2.0}, {"z": 1}, 0.5)
        assert table.due(0.9) == ([], [])
        resend, given_up = table.due(1.0)
        assert [m for m, _ in resend] == [first] and given_up == []
        table.ack(second)
        table.ack(second)                        # idempotent
        assert list(table.outstanding) == [first]
        assert table.outstanding[first].attempt == 1
        assert table.outstanding[first].due == 3.0

    def test_resent_entries_move_to_the_back(self):
        table = DabRetryTable(RetryPolicy(base_delay=1.0, backoff=1.0,
                                          max_delay=1.0, max_attempts=5))
        a = table.track(0, {}, {}, 0.0)
        b = table.track(1, {}, {}, 0.5)
        table.due(1.0)
        assert list(table.outstanding) == [b, a]

    def test_check_settles_one_message_only(self):
        table = DabRetryTable(RetryPolicy(base_delay=1.0, max_attempts=2))
        first = table.track(0, {"x": 1.0}, {"x": 1}, 0.0)
        second = table.track(1, {"z": 2.0}, {"z": 1}, 0.0)
        assert table.check(first, 0.5) == (None, False)     # not due yet
        entry, resend = table.check(first, 1.0)
        assert resend and entry.attempt == 1 and entry.due == 3.0
        assert table.outstanding[second].attempt == 0       # untouched
        entry, resend = table.check(first, 3.0)
        assert not resend and entry.bounds == {"x": 1.0}    # out of attempts
        table.ack(second)
        assert table.check(second, 1.0) == (None, False)    # acked
        assert len(table) == 0

    def test_forget_source(self):
        table = DabRetryTable(RetryPolicy())
        table.track(0, {}, {}, 0.0)
        kept = table.track(1, {}, {}, 0.0)
        table.track(0, {}, {}, 0.0)
        table.forget_source(0)
        assert list(table.outstanding) == [kept]


# ---------------------------------------------------------------------------
# one script, two adapters
# ---------------------------------------------------------------------------

LEASE = 3.0
#: The DAB change of the script is sent at 8.0 and never acked: resends at
#: 10, 14, 22, 38, 68, 98, 128 and 158 on the simulator's schedule, and the
#: give-up at 188.
SEND_AT = 8.0
CHECKS = (10.0, 14.0, 22.0, 38.0, 68.0, 98.0, 128.0, 158.0, 188.0)
VALUES = {"x": 2.0, "y": 2.0, "z": 3.0}


def _queries():
    return [parse_query("x*y : 5", name="cq"), parse_query("y*z : 4", name="dq")]


def _planner():
    model = CostModel(rates={name: 1.0 for name in VALUES}, recompute_cost=1.0)
    return DifferentSumPlanner(model, DualDABPlanner(model))


def _sim_coordinator(queue, fault_config):
    return Coordinator(
        queries=_queries(), planner=_planner(), queue=queue,
        metrics=MetricsCollector(recompute_cost=1.0), initial_values=VALUES,
        item_to_source={name: 0 for name in VALUES},
        fault_model=FaultModel(fault_config))


class _SimSide:
    """The simulator adapter, its handlers called at the script's times;
    probes are read off the event queue."""

    def __init__(self):
        self.queue = EventQueue()
        self.node = _sim_coordinator(self.queue, FaultConfig(
            crash_windows=(CrashWindow(99, 1e7, 1e7 + 1),),
            lease_duration=LEASE))
        self.node.initial_plan()
        self.metrics = self.node.metrics
        self.msg_id = None

    async def refresh(self, now, item, seq):
        self.node.on_refresh(Event(now, EventKind.REFRESH_ARRIVAL, {
            "item": item, "value": VALUES[item], "source_id": 0, "seq": seq}))

    async def heartbeat(self, now, seqs):
        self.node.on_heartbeat(Event(now, EventKind.HEARTBEAT_ARRIVAL,
                                     {"source_id": 0, "seqs": seqs}))

    async def sweep(self, now):
        self.node.on_lease_check(Event(now, EventKind.LEASE_CHECK))

    async def send_dab(self, now, bounds, epochs):
        self.node._send_dab_change(0, bounds, epochs, now)
        self.msg_id = max(self.node.dab_retries.outstanding)

    async def check_retries(self, now):
        self.node.on_retry_check(Event(now, EventKind.RETRY_CHECK,
                                       {"msg_id": self.msg_id}))

    async def probes(self):
        probed = []
        while self.queue:
            event = self.queue.pop()
            if event.kind is EventKind.VALUE_PROBE_ARRIVAL:
                probed.append(event.payload["item"])
        return probed

    def suspect_since(self):
        return dict(self.node.leases.suspect_since)

    def degraded(self, now):
        return self.node.leases.degraded_bounds(now, self.node.core)


class _ServerSide:
    """A loopback server on a step clock; probes are read off the
    registered source's stream."""

    def __init__(self):
        self.now = 0.0
        self.server = CoordinatorServer(
            queries=_queries(), planner=_planner(), initial_values=VALUES,
            item_to_source={name: 0 for name in VALUES},
            lease_duration=LEASE, dab_retry_policy=DAB_RETRY,
            clock=lambda: self.now)
        self.metrics = self.server.metrics

    async def start(self):
        self.stream = self.server.connect_loopback()
        await self.stream.send(protocol.register_source(0, sorted(VALUES)))
        await self.stream.receive()

    @staticmethod
    async def _settle():
        for _ in range(6):
            await asyncio.sleep(0)

    async def refresh(self, now, item, seq):
        self.now = now
        await self.stream.send(
            protocol.refresh(0, [item], [VALUES[item]], [seq]))
        await self._settle()

    async def heartbeat(self, now, seqs):
        self.now = now
        await self.stream.send(protocol.heartbeat(0, seqs))
        await self._settle()

    async def sweep(self, now):
        self.now = now
        await self.server.check_leases()

    async def send_dab(self, now, bounds, epochs):
        self.now = now
        await self.server._send_dab_update(0, bounds, epochs)

    async def check_retries(self, now):
        self.now = now
        await self.server.check_retries()

    async def probes(self):
        await self._settle()
        probed = []
        while True:
            try:
                frame = await asyncio.wait_for(self.stream.receive(), 0.02)
            except asyncio.TimeoutError:
                return probed
            probed.extend(frame.get("probe") or ())

    def suspect_since(self):
        return dict(self.server.suspect_since)

    def degraded(self, now):
        self.now = now
        return self.server.degraded_bounds()


async def _script(side):
    """Run the script; returns what was observed after each step and the
    retry counters."""
    seen = []

    async def observe(now):
        seen.append((await side.probes(), side.suspect_since(),
                     side.degraded(now)))

    await side.sweep(0.0)                                # baselines
    await observe(0.0)
    await side.refresh(1.0, "x", 1)
    await observe(1.0)
    await side.heartbeat(2.0, {"x": 1, "y": 3, "z": 0})  # y: refreshes lost
    await observe(2.0)
    await side.heartbeat(3.0, {"x": 1, "y": 3, "z": 0})  # ...and still
    await observe(3.0)
    await side.sweep(6.5)                                # x, z expire
    await observe(6.5)
    for item, seq in (("x", 2), ("y", 4), ("z", 1)):     # the probe answers
        await side.refresh(7.0, item, seq)
    await observe(7.0)
    await side.send_dab(SEND_AT, {"z": 0.5}, {"z": 9})   # never acked
    for now in CHECKS:
        await side.check_retries(now)
    await observe(CHECKS[-1])
    await observe(CHECKS[-1] + 5.0)
    return seen, side.metrics.dab_retries, side.metrics.dab_retry_exhausted


def test_simulator_and_server_follow_one_contract():
    sim_seen, *sim_retries = asyncio.run(_script(_SimSide()))

    async def on_server():
        side = _ServerSide()
        await side.start()
        try:
            return await _script(side)
        finally:
            await side.server.close()

    server_seen, *server_retries = asyncio.run(on_server())
    assert sim_seen == server_seen
    assert sim_retries == server_retries == [8, 1]
    # The script did what it says.
    probes, suspects, degraded = zip(*sim_seen)
    assert probes == ([], [], ["y"], ["y"], ["x", "y", "z"], [], [], [])
    assert suspects[4] == {"x": 6.5, "y": 2.0, "z": 6.5}
    assert suspects[5] == {}
    assert suspects[6] == {"z": 188.0}           # the give-up
    assert set(degraded[6]) == {"dq"}
    assert degraded[7]["dq"] > degraded[6]["dq"] > 4.0


def test_simulator_tables_are_off_without_faults():
    node = _sim_coordinator(EventQueue(), FaultConfig())
    assert not node.leases.enabled
