"""Staleness leases, reliable DAB delivery, and the solver breaker.

Server-side resilience semantics over the loopback transport: liveness
bookkeeping (``last_heard``), lease expiry → honest ``degraded`` bounds,
heartbeat seq-gap detection → value probes, behind-seq resync, the
DAB_UPDATE ack/retry loop, and the circuit breaker around the planner.
"""

import asyncio

import pytest

from repro.exceptions import GPError
from repro.filters.baselines import UniformAllocationBaseline
from repro.service import protocol
from repro.service.core import CoordinatorCore
from repro.service.protocol import MessageType
from repro.service.resilience import BreakerState, CircuitBreaker, RetryPolicy
from repro.service.server import build_scenario_server
from repro.simulation.metrics import MetricsCollector
from repro.simulation.source import assign_items_to_sources
from repro.workloads import scaled_scenario
from tests.service.nodes import SOURCE_FACING, register_sources, start_node


def run(coro):
    return asyncio.run(coro)


class StepClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def build(clock, **kwargs):
    server, scenario, item_to_source = build_scenario_server(
        query_count=4, item_count=20, source_count=2, trace_length=41,
        seed=1, clock=clock, **kwargs)
    return server, scenario, item_to_source


def owned(item_to_source, source_id):
    return sorted(n for n, s in item_to_source.items() if s == source_id)


async def register(server, item_to_source, source_id):
    stream = server.connect_loopback()
    await stream.send(protocol.register_source(
        source_id, owned(item_to_source, source_id)))
    reply = await stream.receive()
    assert reply["type"] == MessageType.DAB_UPDATE.value
    return stream


async def drain(rounds=6):
    for _ in range(rounds):
        await asyncio.sleep(0)


class TestLastHeardBookkeeping:
    def test_refresh_and_heartbeat_both_advance_last_heard(self):
        async def check():
            clock = StepClock(5.0)
            server, _, item_to_source = build(clock)
            stream = await register(server, item_to_source, 0)
            assert server.last_heard[0] == 5.0
            item = owned(item_to_source, 0)[0]
            clock.now = 9.0
            await stream.send(protocol.refresh(0, [item], [123.0], [1]))
            await drain()
            assert server.last_heard[0] == 9.0
            clock.now = 12.0
            await stream.send(protocol.heartbeat(0, {item: 1}))
            await drain()
            assert server.last_heard[0] == 12.0
            await server.close()

        run(check())

    def test_dead_source_timestamp_goes_stale(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock)
            alive = await register(server, item_to_source, 0)
            await register(server, item_to_source, 1)
            clock.now = 40.0
            await alive.send(protocol.heartbeat(0, {}))
            await drain()
            assert server.last_heard[0] == 40.0
            assert server.last_heard[1] == 0.0      # nothing heard since
            await server.close()

        run(check())


class TestStalenessLeases:
    def test_lease_expiry_degrades_then_refresh_recovers(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock, lease_duration=3.0)
            stream = await register(server, item_to_source, 0)
            clock.now = 1.0
            await server.check_leases()             # baseline sweep
            assert server.suspect_since == {}
            clock.now = 6.0
            await server.check_leases()             # 5 > 3: leases expired
            assert server.suspect_since
            assert server.metrics.lease_expiries > 0
            snapshot = server._snapshot_response()
            degraded = snapshot["degraded"]
            assert degraded
            by_name = {q.name: q for q in server.core.queries}
            for name, bound in degraded.items():
                assert bound > by_name[name].qab
            # An expired item is probed through the registered stream.
            probe = await stream.receive()
            assert probe["type"] == MessageType.DAB_UPDATE.value
            assert probe["bounds"] == {}
            assert set(probe["probe"]) == set(owned(item_to_source, 0))
            # A refresh vouches for its item again.
            item = owned(item_to_source, 0)[0]
            clock.now = 8.0
            await stream.send(protocol.refresh(0, [item], [50.0], [1]))
            await drain()
            assert item not in server.suspect_since
            assert server.metrics.staleness_exposure_seconds > 0
            await server.close()

        run(check())

    def test_degraded_widening_grows_with_staleness(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock, lease_duration=3.0)
            await register(server, item_to_source, 0)
            clock.now = 1.0
            await server.check_leases()
            clock.now = 6.0
            await server.check_leases()
            early = server.degraded_bounds()
            clock.now = 30.0
            late = server.degraded_bounds()
            assert set(early) == set(late)
            assert all(late[name] > early[name] for name in early)
            await server.close()

        run(check())

    def test_degraded_change_fans_out_bare_notify(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock, lease_duration=3.0)
            await register(server, item_to_source, 0)
            subscriber = server.connect_loopback()
            await subscriber.send(protocol.query_sub("*"))
            snapshot = await subscriber.receive()
            assert snapshot["degraded"] == {}       # leases on, all healthy
            clock.now = 1.0
            await server.check_leases()
            clock.now = 6.0
            await server.check_leases()
            await drain()
            notice = await subscriber.receive()
            assert notice["type"] == MessageType.NOTIFY.value
            assert notice["updates"] == []
            assert notice["degraded"]
            await server.close()

        run(check())

    def test_heartbeat_seq_gap_probes_and_flags(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock, lease_duration=10.0)
            stream = await register(server, item_to_source, 0)
            item = owned(item_to_source, 0)[0]
            # The source claims seq 3; we never saw any refresh: a gap.
            await stream.send(protocol.heartbeat(0, {item: 3}))
            await drain()
            assert item in server.suspect_since
            assert server.server_stats()["seq_gaps_detected"] == 1
            probe = await stream.receive()
            assert probe["probe"] == [item]
            await stream.send(protocol.refresh(0, [item], [42.0], [4]))
            await drain()
            assert item not in server.suspect_since
            await server.close()

        run(check())

    def test_heartbeat_behind_seq_refloors_numbering(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock, lease_duration=10.0)
            stream = await register(server, item_to_source, 0)
            item = owned(item_to_source, 0)[0]
            await stream.send(protocol.refresh(0, [item], [42.0], [5]))
            await drain()
            # A restarted source numbering below our high-water mark.
            await stream.send(protocol.heartbeat(0, {item: 1}))
            await drain()
            assert item in server.suspect_since
            # The refresh itself may have triggered a bound-change
            # DAB_UPDATE; skim to the resync (the frame carrying seqs).
            while True:
                resync = await asyncio.wait_for(stream.receive(), 1.0)
                if resync.get("seqs"):
                    break
            assert resync["seqs"] == {item: 5}
            assert resync["probe"] == [item]
            await server.close()

        run(check())


async def dab_node(kind, policy):
    """A source-facing node with leases on, reliable DAB delivery under
    ``policy`` and every source registered; returns ``(node, close, clock,
    source 0's stream, one of its items)``."""
    clock = StepClock(0.0)
    node, close, item_to_source = await start_node(
        kind, clock=clock, lease_duration=30.0, dab_retry_policy=policy)
    streams = await register_sources(node, item_to_source)
    # Whatever was owed to the sources before they connected (a router
    # programs bounds as soon as its shards attach) was superseded by
    # their registration replies.
    assert node.dab_retries.outstanding == {}
    return node, close, clock, streams[0], owned(item_to_source, 0)[0]


async def check_unacked_update_is_retried_then_acked(kind):
    node, close, clock, stream, item = await dab_node(kind, RetryPolicy(
        base_delay=2.0, backoff=1.0, max_delay=2.0, max_attempts=3))
    await node._send_dab_update(0, {item: 1.5}, {item: 99})
    first = await stream.receive()
    assert first["msg_id"] is not None
    assert len(node.dab_retries.outstanding) == 1
    clock.now = 3.0                          # past due, no ack
    await node.check_retries()
    second = await stream.receive()
    assert second["msg_id"] == first["msg_id"]
    assert node.server_stats()["dab_retries"] == 1
    await stream.send(protocol.dab_ack(0, first["msg_id"]))
    await drain()
    assert node.dab_retries.outstanding == {}
    assert node.stats["dab_acks_received"] == 1
    await close()


async def check_retry_exhaustion_marks_items_suspect(kind):
    node, close, clock, stream, item = await dab_node(kind, RetryPolicy(
        base_delay=1.0, backoff=1.0, max_delay=1.0, max_attempts=2))
    await node._send_dab_update(0, {item: 1.5}, {item: 99})
    await stream.receive()
    for step in (2.0, 4.0, 6.0):
        clock.now = step
        await node.check_retries()
    assert node.dab_retries.outstanding == {}
    assert node.server_stats()["dab_retries_exhausted"] == 1
    assert item in node.suspect_since        # honest degradation
    await close()


async def check_reregistration_supersedes_outstanding(kind):
    node, close, clock, stream, item = await dab_node(kind, RetryPolicy(
        base_delay=1.0, backoff=1.0, max_delay=1.0, max_attempts=2))
    await node._send_dab_update(0, {item: 1.5}, {item: 99})
    await node._send_dab_update(1, {}, {})
    assert len(node.dab_retries.outstanding) == 2
    again = node.connect_loopback()
    await again.send(protocol.register_source(0, [item]))
    assert (await again.receive())["type"] == MessageType.DAB_UPDATE.value
    assert [entry.source_id
            for entry in node.dab_retries.outstanding.values()] == [1]
    assert await stream.receive() is not None   # the update, then...
    assert await stream.receive() is None       # ...displaced
    await close()


class TestDabAckRetry:
    def test_unacked_update_is_retried_then_acked(self):
        run(check_unacked_update_is_retried_then_acked("server"))

    def test_unacked_update_is_retried_then_acked_by_the_router(self):
        run(check_unacked_update_is_retried_then_acked("router"))

    def test_retry_exhaustion_marks_items_suspect(self):
        run(check_retry_exhaustion_marks_items_suspect("server"))

    def test_retry_exhaustion_marks_items_suspect_on_the_shards(self):
        run(check_retry_exhaustion_marks_items_suspect("router"))

    @pytest.mark.parametrize("kind", SOURCE_FACING)
    def test_reregistration_supersedes_outstanding_updates(self, kind):
        run(check_reregistration_supersedes_outstanding(kind))


class TestNoOpGuard:
    def test_default_server_has_no_resilience_surface(self):
        async def check():
            server, _, item_to_source = build_scenario_server(
                query_count=4, item_count=20, source_count=2,
                trace_length=41, seed=1)
            stream = await register(server, item_to_source, 0)
            item = owned(item_to_source, 0)[0]
            snapshot = server._snapshot_response()
            assert "degraded" not in snapshot
            stats = server.server_stats()
            for key in ("suspect_items", "lease_expiries", "dab_retries",
                        "solver_breaker_state"):
                assert key not in stats
            # A gapped heartbeat neither flags nor probes.
            await stream.send(protocol.heartbeat(0, {item: 7}))
            await drain()
            assert server.suspect_since == {}
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(stream.receive(), 0.05)
            await server.check_leases()              # explicit no-ops
            await server.check_retries()
            registration_reply = await register(server, item_to_source, 1)
            await server.close()
            del registration_reply

        run(check())


class FlakyPlanner:
    def __init__(self):
        self.fail = False
        self.inner = UniformAllocationBaseline()

    def plan(self, query, values, recompute_scale=1.0):
        if self.fail:
            raise GPError("solver down")
        return self.inner.plan(query, values)


class TestSolverBreaker:
    def _core(self, breaker):
        scenario = scaled_scenario(query_count=2, item_count=20,
                                   trace_length=21, source_count=2, seed=3)
        items = sorted({v for q in scenario.queries for v in q.variables})
        planner = FlakyPlanner()
        core = CoordinatorCore(
            queries=scenario.queries, planner=planner,
            metrics=MetricsCollector(recompute_cost=1.0),
            initial_values=scenario.traces.initial_values(),
            item_to_source=assign_items_to_sources(items, 2),
            solver_breaker=breaker)
        core.bootstrap()
        return core, planner, scenario.queries[0]

    def test_open_breaker_serves_shrunk_last_good_plan(self):
        clock = StepClock(0.0)
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0,
                                 clock=clock)
        core, planner, query = self._core(breaker)
        assert breaker.state is BreakerState.CLOSED
        good = core.plans[query.name]
        planner.fail = True
        fallback = core._plan_query(query)
        assert fallback is good                      # last good, unshrunk
        assert breaker.state is BreakerState.OPEN
        shrunk = core._plan_query(query)             # breaker now rejects
        assert shrunk is not good
        for name, bound in shrunk.primary.items():
            assert bound == pytest.approx(good.primary[name] * 0.9)
        assert shrunk.secondary == good.secondary

    def test_shrink_does_not_compound(self):
        clock = StepClock(0.0)
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0,
                                 clock=clock)
        core, planner, query = self._core(breaker)
        planner.fail = True
        core._plan_query(query)                      # opens the breaker
        shrunk = core._plan_query(query)
        core.install_plan(query.name, shrunk)        # as _recompute stores it
        again = core._plan_query(query)
        assert again is shrunk                       # identity, not re-shrunk

    def test_half_open_probe_recovers(self):
        clock = StepClock(0.0)
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0,
                                 clock=clock)
        core, planner, query = self._core(breaker)
        planner.fail = True
        core._plan_query(query)
        core._plan_query(query)
        planner.fail = False
        clock.now = 11.0                             # reset timeout elapsed
        recovered = core._plan_query(query)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats["recoveries"] == 1
        assert recovered.primary                     # a real solver plan


class TestFakeClockEndToEnd:
    """The satellite guard: every timestamp the server emits comes from
    the injected clock, never wall time — a leak shows up here as a
    ``sent_at`` around 1.7e9 instead of the logical step value."""

    def test_degraded_fanout_stamps_injected_clock(self):
        async def check():
            clock = StepClock(0.0)
            server, _, item_to_source = build(clock, lease_duration=3.0)
            await register(server, item_to_source, 0)
            subscriber = server.connect_loopback()
            await subscriber.send(protocol.query_sub("*"))
            await subscriber.receive()                   # snapshot
            clock.now = 1.0
            await server.check_leases()
            clock.now = 7.0
            await server.check_leases()                  # leases expire here
            await drain()
            notice = await subscriber.receive()
            assert notice["type"] == MessageType.NOTIFY.value
            assert notice["sent_at"] == 7.0
            await server.close()

        run(check())

    def test_notification_fanout_stamps_injected_clock(self):
        async def check():
            clock = StepClock(0.0)
            server, _, _ = build(clock)
            subscriber = server.connect_loopback()
            await subscriber.send(protocol.query_sub("*"))
            await subscriber.receive()                   # snapshot
            clock.now = 42.0
            name = server.core.queries[0].name
            server._fanout_notifications([(name, 1.0)], None)
            await drain()
            notice = await subscriber.receive()
            assert notice["type"] == MessageType.NOTIFY.value
            assert notice["sent_at"] == 42.0
            await server.close()

        run(check())

    def test_lease_expiry_runs_entirely_on_fake_clock(self, monkeypatch):
        """Wall time is poisoned for the whole path — scoped to the
        server/resilience modules' ``_time`` bindings (asyncio's event
        loop legitimately reads ``time.monotonic``): any leaked
        ``_time.time()``/``_time.monotonic()`` call fails the test."""
        import time as wall

        class _PoisonedTime:
            perf_counter = staticmethod(wall.perf_counter)

            @staticmethod
            def time():
                raise AssertionError(
                    "wall clock consulted on an injected-clock path")

            monotonic = time

        async def check():
            clock = StepClock(0.0)
            breaker = CircuitBreaker(failure_threshold=3, reset_timeout=6.0)
            server, _, item_to_source = build(clock, lease_duration=3.0,
                                              solver_breaker=breaker)
            assert breaker.clock is clock                # bind_clock took
            stream = await register(server, item_to_source, 0)
            subscriber = server.connect_loopback()
            await subscriber.send(protocol.query_sub("*"))
            await subscriber.receive()
            import repro.service.resilience as resilience_mod
            import repro.service.server as server_mod
            monkeypatch.setattr(server_mod, "_time", _PoisonedTime)
            monkeypatch.setattr(resilience_mod, "_time", _PoisonedTime)
            item = owned(item_to_source, 0)[0]
            clock.now = 1.0
            await stream.send(protocol.refresh(0, [item], [42.0], [1]))
            await drain()
            await server.check_leases()
            clock.now = 9.0
            await server.check_leases()                  # expiry + fanout
            await drain()
            assert server.suspect_since
            notice = await subscriber.receive()
            while not notice.get("degraded"):   # skip value NOTIFYs
                notice = await subscriber.receive()
            assert notice["sent_at"] == 9.0
            clock.now = 10.0
            await stream.send(protocol.refresh(0, [item], [43.0], [2]))
            await drain()
            assert item not in server.suspect_since      # recovery, still no wall
            await server.close()

        run(check())
