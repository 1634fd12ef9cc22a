"""Heartbeat failure detection and automatic failover (self-healing)."""

import asyncio

import pytest

from repro.exceptions import ReproError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.health import ShardHealthMonitor
from repro.service.cluster.router import build_scenario_cluster
from repro.service.cluster.supervisor import ShardSupervisor


def run(coro):
    return asyncio.run(coro)


SCENARIO = dict(query_count=12, item_count=16, source_count=4,
                trace_length=40, seed=3)


async def _drain(rounds=10):
    for _ in range(rounds):
        await asyncio.sleep(0)


async def _registered_sources(cluster, item_to_source):
    streams = {}
    for source_id in sorted(set(item_to_source.values())):
        items = sorted(n for n, s in item_to_source.items()
                       if s == source_id)
        stream = cluster.connect_loopback()
        await stream.send(protocol.register_source(source_id, items))
        await stream.receive()
        streams[source_id] = stream
    return streams


async def _push_steps(streams, item_to_source, traces, steps, seq):
    for step in steps:
        for item in sorted(item_to_source):
            seq[item] = seq.get(item, 0) + 1
            source_id = item_to_source[item]
            await streams[source_id].send(protocol.refresh(
                source_id, item, traces[item].at(step), seq[item]))
        await _drain()


class _FakeTrunk:
    """A live trunk: ``stream`` records what the monitor sends on it."""

    connected = True

    def __init__(self):
        self.sent = []
        self.stream = self


class _FakeCluster:
    """Just enough router surface for the pure detector-logic tests."""

    def __init__(self, shard_ids=(0, 1)):
        self.shards = {sid: object() for sid in shard_ids}
        self.shard_last_seen = {}
        self._trunks = {sid: _FakeTrunk() for sid in shard_ids}
        self.clock = lambda: 0.0
        self.health = None
        self.suspects = []
        self.cleared = []
        self.send_ok = True

    async def _safe_send(self, stream, message):
        if not self.send_ok:
            return False
        stream.sent.append(message)
        return True

    def mark_shard_suspect(self, sid):
        self.suspects.append(sid)

    def clear_shard_suspect(self, sid):
        self.cleared.append(sid)


class _FakeSupervisor:
    def __init__(self):
        self.failed_over = []

    async def fail_over(self, sid):
        self.failed_over.append(sid)
        return {"shard": sid, "records_replayed": 7}


class TestDetectorLogic:
    def test_constructor_guards(self):
        cluster = _FakeCluster()
        with pytest.raises(ReproError):
            ShardHealthMonitor(cluster)  # auto_failover without supervisor
        with pytest.raises(ReproError):
            ShardHealthMonitor(cluster, auto_failover=False, deadline=0.0)
        with pytest.raises(ReproError):
            ShardHealthMonitor(cluster, auto_failover=False, max_misses=0)

    def test_healthy_shards_accrue_no_misses_and_no_probes(self):
        cluster = _FakeCluster()
        monitor = ShardHealthMonitor(cluster, auto_failover=False,
                                     deadline=2.0, max_misses=2)
        cluster.shard_last_seen = {0: 9.0, 1: 10.0}
        records = run(monitor.poll(now=10.0))
        assert records == []
        assert monitor.misses == {}
        assert monitor.suspected_at == {}
        assert all(not trunk.sent for trunk in cluster._trunks.values())

    def test_silent_shard_is_probed_then_suspected_at_max_misses(self):
        cluster = _FakeCluster()
        monitor = ShardHealthMonitor(cluster, auto_failover=False,
                                     deadline=2.0, max_misses=2)
        cluster.shard_last_seen = {0: 0.0, 1: 10.0}
        run(monitor.poll(now=10.0))
        # First miss: probed (read-only SNAPSHOT down the trunk), not
        # yet suspected — a quiet-but-healthy shard can answer.
        assert monitor.misses == {0: 1}
        assert [m["type"] for m in cluster._trunks[0].sent] == ["snapshot"]
        assert cluster.suspects == []
        run(monitor.poll(now=11.0))
        assert monitor.misses == {0: 2}
        assert cluster.suspects == [0]
        assert monitor.suspected_at == {0: 11.0}
        # Staying suspect does not re-fire the suspicion.
        run(monitor.poll(now=12.0))
        assert cluster.suspects == [0]
        assert monitor.stats["suspicions"] == 1

    def test_trunk_life_clears_suspicion_and_records_the_event(self):
        cluster = _FakeCluster()
        monitor = ShardHealthMonitor(cluster, auto_failover=False,
                                     deadline=2.0, max_misses=1)
        cluster.shard_last_seen = {0: 0.0, 1: 10.0}
        run(monitor.poll(now=10.0))
        assert monitor.suspected_at == {0: 10.0}
        cluster.shard_last_seen[0] = 13.0
        cluster.shard_last_seen[1] = 13.0
        records = run(monitor.poll(now=13.0))
        assert records == []
        assert monitor.suspected_at == {}
        assert cluster.cleared == [0]
        assert monitor.events == [{
            "shard": 0, "suspected_at": 10.0, "recovered_at": 13.0,
            "detection_to_recovery": 3.0,
        }]
        assert monitor.stats["recoveries"] == 1

    def test_suspicion_triggers_auto_failover(self):
        cluster = _FakeCluster()
        supervisor = _FakeSupervisor()
        monitor = ShardHealthMonitor(cluster, supervisor,
                                     deadline=2.0, max_misses=1)
        cluster.shard_last_seen = {0: 0.0, 1: 10.0}
        cluster.send_ok = False  # dead trunk: even the probe fails
        records = run(monitor.poll(now=10.0))
        assert supervisor.failed_over == [0]
        assert len(records) == 1
        assert records[0]["shard"] == 0
        assert records[0]["detected_at"] == 10.0
        assert records[0]["misses"] == 1
        assert monitor.stats["failovers"] == 1
        snapshot = monitor.stats_snapshot()
        assert snapshot["suspect_shards"] == [0]
        assert snapshot["auto_failover"] is True


class TestSelfHealing:
    def test_crashed_shard_is_detected_restored_and_cluster_stays_sound(
            self, tmp_path):
        now = [0.0]
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"),
            clock=lambda: now[0], **SCENARIO)
        supervisor = ShardSupervisor(cluster)
        monitor = ShardHealthMonitor(cluster, supervisor,
                                     clock=lambda: now[0],
                                     deadline=2.0, max_misses=2)

        async def body():
            await cluster.start()
            streams = await _registered_sources(cluster, item_to_source)
            seq = {}
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 10), seq)

            victim = cluster.decomposition.active_shards[0]
            # An *undetected* crash: the process dies but nothing tells
            # the router — only the heartbeat detector can notice.
            await supervisor.crash(victim)
            # Poll every "second" with a 2-second deadline: the healthy
            # shard answers each probe before its next poll, so only the
            # corpse accrues misses.
            failovers = []
            for _ in range(10):
                now[0] += 1.0
                failovers.extend(await monitor.poll())
                await _drain()
                if failovers:
                    break
            assert [r["shard"] for r in failovers] == [victim]
            assert failovers[0]["records_replayed"] > 0
            assert monitor.stats["suspicions"] == 1

            # The healed shard answers again: suspicion clears on the
            # next poll that sees trunk life, and the event is logged.
            now[0] += 1.0
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(10, 20), seq)
            await monitor.poll()
            assert monitor.suspected_at == {}
            assert monitor.stats["recoveries"] == 1
            assert len(monitor.events) == 1
            assert monitor.events[0]["detection_to_recovery"] > 0.0

            client = ServiceClient(cluster.connect_loopback())
            served = await client.subscribe("*")
            truth_inputs = {item: scenario.traces[item].at(19)
                            for item in item_to_source}
            for query in scenario.queries:
                truth = query.evaluate(truth_inputs)
                assert abs(served[query.name] - truth) <= (
                    query.qab * (1.0 + 1e-9) + 1e-12)
            await client.close()
            for stream in streams.values():
                stream.close()
            await cluster.close()

        run(body())

    def test_no_failure_run_is_bit_identical_with_monitor_attached(
            self, tmp_path):
        """Acceptance: auto-failover enabled but never triggered must not
        perturb a single served bit vs the manual-supervisor cluster."""

        async def served_values(with_monitor):
            now = [0.0]
            cluster, scenario, item_to_source = build_scenario_cluster(
                shards=2, journal_dir=str(tmp_path / f"wal{with_monitor}"),
                clock=lambda: now[0], **SCENARIO)
            supervisor = ShardSupervisor(cluster)
            monitor = None
            if with_monitor:
                monitor = ShardHealthMonitor(cluster, supervisor,
                                             clock=lambda: now[0],
                                             deadline=5.0, max_misses=2)
            await cluster.start()
            streams = await _registered_sources(cluster, item_to_source)
            seq = {}
            for step in range(1, 15):
                now[0] = float(step)
                await _push_steps(streams, item_to_source, scenario.traces,
                                  [step], seq)
                if monitor is not None:
                    await monitor.poll()
                    await _drain()
            client = ServiceClient(cluster.connect_loopback())
            served = await client.subscribe("*")
            if monitor is not None:
                assert monitor.stats["suspicions"] == 0
                assert monitor.stats["failovers"] == 0
            await client.close()
            for stream in streams.values():
                stream.close()
            await cluster.close()
            return served

        plain = run(served_values(False))
        monitored = run(served_values(True))
        assert plain == monitored  # bitwise: dict of floats, == is exact
