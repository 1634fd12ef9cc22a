"""Journal-backed shard failover: kill/restore cycles keep the cluster sound."""

import asyncio

import pytest

from repro.exceptions import ReproError
from repro.service import protocol
from repro.service.client import ServiceClient
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
                source_id, [item], [traces[item].at(step)], [seq[item]]))
        await _drain()


class TestShardFailover:
    def test_kill_and_restore_replays_journal_and_keeps_serving(self, tmp_path):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"), **SCENARIO)
        supervisor = ShardSupervisor(cluster)

        async def body():
            await cluster.start()
            streams = await _registered_sources(cluster, item_to_source)
            seq = {}
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 12), seq)

            victim = cluster.decomposition.active_shards[0]
            record = await supervisor.kill_and_restore(victim)
            assert record["shard"] == victim
            assert record["records_replayed"] > 0
            assert record["recovery_seconds"] >= 0.0
            assert record["failover_seconds"] >= record["recovery_seconds"]
            assert list(supervisor.recoveries) == [record]
            assert cluster.stats["shard_reattachments"] == 1

            # The restored shard keeps accepting routed refreshes and the
            # cluster still serves every query's value.
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(12, 24), seq)
            client = ServiceClient(cluster.connect_loopback())
            served = await client.subscribe("*")
            assert sorted(served) == sorted(q.name for q in scenario.queries)
            # Post-restore values are within the full budget of the truth:
            # the router recombines shard partials, so a broken replay
            # would show up as an unbounded error here.
            truth_inputs = {item: scenario.traces[item].at(23)
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

    def test_restore_loads_snapshot_when_one_was_cut(self, tmp_path):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"), snapshot_every=5,
            **SCENARIO)
        supervisor = ShardSupervisor(cluster)

        async def body():
            await cluster.start()
            streams = await _registered_sources(cluster, item_to_source)
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 12), {})
            victim = cluster.decomposition.active_shards[0]
            record = await supervisor.kill_and_restore(victim)
            assert record["snapshot_loaded"] is True
            for stream in streams.values():
                stream.close()
            await cluster.close()

        run(body())

    def test_supervisor_requires_journaled_cluster(self):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, **SCENARIO)
        supervisor = ShardSupervisor(cluster)

        async def body():
            await cluster.start()
            victim = cluster.decomposition.active_shards[0]
            with pytest.raises(ReproError):
                await supervisor.kill(victim)
            await cluster.close()

        run(body())

    def test_supervisor_rejects_unknown_shard(self, tmp_path):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"), **SCENARIO)
        supervisor = ShardSupervisor(cluster)

        async def body():
            await cluster.start()
            with pytest.raises(ReproError):
                await supervisor.kill(99)
            await cluster.close()

        run(body())
