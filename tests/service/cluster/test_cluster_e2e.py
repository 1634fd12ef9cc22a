"""End-to-end cluster tests over loopback: QAB audit, bit-identity, stats."""

import asyncio

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.router import build_scenario_cluster
from repro.service.loadgen import run_loadgen
from repro.service.protocol import MessageType
from repro.service.resilience import RetryPolicy
from repro.service.server import build_scenario_server


def run(coro):
    return asyncio.run(coro)


SCENARIO = dict(query_count=12, item_count=16, source_count=4,
                trace_length=22, seed=3)


class TestClusterAudit:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_loadgen_audit_passes_with_cross_shard_queries(self, shards):
        report = run_loadgen(
            shards=shards, sources=4, queries=20, items=16, duration=15,
            subscribers=2, seed=1)
        assert report["qab_violations"] == 0
        # The scenario must actually exercise placement and mirroring:
        # every shard homes queries, and some read items they don't own.
        assert sorted(map(int, report["queries_per_shard"])) == list(
            range(shards))
        assert all(count >= 1
                   for count in report["queries_per_shard"].values())
        assert report["mirrored_items"] > 0
        assert len(report["active_shards"]) > 1
        assert report["refreshes_sent"] > 0

    def test_degraded_absent_without_leases(self):
        report = run_loadgen(
            shards=2, sources=4, queries=10, items=16, duration=10,
            subscribers=1, seed=2)
        assert report["qab_violations"] == 0


class TestSingleCoordinatorPrice:
    """The cluster pays one coordinator's message cost at every k — by
    count, not by stopwatch."""

    @pytest.mark.parametrize("queries", [20, 100])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sources_are_programmed_with_one_coordinators_bounds(
            self, shards, queries):
        # Every query is planned whole on its home, so the router's
        # min-merge across shards is EQI's per-item minimum: the bounds
        # a lone coordinator over the same bank merges for itself.
        from repro.filters.assignment import merge_primary

        scenario = dict(query_count=queries, item_count=40, source_count=8,
                        trace_length=5, seed=0)
        server, _, _ = build_scenario_server(**scenario)
        expected = merge_primary(server.core.plans.values())
        cluster, _, _ = build_scenario_cluster(shards=shards, **scenario)

        async def body():
            await cluster.start()
            programmed = dict(cluster._effective_bounds)
            await cluster.close()
            await server.close()
            return programmed

        programmed = run(body())
        assert programmed.keys() == expected.keys()
        for item, bound in expected.items():
            assert programmed[item] == pytest.approx(bound, rel=1e-9, abs=0.0)

    def test_refreshes_sent_do_not_grow_with_the_shard_count(self):
        # Same bounds at the sources -> the same refreshes leave them,
        # however many shards sit behind the router.
        sent = {
            shards: run_loadgen(
                shards=shards, sources=8, queries=100, items=40,
                duration=30, subscribers=1, seed=0)["refreshes_sent"]
            for shards in (1, 2, 4)}
        assert sent[1] > 0
        for shards in (2, 4):
            assert abs(sent[shards] - sent[1]) <= 0.01 * sent[1], sent


class TestSingleShardBitIdentity:
    def test_shards_1_matches_single_server_values_exactly(self):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=1, **SCENARIO)
        server, scenario2, item_to_source2 = build_scenario_server(**SCENARIO)
        assert item_to_source == item_to_source2

        async def drive(target, is_cluster):
            if is_cluster:
                await target.start()
            streams = {}
            for source_id in sorted(set(item_to_source.values())):
                items = sorted(n for n, s in item_to_source.items()
                               if s == source_id)
                stream = target.connect_loopback()
                await stream.send(protocol.register_source(source_id, items))
                await stream.receive()
                streams[source_id] = stream
            seq = {}
            for step in range(1, 20):
                for item in sorted(item_to_source):
                    seq[item] = seq.get(item, 0) + 1
                    source_id = item_to_source[item]
                    value = scenario.traces[item].at(step)
                    await streams[source_id].send(protocol.refresh(
                        source_id, item, value, seq[item]))
                for _ in range(8):
                    await asyncio.sleep(0)
            client = ServiceClient(target.connect_loopback())
            served = await client.subscribe("*")
            await client.close()
            for stream in streams.values():
                stream.close()
            await target.close()
            return served

        served_cluster = run(drive(cluster, True))
        served_single = run(drive(server, False))
        # Same scenario, same refreshes → bitwise-equal served values:
        # shards=1 must add zero float perturbation anywhere.
        assert served_cluster == served_single

    def test_shards_1_decomposition_reuses_query_objects(self):
        cluster, scenario, _ = build_scenario_cluster(shards=1, **SCENARIO)
        for query in scenario.queries:
            dec = cluster.decomposition.decompositions[query.name]
            assert dec.home == 0 and dec.query is query
            assert query in cluster.decomposition.sub_queries_for[0]

        async def close():
            await cluster.close()
        run(close())


class TestTrunkResilience:
    def test_severed_aggregation_trunk_is_resubscribed(self):
        # A shard under a notify storm may evict its subscribers; the
        # router's wildcard trunk must come back on its own (and re-seed
        # partials from the fresh snapshot), or the shard's values
        # silently freeze and the B/k audit breaks at scale.
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, **SCENARIO)

        async def body():
            await cluster.start()
            sid = cluster.decomposition.active_shards[0]
            old_trunk = cluster._trunks[sid].stream
            old_trunk.close()                      # simulate the eviction
            for _ in range(20):
                await asyncio.sleep(0)
            assert cluster.stats["shard_resubscribes"] == 1
            assert cluster._trunks[sid].connected
            assert cluster._trunks[sid].stream is not old_trunk

            # The new trunk serves fresh gathers: a snapshot through the
            # router matches a direct read of each shard.
            client = ServiceClient(cluster.connect_loopback())
            served = await client.subscribe("*")
            await client.close()
            expected = {}
            for shard_id, server in cluster.shards.items():
                values = dict(zip((q.name for q in server.core.queries),
                                  server.core.query_values()))
                for name, value in values.items():
                    expected[name] = expected.get(name, 0.0) + value
            for name, value in expected.items():
                assert served[name] == value
            await cluster.close()

        run(body())

    def test_shard_trunk_queue_is_deeper_than_user_queues(self):
        from repro.service.cluster.router import SHARD_TRUNK_QUEUE_LIMIT

        cluster, scenario, _ = build_scenario_cluster(shards=2, **SCENARIO)
        for server in cluster.shards.values():
            assert server.notify_queue_limit >= SHARD_TRUNK_QUEUE_LIMIT
        assert cluster.notify_queue_limit < SHARD_TRUNK_QUEUE_LIMIT

        async def close():
            await cluster.close()
        run(close())


class TestRouterGivesUpOnDabDelivery:
    def test_unacked_narrowing_degrades_the_queries_over_the_item(self):
        """The shard that planned the narrower bound was acked at once by
        the router, so when the *router* exhausts its retries toward a
        source that never acks, it must flag the item on the shards —
        or a served value could leave its QAB with nobody saying so."""
        now = [0.0]
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, clock=lambda: now[0], lease_duration=1000.0,
            dab_retry_policy=RetryPolicy(base_delay=1.0, backoff=1.0,
                                         max_delay=1.0, max_attempts=2),
            **SCENARIO)

        async def settle():
            for _ in range(20):
                await asyncio.sleep(0)

        async def body():
            await cluster.start()
            streams = {}
            for source_id in sorted(set(item_to_source.values())):
                streams[source_id] = cluster.connect_loopback()
                await streams[source_id].send(protocol.register_source(
                    source_id, sorted(n for n, s in item_to_source.items()
                                      if s == source_id)))
                await streams[source_id].receive()
            client = ServiceClient(cluster.connect_loopback())
            await client.subscribe("*")
            assert client.degraded == {}

            # An item that two shards read, but not every query.
            readers = {item: {q.name for q in scenario.queries
                              if item in q.variables}
                       for item in item_to_source}
            item = next(name for name in sorted(readers)
                        if len(cluster._item_shards[name]) == 2
                        and len(readers[name]) < len(scenario.queries))
            source_id = item_to_source[item]
            await cluster._send_dab_update(source_id, {item: 1e-6}, {item: 99})
            for step in (2.0, 4.0):                  # ...and nobody acks
                now[0] = step
                await cluster.check_retries()
                await settle()
            assert cluster.stats["dab_retries"] == 1
            assert cluster.stats["dab_retries_exhausted"] == 1
            assert set(client.degraded) == readers[item]
            for sid in cluster._item_shards[item]:
                assert list(cluster.shards[sid].suspect_since) == [item]

            # The shards' lease sweep probes for it through the router...
            await cluster.check_leases()
            await settle()
            probes = []
            while not probes:
                message = await streams[source_id].receive()
                probes = message.get("probe") or []
            assert probes == [item]
            # ...and hearing the item again clears the flag.
            await streams[source_id].send(protocol.refresh(
                source_id, item, scenario.traces[item].at(1), seq=1))
            await settle()
            assert client.degraded == {}
            assert cluster.suspect_since == {}
            await client.close()
            await cluster.close()

        run(body())


class TestClusterStats:
    def test_server_stats_reports_cluster_identity(self):
        cluster, scenario, _ = build_scenario_cluster(shards=2, **SCENARIO)

        async def body():
            await cluster.start()
            stats = cluster.server_stats()
            assert stats["cluster"] is True
            assert stats["shard_count"] == 2
            assert set(stats["shards"]) <= {"0", "1"}
            for sid, shard_stats in stats["shards"].items():
                assert shard_stats["shard_id"] == int(sid)
            assert sum(stats["queries_per_shard"].values()) == len(
                scenario.queries)
            await cluster.close()

        run(body())

    def test_single_server_stats_have_shard_id_and_listen_address(self):
        server, scenario, _ = build_scenario_server(**SCENARIO)

        async def body():
            stats = server.server_stats()
            # Present (null) even for loopback embeddings, so dashboards
            # can key on the fields unconditionally.
            assert stats["shard_id"] is None
            assert stats["listen_address"] is None
            host, port = await server.serve_tcp("127.0.0.1", 0)
            stats = server.server_stats()
            assert stats["listen_address"] == [host, port]
            await server.close()

        run(body())

    def test_shard_tags_notify_and_snapshot_frames(self):
        server, scenario, item_to_source = build_scenario_server(
            shard_id=7, **SCENARIO)

        async def body():
            stream = server.connect_loopback()
            await stream.send(protocol.query_sub("*"))
            snap = await stream.receive()
            assert snap["type"] == MessageType.SNAPSHOT.value
            assert snap["shard"] == 7
            stream.close()
            await server.close()

        run(body())

    def test_query_sub_trunk_flag_roundtrips_and_defaults_absent(self):
        trunk = protocol.query_sub("*", trunk=True)
        assert protocol.validate_message(trunk) is MessageType.QUERY_SUB
        assert trunk["trunk"] is True
        # Ordinary subscription frames stay byte-identical.
        assert "trunk" not in protocol.query_sub("*")

    def test_protocol_accepts_and_roundtrips_shard_field(self):
        message = protocol.notify([{"query": "q", "value": 1.0}], shard=3)
        assert protocol.validate_message(message) is MessageType.NOTIFY
        assert message["shard"] == 3
        # Absent when None — single-node frames stay byte-identical.
        plain = protocol.notify([{"query": "q", "value": 1.0}])
        assert "shard" not in plain
