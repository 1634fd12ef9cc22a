"""The NOTIFY fan-out broker tier: caching, fan-out, eviction."""

import asyncio

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.broker import BrokerTier, NotifyBroker
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server


def run(coro):
    return asyncio.run(coro)


SCENARIO = dict(query_count=8, item_count=16, source_count=2,
                trace_length=22, seed=5)


async def _drain(rounds=10):
    for _ in range(rounds):
        await asyncio.sleep(0)


async def _registered_sources(target, item_to_source):
    streams = {}
    for source_id in sorted(set(item_to_source.values())):
        items = sorted(n for n, s in item_to_source.items()
                       if s == source_id)
        stream = target.connect_loopback()
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


class TestNotifyBroker:
    def test_snapshot_served_from_cache_matches_upstream(self):
        server, scenario, item_to_source = build_scenario_server(**SCENARIO)

        async def body():
            broker = NotifyBroker(server.connect_loopback)
            await broker.start()
            direct = ServiceClient(server.connect_loopback())
            await direct.subscribe("*")
            streams = await _registered_sources(server, item_to_source)
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 15), {})
            await _drain(20)

            # The broker's cache holds exactly what a same-age direct
            # subscriber holds (initial snapshot + the same NOTIFY
            # frames) — cache interposition is value-transparent.
            assert broker.values == direct.values
            via_broker = ServiceClient(broker.connect_loopback())
            broker_values = await via_broker.subscribe("*")
            assert broker_values == broker.values
            assert server.stats["subscribers"] == 2  # broker + direct

            await direct.close()
            await via_broker.close()
            for stream in streams.values():
                stream.close()
            await broker.close()
            await server.close()

        run(body())

    def test_forwards_notifies_downstream(self):
        server, scenario, item_to_source = build_scenario_server(**SCENARIO)

        async def body():
            broker = NotifyBroker(server.connect_loopback)
            await broker.start()
            client = ServiceClient(broker.connect_loopback())
            await client.subscribe("*")
            streams = await _registered_sources(server, item_to_source)
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 20), {})
            await _drain(20)
            assert broker.stats["upstream_notifies"] > 0
            assert client.notifies_received > 0
            assert broker.stats["notifies_sent"] >= client.notifies_received
            await client.close()
            for stream in streams.values():
                stream.close()
            await broker.close()
            await server.close()

        run(body())

    def test_slow_consumer_evicted_without_blocking_others(self):
        from repro.service.transports import loopback_pair

        async def body():
            # A hand-rolled upstream gives deterministic NOTIFY volume.
            client_end, server_end = loopback_pair()
            broker = NotifyBroker(lambda: client_end, notify_queue_limit=1)
            started = asyncio.ensure_future(broker.start())
            sub_req = await server_end.receive()
            assert sub_req["type"] == MessageType.QUERY_SUB.value
            await server_end.send(protocol.snapshot(values={"q": 1.0}))
            await started

            healthy = ServiceClient(broker.connect_loopback())
            await healthy.subscribe("*")
            # A subscriber that never reads: its bounded queue fills and
            # the broker must cut it loose, not stall the tier.
            slow_stream = broker.connect_loopback()
            await slow_stream.send(protocol.query_sub("*"))
            first = await slow_stream.receive()
            assert first["type"] == MessageType.SNAPSHOT.value
            slow_sub = broker._subscribers[max(broker._subscribers)]
            slow_sub.writer_task.cancel()          # simulate a stuck writer
            await _drain()

            for i in range(6):
                await server_end.send(protocol.notify(
                    [{"query": "q", "value": float(i)}], sent_at=float(i)))
                await _drain()
            assert broker.stats["slow_consumer_evictions"] == 1
            assert slow_sub.sub_id not in broker._subscribers
            assert healthy.notifies_received >= 6
            assert healthy.values["q"] == 5.0
            await healthy.close()
            server_end.close()
            await broker.close()

        run(body())

    def test_upstream_subscription_is_a_trunk_with_deep_queue(self):
        from repro.service.frontend import TRUNK_QUEUE_LIMIT

        server, scenario, item_to_source = build_scenario_server(
            notify_queue_limit=2, **SCENARIO)

        async def body():
            broker = NotifyBroker(server.connect_loopback)
            await broker.start()
            direct = ServiceClient(server.connect_loopback())
            await direct.subscribe("*")
            # The broker asked for trunk treatment; ordinary clients
            # keep the user-facing slow-consumer limit.
            limits = sorted(sub.queue.maxsize
                            for sub in server._subscribers.values())
            assert limits == [2, TRUNK_QUEUE_LIMIT]
            await direct.close()
            await broker.close()
            await server.close()

        run(body())

    def test_severed_upstream_is_resubscribed_and_reseeded(self):
        server, scenario, item_to_source = build_scenario_server(**SCENARIO)

        async def body():
            broker = NotifyBroker(server.connect_loopback)
            await broker.start()
            streams = await _registered_sources(server, item_to_source)
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 10), {})
            await _drain(20)

            old_upstream = broker._upstream
            old_upstream.close()                   # simulate an eviction
            await _drain(20)
            assert broker.stats["upstream_resubscribes"] == 1
            assert broker._upstream is not None
            assert broker._upstream is not old_upstream

            # The fresh initial snapshot re-seeded the cache, and new
            # NOTIFY frames flow through the replacement subscription.
            expected = dict(zip((q.name for q in server.core.queries),
                                server.core.query_values()))
            assert broker.values == expected
            before = broker.stats["upstream_notifies"]
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(10, 20), {n: 9 for n in item_to_source})
            await _drain(20)
            assert broker.stats["upstream_notifies"] > before

            for stream in streams.values():
                stream.close()
            await broker.close()
            # A deliberate close must NOT trigger a resubscribe.
            await _drain(10)
            assert broker.stats["upstream_resubscribes"] == 1
            await server.close()

        run(body())

    def test_rejects_query_definitions(self):
        server, scenario, item_to_source = build_scenario_server(**SCENARIO)

        async def body():
            broker = NotifyBroker(server.connect_loopback)
            await broker.start()
            stream = broker.connect_loopback()
            await stream.send(protocol.query_sub(
                "*", definitions=[{"name": "q", "terms": [], "qab": 1.0}]))
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            stream.close()
            await broker.close()
            await server.close()

        run(body())


class TestBrokerTier:
    def test_round_robin_spreads_subscribers(self):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, **SCENARIO)

        async def body():
            await cluster.start()
            tier = BrokerTier(cluster.connect_loopback, brokers=3)
            await tier.start()
            clients = []
            for _ in range(6):
                client = ServiceClient(tier.connect_loopback())
                await client.subscribe("*")
                clients.append(client)
            per_broker = [b.stats["subscribers"] for b in tier.brokers]
            assert per_broker == [2, 2, 2]
            stats = tier.stats()
            assert stats["brokers"] == 3
            assert stats["subscribers"] == 6
            for client in clients:
                await client.close()
            await tier.close()
            await cluster.close()

        run(body())
