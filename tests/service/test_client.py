"""The subscriber client: one contract, three users.

``ServiceClient`` is the SDK *and* the receiving end of the service's own
NOTIFY streams — the router's shard trunks and a broker's upstream are
subclasses of it.  The first half plays the node by hand over a link and
holds the plain client to the contract (seed, FIFO replies, absorb, loss,
re-open, refusals, close); the second half runs the cases that matter
inside a node against a broker's upstream and a router's trunk.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.broker import NotifyBroker
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import MessageType, ProtocolError
from repro.service.server import build_scenario_server
from repro.service.transports import inprocess_pair

from tests.service.nodes import NODE_KINDS, SCENARIO, connect, start_node


def run(coro):
    return asyncio.run(coro)


async def _drain(rounds=20):
    for _ in range(rounds):
        await asyncio.sleep(0)


class Watched(ServiceClient):
    """Counts the loss hook."""

    lost = 0

    def _on_lost(self):
        self.lost += 1


async def answer_subscription(server_end, **snapshot):
    """Play the node's half of the handshake; returns the QUERY_SUB."""
    request = await server_end.receive()
    assert request["type"] == MessageType.QUERY_SUB.value
    await server_end.send(protocol.snapshot(**snapshot))
    return request


async def subscribed(cls=Watched, **snapshot):
    """``(client, server_end)``, the subscription already answered."""
    client_end, server_end = inprocess_pair()
    client = cls(client_end)
    pending = asyncio.ensure_future(client.subscribe("*"))
    await answer_subscription(server_end, **snapshot)
    await pending
    return client, server_end


class TestContract:
    def test_subscribe_seeds_values_degraded_and_stats(self):
        async def body():
            client_end, server_end = inprocess_pair()
            client = ServiceClient(client_end)
            pending = asyncio.ensure_future(
                client.subscribe(["q", "r"], trunk=True))
            request = await answer_subscription(
                server_end, values={"q": 1.0, "r": 2.0},
                stats={"refreshes": 7}, degraded={"q": 4.0})
            assert request == protocol.query_sub(["q", "r"], trunk=True)
            assert await pending == {"q": 1.0, "r": 2.0}
            assert client.values == {"q": 1.0, "r": 2.0}
            assert client.degraded == {"q": 4.0}
            assert client.stats_seen == {"refreshes": 7}
            assert client.connected
            await client.close()
            assert not client.connected

        run(body())

    def test_an_ordinary_subscription_does_not_claim_a_trunk(self):
        async def body():
            client_end, server_end = inprocess_pair()
            client = ServiceClient(client_end)
            pending = asyncio.ensure_future(client.subscribe("*"))
            request = await answer_subscription(server_end, values={})
            assert "trunk" not in request
            await pending
            await client.close()

        run(body())

    def test_snapshot_replies_resolve_in_request_order(self):
        async def body():
            client, server_end = await subscribed(values={"q": 0.0})
            first = asyncio.ensure_future(client.request_snapshot())
            second = asyncio.ensure_future(client.request_snapshot())
            for _ in range(2):
                request = await server_end.receive()
                assert request == protocol.snapshot()
            await server_end.send(protocol.snapshot(values={"q": 1.0}))
            await server_end.send(protocol.snapshot(values={"q": 2.0}))
            assert await first == {"q": 1.0}
            assert await second == {"q": 2.0}
            assert client.values == {"q": 2.0}
            await client.close()

        run(body())

    def test_unsolicited_snapshot_is_absorbed_with_its_degraded_map(self):
        async def body():
            client, server_end = await subscribed(values={"q": 0.0})
            await server_end.send(protocol.snapshot(
                values={"q": 3.0}, degraded={"q": 9.0}, stats={"n": 1}))
            await _drain()
            assert client.values == {"q": 3.0}
            assert client.degraded == {"q": 9.0}
            assert client.stats_seen == {"n": 1}
            # ... and the next reply still goes to the next request.
            pending = asyncio.ensure_future(client.request_snapshot())
            await server_end.receive()
            await server_end.send(protocol.snapshot(values={"q": 4.0},
                                                    degraded={}))
            assert await pending == {"q": 4.0}
            assert client.degraded == {}
            await client.close()

        run(body())

    def test_link_loss_fires_the_hook_once_and_fails_pending_requests(self):
        async def body():
            client, server_end = await subscribed(values={"q": 0.0})
            pending = asyncio.ensure_future(client.request_snapshot())
            await server_end.receive()
            server_end.close()                        # the node hangs up
            with pytest.raises(ProtocolError, match="connection closed"):
                await pending
            await _drain()
            assert client.lost == 1
            assert not client.connected
            assert client.stream.closed
            # A request on the dead link fails at once instead of hanging.
            with pytest.raises(ProtocolError):
                await asyncio.wait_for(client.request_snapshot(), 1.0)
            await client.close()
            await _drain()
            assert client.lost == 1

        run(body())

    def test_close_is_not_a_loss(self):
        async def body():
            client, server_end = await subscribed(values={"q": 0.0})
            await client.close()
            server_end.close()
            await _drain()
            assert client.lost == 0

        run(body())

    def test_reopen_keeps_the_tables_and_the_fresh_snapshot_reseeds_them(self):
        async def body():
            client, server_end = await subscribed(
                values={"a": 1.0, "b": 2.0}, degraded={"a": 8.0})
            await server_end.send(protocol.notify([{"query": "a",
                                                    "value": 5.0}]))
            await _drain()
            server_end.close()
            await _drain()
            assert client.lost == 1
            # A stale value beats none while the link is down.
            assert client.values == {"a": 5.0, "b": 2.0}
            assert client.degraded == {"a": 8.0}

            client_end, server_end = inprocess_pair()
            reopening = client.reopen(client_end)
            request = await answer_subscription(
                server_end, values={"a": 7.0}, degraded={})
            assert request == protocol.query_sub("*")     # as before
            assert await reopening is True
            assert client.values == {"a": 7.0, "b": 2.0}
            assert client.degraded == {}
            assert client.connected and client.stream is client_end

            # Answered, so armed again: the next loss is reported too.
            server_end.close()
            await _drain()
            assert client.lost == 2
            await client.close()

        run(body())

    @pytest.mark.parametrize("refusal", ["error", "eof"])
    def test_a_refused_resubscription_is_not_rearmed(self, refusal):
        async def body():
            client, server_end = await subscribed(values={"q": 1.0})
            server_end.close()
            await _drain()
            assert client.lost == 1

            client_end, server_end = inprocess_pair()
            reopening = client.reopen(client_end)
            await server_end.receive()
            if refusal == "error":
                await server_end.send(protocol.error("go away"))
            server_end.close()
            assert await reopening is False
            await _drain()
            assert client.lost == 1                   # not "lost" again
            assert not client.connected
            assert client.values == {"q": 1.0}
            await client.close()

        run(body())

    def test_a_refused_request_carries_the_nodes_reason(self):
        async def body():
            client, server_end = await subscribed(values={"q": 1.0})
            pending = asyncio.ensure_future(client.request_snapshot())
            await server_end.receive()
            await server_end.send(protocol.error("not today"))
            with pytest.raises(ProtocolError, match="not today"):
                await pending
            await client.close()

        run(body())

    def test_cancelling_a_task_that_is_closing_a_client_cancels_it(self):
        class Wedged:
            """A stream whose reader never notices the hang-up."""

            def __init__(self):
                self.inbox = asyncio.Queue()

            async def send(self, message):
                self.inbox.put_nowait(protocol.snapshot(values={}))

            async def receive(self):
                return await self.inbox.get()

            def close(self):
                pass

        async def body():
            client = ServiceClient(Wedged(), close_timeout=30.0)
            await client.subscribe("*")
            closer = asyncio.ensure_future(client.close())
            await _drain(3)                   # now waiting on the listener
            assert not closer.done()
            closer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await closer
            assert closer.cancelled()
            assert not client.connected       # the listener went with it

        run(body())


#: kind → (a QUERY_SUB the node turns down, what its ERROR says).
def _refused_subscription(kind, node):
    if kind == "server":
        taken = dict(protocol.query_to_wire(node.core.queries[0]), qab=123.0)
        return [taken], "already registered with a different definition"
    wire = {"name": "q", "qab": 1.0,
            "terms": [{"weight": 1.0, "exponents": {"x0": 1}}]}
    return [wire], {"router": "does not accept QUERY_SUB definitions",
                    "broker": "brokers are read-only"}[kind]


@pytest.mark.parametrize("kind", NODE_KINDS)
def test_a_refused_subscription_raises_the_nodes_reason(kind):
    async def body():
        node, close, _ = await start_node(kind)
        definitions, reason = _refused_subscription(kind, node)
        client = ServiceClient(connect(node))
        with pytest.raises(ProtocolError, match=reason):
            await client.subscribe([], definitions=definitions)
        await client.close()
        await close()

    run(body())


# ---------------------------------------------------------------------------
# the same client inside a node: a broker's upstream, a router's trunk
# ---------------------------------------------------------------------------

IN_SERVER = ("broker", "router")


async def in_server(kind):
    """A started node and the handles on *its own* subscription: the
    ``feeder`` that publishes to it, the ``client`` under test, its live
    ``stream()``, the counters, and one cached ``name`` with a way to
    read (``held``) and overwrite (``poison``) the value held for it."""
    if kind == "broker":
        feeder, _, _ = build_scenario_server(**SCENARIO)
        node = NotifyBroker(feeder.connect_loopback)
        await node.start()
        name = feeder.core.queries[0].name

        async def close():
            await node.close()
            await feeder.close()

        return SimpleNamespace(
            node=node, feeder=feeder, close=close, name=name, stamps={},
            client=lambda: node._client, stream=lambda: node._upstream,
            resubscribes="upstream_resubscribes", received="upstream_notifies",
            held=lambda: node.values[name],
            poison=lambda: node.values.__setitem__(name, -1.0))
    node, _, _ = build_scenario_cluster(shards=2, **SCENARIO)
    await node.start()
    sid = node.decomposition.active_shards[0]
    feeder = node.shards[sid]
    name = feeder.core.queries[0].name
    return SimpleNamespace(
        node=node, feeder=feeder, close=node.close, name=name,
        stamps={"shard": sid},
        client=lambda: node._trunks[sid],
        stream=lambda: (node._trunks[sid].stream
                        if node._trunks[sid].connected else None),
        resubscribes="shard_resubscribes", received="partial_notifies",
        held=lambda: node._served[name],
        poison=lambda: node._served.__setitem__(name, -1.0))


def _served(feeder, name):
    return dict(zip((q.name for q in feeder.core.queries),
                    feeder.core.query_values()))[name]


@pytest.mark.parametrize("kind", IN_SERVER)
def test_a_lost_subscription_is_reopened_and_reseeded(kind):
    async def body():
        wired = await in_server(kind)
        old = wired.stream()
        wired.poison()                        # staleness the re-seed heals
        old.close()                           # as an eviction would
        await _drain(40)
        assert wired.node.stats[wired.resubscribes] == 1
        assert wired.stream() is not None and wired.stream() is not old
        assert wired.held() == _served(wired.feeder, wired.name)
        # The replacement carries NOTIFYs like the original did.
        before = wired.node.stats[wired.received]
        wired.feeder._publish([{"query": wired.name, "value": 42.0}],
                              **wired.stamps)
        await _drain(40)
        assert wired.node.stats[wired.received] == before + 1
        assert wired.held() == 42.0
        await wired.close()
        await _drain()
        assert wired.node.stats[wired.resubscribes] == 1     # close ≠ loss

    run(body())


@pytest.mark.parametrize("kind", IN_SERVER)
def test_an_in_server_client_keeps_no_per_message_state(kind):
    async def body():
        wired = await in_server(kind)
        for count in range(1000):
            wired.feeder._publish(
                [{"query": wired.name, "value": float(count)}],
                sent_at=1.0, refresh_sent_at=1.0, **wired.stamps)
            if count % 100 == 99:
                await _drain(400)
        await _drain(400)
        assert wired.node.stats[wired.received] == 1000
        assert wired.held() == 999.0
        client = wired.client()
        assert client.latencies == [] and client._snapshot_waiters == []
        await wired.close()

    run(body())


@pytest.mark.parametrize("script", ["refuses_from_the_start",
                                    "answers_once_then_refuses"])
def test_a_broker_does_not_redial_an_upstream_that_refuses(script):
    links = []

    async def play(server_end, accept):
        await server_end.receive()
        if accept:
            await server_end.send(protocol.snapshot(values={"q": 1.0}))
            await _drain(5)
        else:
            await server_end.send(protocol.error("no subscriptions here"))
        server_end.close()

    def connect_upstream():
        client_end, server_end = inprocess_pair()
        accept = script == "answers_once_then_refuses" and not links
        links.append(asyncio.ensure_future(play(server_end, accept)))
        return client_end

    async def body():
        broker = NotifyBroker(connect_upstream)
        if script == "refuses_from_the_start":
            with pytest.raises(ProtocolError, match="no subscriptions here"):
                await broker.start()
        else:
            await broker.start()
        await _drain(400)
        # One link per subscription the broker had reason to attempt —
        # not one per refusal, as fast as the upstream can refuse.
        assert len(links) == (1 if script == "refuses_from_the_start" else 2)
        assert broker.stats["upstream_resubscribes"] == len(links) - 1
        assert broker._upstream is None
        assert broker.values == ({"q": 1.0} if len(links) == 2 else {})
        await broker.close()

    run(body())


class TestTrunkAdmission:
    """What a router's trunk refuses to let near the partial table."""

    @staticmethod
    async def _fenced_cluster():
        wired = await in_server("router")
        cluster = wired.node
        # A cutover the shards have not heard of: their frames now carry
        # an older (here: no) map epoch.
        cluster.shard_map = cluster.shard_map.rebalance({})
        assert cluster.map_epoch == 1
        return wired, cluster

    def test_a_stale_map_epoch_notify_changes_no_partial(self):
        async def body():
            wired, cluster = await self._fenced_cluster()
            before = wired.held()
            wired.feeder._publish([{"query": wired.name, "value": 1e9}],
                                  **wired.stamps)
            await _drain(40)
            assert cluster.stats["fenced_frames_rejected"] == 1
            assert cluster.stats["partial_notifies"] == 0
            assert wired.held() == before
            await wired.close()

        run(body())

    def test_a_foreign_shard_notify_changes_no_partial(self):
        async def body():
            wired = await in_server("router")
            cluster = wired.node
            before = wired.held()
            wired.feeder._publish([{"query": wired.name, "value": 1e9}],
                                  shard=wired.stamps["shard"] + 1)
            await _drain(40)
            assert cluster.stats["shard_frame_mismatches"] == 1
            assert cluster.stats["partial_notifies"] == 0
            assert wired.held() == before
            await wired.close()

        run(body())

    def test_a_fenced_snapshot_reply_makes_the_gather_fall_back_at_once(self):
        async def body():
            wired, cluster = await self._fenced_cluster()
            held = dict(cluster._served)
            client = ServiceClient(cluster.connect_loopback())
            # Far inside SNAPSHOT_GATHER_TIMEOUT (5 s per shard).
            served = await asyncio.wait_for(client.subscribe("*"), 1.0)
            assert cluster.stats["snapshot_gather_fallbacks"] == len(
                cluster.shards)
            assert cluster.stats["fenced_frames_rejected"] == len(
                cluster.shards)
            assert served == held
            await client.close()
            await wired.close()

        run(body())
