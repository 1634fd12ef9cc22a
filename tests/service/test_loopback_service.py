"""End-to-end service tests in one process, no sockets — the CI-safe half
of the transport matrix (the TCP smoke test lives in ``test_tcp_smoke.py``).

``connect_loopback()`` rides the in-process message link (message objects,
no bytes); the cases that need real protocol bytes and the real
FrameDecoder build a ``loopback_pair()`` and hand its server end to
``adopt_connection``.  ``TestStreamLifecycle`` holds the two to one
lifecycle.

The front-end contract (``repro.service.frontend``: protocol policing,
backpressure, per-subscriber filtering, refusing peers once closed) is
one ``check_*`` body per case, run against the server under the case's
historical test name and against the cluster router and a broker as
parameters of the test next to it.
"""

import asyncio

import pytest

from repro.service import protocol
from repro.service.protocol import MessageType, PROTOCOL_VERSION
from repro.service.server import build_scenario_server
from repro.service.transports import (
    InprocessLink,
    TransportClosed,
    inprocess_pair,
    loopback_pair,
)
from tests.service.nodes import (
    NODE_KINDS,
    connect,
    start_node,
    subscribe,
    wedged_subscriber,
)

OTHER_NODES = [kind for kind in NODE_KINDS if kind != "server"]


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def scenario_server():
    server, scenario, item_to_source = build_scenario_server(
        query_count=4, item_count=20, source_count=2, trace_length=41, seed=1)
    return server, scenario, item_to_source


def owned_items(item_to_source, source_id):
    return sorted(n for n, s in item_to_source.items() if s == source_id)


async def registered_stream(server, scenario, item_to_source, source_id=0):
    stream = server.connect_loopback()
    await stream.send(protocol.register_source(
        source_id, owned_items(item_to_source, source_id)))
    reply = await stream.receive()
    assert reply["type"] == MessageType.DAB_UPDATE.value
    return stream, reply


class TestSourcePlane:
    def test_register_replies_with_current_dabs(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            stream, reply = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            owned = owned_items(item_to_source, 0)
            assert sorted(reply["bounds"]) == owned
            assert all(bound > 0 for bound in reply["bounds"].values())
            assert sorted(reply["epochs"]) == owned
            await server.close()

        run(body())

    def test_refresh_updates_cache_and_notifies_subscriber(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            stream, reply = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            sub_stream = server.connect_loopback()
            await sub_stream.send(protocol.query_sub("*"))
            snapshot = await sub_stream.receive()
            assert snapshot["type"] == MessageType.SNAPSHOT.value
            assert len(snapshot["values"]) == len(scenario.queries)

            item = owned_items(item_to_source, 0)[0]
            old = server.core.cache[item]
            await stream.send(protocol.refresh(0, item, old * 10.0, seq=1))
            notify = await asyncio.wait_for(sub_stream.receive(), timeout=5)
            assert notify["type"] == MessageType.NOTIFY.value
            assert notify["updates"]
            assert server.core.cache[item] == old * 10.0
            await server.close()

        run(body())

    def test_duplicate_and_stale_refresh_seq_rejected(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            stream, _ = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            item = owned_items(item_to_source, 0)[0]
            await stream.send(protocol.refresh(0, item, 100.0, seq=5))
            await stream.send(protocol.refresh(0, item, 200.0, seq=5))  # dup
            await stream.send(protocol.refresh(0, item, 300.0, seq=4))  # stale
            # A snapshot round trip orders us after the three refreshes
            # (the first refresh may push a DAB_UPDATE at us on the way).
            await stream.send(protocol.snapshot())
            while True:
                reply = await stream.receive()
                if reply["type"] == MessageType.SNAPSHOT.value:
                    break
            assert server.core.cache[item] == 100.0
            assert server.stats["refreshes_accepted"] == 1
            assert server.stats["refreshes_rejected_stale_seq"] == 2
            assert server.metrics.duplicate_rejects == 2
            await server.close()

        run(body())

    def test_reregister_takes_over_the_source(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            first, _ = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            second, reply = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            assert server.stats["sources_registered"] == 2
            # The old stream was displaced; the new one owns the source.
            assert server._source_streams[0] is not first
            await server.close()

        run(body())

    def test_reregister_reply_carries_seq_high_water(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            stream, first_reply = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            assert "seqs" not in first_reply           # nothing accepted yet
            item = owned_items(item_to_source, 0)[0]
            await stream.send(protocol.refresh(0, item, 123.0, seq=7))
            await stream.send(protocol.snapshot())     # sync point
            while True:
                reply = await stream.receive()
                if reply["type"] == MessageType.SNAPSHOT.value:
                    break
            # A restarted process re-registers: the reply must tell it
            # where seq numbering left off, or its refreshes are muted.
            second, reply = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            assert reply["seqs"] == {item: 7}
            await server.close()

        run(body())

    def test_unknown_item_refresh_counts_as_misrouted(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            stream, _ = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            await stream.send(protocol.refresh(0, "not-an-item", 1.0, seq=1))
            await stream.send(protocol.snapshot())
            await stream.receive()
            assert server.stats["refreshes_accepted"] == 0
            assert server.metrics.misrouted_bounds >= 1
            await server.close()

        run(body())


async def check_protocol_error(kind, bad, reason, pair=None):
    """``bad(stream)`` earns exactly one ERROR naming ``reason``, then the
    hang-up; it is counted once and no other peer notices."""
    node, close, _ = await start_node(kind)
    bystander, _ = await subscribe(node)
    stream = connect(node, pair)
    await bad(stream)
    reply = await stream.receive()
    assert reply["type"] == MessageType.ERROR.value
    assert reason in reply["reason"]
    # The node hangs up after a protocol error.
    assert await stream.receive() is None
    assert node.stats["protocol_errors"] == 1
    await bystander.send(protocol.snapshot())
    assert (await bystander.receive())["type"] == MessageType.SNAPSHOT.value
    assert node.stats["subscribers"] == 1
    await close()


def sends(message):
    async def bad(stream):
        await stream.send(message)
    return bad


#: Well-framed, versioned, right type — but the fields are the wrong
#: shapes, or (the last one) the handler refuses what they say.  Must be
#: a clean protocol error, not a dead handler task.
HOSTILE_PAYLOADS = [
    {"v": PROTOCOL_VERSION, "type": "refresh",
     "source_id": "zero", "item": "x0", "value": 1.0, "seq": 1},
    {"v": PROTOCOL_VERSION, "type": "refresh",
     "source_id": 0, "item": "x0", "value": "12", "seq": 1},
    {"v": PROTOCOL_VERSION, "type": "heartbeat",
     "source_id": 0, "seqs": ["x0"]},
    {"v": PROTOCOL_VERSION, "type": "register_source",
     "source_id": 0, "items": "x0"},
    protocol.query_sub("*", definitions=[
        {"name": "q", "terms": [{"weight": 1.0,
                                 "exponents": {"no_such_item": 1}}],
         "qab": 1.0}]),
]


class TestProtocolPolicing:
    def test_unknown_message_type_gets_error_reply(self):
        run(check_protocol_error(
            "server", sends({"v": PROTOCOL_VERSION, "type": "teleport"}),
            "unknown message type"))

    @pytest.mark.parametrize("kind", OTHER_NODES)
    def test_unknown_message_type_gets_error_reply_from(self, kind):
        run(check_protocol_error(
            kind, sends({"v": PROTOCOL_VERSION, "type": "teleport"}),
            "unknown message type"))

    def test_version_mismatch_rejected(self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            stream = server.connect_loopback()
            await stream.send({"v": 999, "type": "snapshot"})
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            assert "version mismatch" in reply["reason"]
            await server.close()

        run(body())

    def test_server_to_client_types_rejected_inbound(self):
        run(check_protocol_error(
            "server", sends(protocol.notify([{"query": "q", "value": 1.0}])),
            "unexpected notify"))

    @pytest.mark.parametrize("kind,message", [
        ("router", protocol.dab_update(0, {}, {})),
        # The broker's table has two entries: a source has no business here.
        ("broker", protocol.refresh(0, "x0", 1.0, seq=1)),
    ], ids=OTHER_NODES)
    def test_kinds_outside_the_handler_table_rejected_by(self, kind, message):
        run(check_protocol_error(kind, sends(message),
                                 f"unexpected {message['type']}"))

    def test_malformed_field_types_get_error_reply(self):
        for bad in HOSTILE_PAYLOADS:
            run(check_protocol_error("server", sends(bad), "malformed"))

    @pytest.mark.parametrize("kind", OTHER_NODES)
    def test_malformed_field_types_get_error_reply_from(self, kind):
        for bad in HOSTILE_PAYLOADS:
            run(check_protocol_error(kind, sends(bad), "malformed"))

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_corrupt_framing_gets_one_error_then_the_hang_up(self, kind):
        async def bad(stream):
            stream._writer.write(b"\xff\xff\xff\xff")   # a 4 GiB frame
        run(check_protocol_error(kind, bad, "corrupt framing",
                                 pair=loopback_pair))


async def check_slow_consumer_eviction(kind):
    """The bounded queue fills to the limit, then one more evicts."""
    node, close, _ = await start_node(kind, notify_queue_limit=2)
    sub = await wedged_subscriber(node)
    update = [{"query": "q", "value": 1.0}]
    for _ in range(2):
        node._publish(update)
    assert sub.sub_id in node._subscribers          # queue full, not over
    node._publish(update)
    assert sub.sub_id not in node._subscribers      # evicted
    assert node.stats["slow_consumer_evictions"] == 1
    assert node.stats["subscribers"] == 0
    assert sub.stream.closed
    await close()


async def check_drop_with_exactly_full_queue(kind):
    """The queue is exactly full (fan-out only evicts on overflow) and the
    writer is wedged: dropping the subscriber must not raise QueueFull out
    of close()'s cleanup loop."""
    node, close, _ = await start_node(kind, notify_queue_limit=1)
    sub = await wedged_subscriber(node)
    node._publish([{"query": "q", "value": 1.0}])
    assert sub.queue.full() and sub.sub_id in node._subscribers
    await node._drop_subscriber(sub)
    assert sub.sub_id not in node._subscribers
    assert sub.writer_task.cancelled()
    assert sub.stream.closed
    assert node.stats["slow_consumer_evictions"] == 0
    await close()


async def check_per_subscriber_filtering(kind):
    """Each subscriber is sent the updates and the degraded entries it
    asked for; a degraded *announcement* reaches one that wants none of
    the updates, a *piggybacked* map does not."""
    node, close, _ = await start_node(kind)
    everything, snapshot = await subscribe(node)
    mine, other = sorted(snapshot["values"])[:2]
    narrow, narrow_snapshot = await subscribe(node, [mine, "no-such-query"])
    assert set(narrow_snapshot["values"]) == {mine}

    updates = [{"query": mine, "value": 1.0}, {"query": other, "value": 2.0}]
    node._publish(updates, {mine: 10.0, other: 20.0}, sent_at=7.0)
    wide = await everything.receive()
    assert wide["updates"] == updates
    assert wide["degraded"] == {mine: 10.0, other: 20.0}
    assert wide["sent_at"] == 7.0
    filtered = await narrow.receive()
    assert filtered["updates"] == updates[:1]
    assert filtered["degraded"] == {mine: 10.0}

    node._publish(updates[1:], {other: 20.0}, piggyback=True)
    node._publish(updates[1:], {other: 20.0})
    assert "degraded" in await everything.receive()
    assert "degraded" in await everything.receive()
    bare = await narrow.receive()               # only the announcement
    assert bare["updates"] == [] and bare["degraded"] == {}
    node._publish(updates[1:])                  # nothing for `narrow`
    node._publish(updates[:1])
    assert (await narrow.receive())["updates"] == updates[:1]
    await close()


class TestBackpressure:
    def test_slow_consumer_is_evicted(self):
        run(check_slow_consumer_eviction("server"))

    @pytest.mark.parametrize("kind", OTHER_NODES)
    def test_slow_consumer_is_evicted_by(self, kind):
        run(check_slow_consumer_eviction(kind))

    def test_drop_subscriber_with_exactly_full_queue(self):
        run(check_drop_with_exactly_full_queue("server"))

    @pytest.mark.parametrize("kind", OTHER_NODES)
    def test_drop_subscriber_with_exactly_full_queue_on(self, kind):
        run(check_drop_with_exactly_full_queue(kind))

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_updates_and_degraded_are_filtered_per_subscriber(self, kind):
        run(check_per_subscriber_filtering(kind))

    def test_healthy_subscribers_survive_fanout_bursts(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            stream, _ = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            sub_stream = server.connect_loopback()
            await sub_stream.send(protocol.query_sub("*"))
            await sub_stream.receive()                # snapshot
            item = owned_items(item_to_source, 0)[0]
            value = server.core.cache[item]
            for seq in range(1, 31):
                value *= 1.5
                await stream.send(protocol.refresh(0, item, value, seq=seq))
            received = 0
            while True:
                try:
                    message = await asyncio.wait_for(sub_stream.receive(),
                                                     timeout=0.5)
                except asyncio.TimeoutError:
                    break
                if message is None:
                    break
                received += message["type"] == MessageType.NOTIFY.value
            assert received > 0
            assert server.stats["slow_consumer_evictions"] == 0
            await server.close()

        run(body())


class TestSnapshots:
    def test_snapshot_carries_values_and_stats(self, scenario_server):
        server, scenario, _ = scenario_server

        async def body():
            stream = server.connect_loopback()
            await stream.send(protocol.snapshot())
            reply = await stream.receive()
            assert reply["type"] == MessageType.SNAPSHOT.value
            assert set(reply["values"]) == {q.name for q in scenario.queries}
            assert reply["stats"]["queries"] == len(scenario.queries)
            await server.close()

        run(body())

    def test_query_sub_filters_to_requested_queries(self, scenario_server):
        server, scenario, _ = scenario_server

        async def body():
            wanted = scenario.queries[0].name
            stream = server.connect_loopback()
            await stream.send(protocol.query_sub([wanted, "no-such-query"]))
            snapshot = await stream.receive()
            assert set(snapshot["values"]) == {wanted}
            await server.close()

        run(body())


async def byte_subscriber(server):
    """A wildcard subscriber over real bytes; returns its client end
    once the initial snapshot has arrived."""
    client_end, server_end = loopback_pair()
    server.adopt_connection(server_end)
    await client_end.send(protocol.query_sub("*"))
    snapshot = await client_end.receive()
    assert snapshot["type"] == MessageType.SNAPSHOT.value
    return client_end


class TestUnencodableNotify:
    @pytest.mark.parametrize("poison", [float("nan"), float("inf"),
                                        object()],
                             ids=["nan", "inf", "non-json"])
    def test_drops_that_subscriber_and_the_others_keep_flowing(
            self, scenario_server, poison):
        server, scenario, item_to_source = scenario_server

        async def body():
            source, _ = await registered_stream(
                server, scenario, item_to_source, source_id=0)
            first = await byte_subscriber(server)
            second = await byte_subscriber(server)
            victim, survivor = sorted(server._subscribers.values(),
                                      key=lambda sub: sub.sub_id)
            victim.queue.put_nowait(protocol.notify(
                [{"query": scenario.queries[0].name, "value": poison}]))
            for _ in range(5):
                await asyncio.sleep(0)
            # The writer task ended cleanly — no unhandled exception, the
            # subscriber is gone from the table and the failure counted.
            assert victim.writer_task.done()
            assert victim.writer_task.exception() is None
            assert list(server._subscribers) == [survivor.sub_id]
            assert server.stats["subscribers"] == 1
            assert server.stats["protocol_errors"] == 1
            assert await first.receive() is None       # hung up on

            item = owned_items(item_to_source, 0)[0]
            await source.send(protocol.refresh(
                0, item, server.core.cache[item] * 3.0, seq=1))
            message = await asyncio.wait_for(second.receive(), timeout=1.0)
            assert message["type"] == MessageType.NOTIFY.value
            assert server.stats["notifies_sent"] == 1
            await server.close()

        run(body())


@pytest.fixture(params=[loopback_pair, inprocess_pair], ids=["bytes", "link"])
def pair(request):
    return request.param


class TestStreamLifecycle:
    """The byte loopback and the in-process link: one lifecycle."""

    def test_order_preserved_in_both_directions(self, pair):
        async def body():
            client_end, server_end = pair()
            for seq in range(1, 6):
                await client_end.send(protocol.refresh(0, "x0", 1.0, seq))
                await server_end.send(protocol.dab_ack(0, seq))
            assert [(await server_end.receive())["seq"]
                    for _ in range(5)] == [1, 2, 3, 4, 5]
            assert [(await client_end.receive())["msg_id"]
                    for _ in range(5)] == [1, 2, 3, 4, 5]

        run(body())

    @pytest.mark.parametrize("closer", ["client", "server"])
    def test_eof_after_either_side_closes_is_sticky(self, pair, closer):
        async def body():
            client_end, server_end = pair()
            # Sent before the hang-up: still delivered, then EOF.
            await client_end.send(protocol.snapshot())
            (client_end if closer == "client" else server_end).close()
            assert (await server_end.receive())["type"] == "snapshot"
            for end in (client_end, server_end, client_end, server_end):
                assert await end.receive() is None

        run(body())

    def test_send_on_a_closed_stream_raises_transport_closed(self, pair):
        async def body():
            client_end, server_end = pair()
            client_end.close()
            assert client_end.closed
            with pytest.raises(TransportClosed):
                await client_end.send(protocol.snapshot())
            # The peer hung up: the send fails and marks our end closed.
            assert not server_end.closed
            with pytest.raises(TransportClosed):
                await server_end.send(protocol.snapshot())
            assert server_end.closed

        run(body())

    @pytest.mark.parametrize("closer", ["peer", "self"])
    def test_blocked_receive_wakes_on_close(self, pair, closer):
        async def body():
            client_end, server_end = pair()
            listener = asyncio.ensure_future(server_end.receive())
            await asyncio.sleep(0)
            assert not listener.done()
            (client_end if closer == "peer" else server_end).close()
            assert await asyncio.wait_for(listener, timeout=1.0) is None

        run(body())


async def check_closed_node_hangs_up_on_connect(kind):
    node, close, _ = await start_node(kind)
    await close()
    stream = node.connect_loopback()
    assert await stream.receive() is None
    with pytest.raises(TransportClosed):
        await stream.send(protocol.snapshot())
    assert not node._handler_tasks              # no zombie to cancel


class TestInprocessLink:
    def test_hands_over_the_message_object_itself(self):
        async def body():
            client_end, server_end = inprocess_pair()
            message = protocol.refresh(0, "x0", 1.0, 1)
            await client_end.send(message)
            assert await server_end.receive() is message
            assert (client_end.name, server_end.name) == ("server", "client")

        run(body())

    def test_connect_loopback_is_a_link_and_loopback_pair_is_bytes(
            self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            assert isinstance(server.connect_loopback(), InprocessLink)
            assert not any(isinstance(end, InprocessLink)
                           for end in loopback_pair())
            await server.close()

        run(body())

    def test_closed_server_hangs_up_on_connect(self):
        run(check_closed_node_hangs_up_on_connect("server"))

    @pytest.mark.parametrize("kind", OTHER_NODES)
    def test_closed_node_hangs_up_on_connect(self, kind):
        run(check_closed_node_hangs_up_on_connect(kind))
