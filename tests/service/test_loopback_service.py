"""End-to-end service tests in one process, no sockets — the CI-safe half
of the transport matrix (the TCP smoke test lives in ``test_tcp_smoke.py``).

``connect_loopback()`` rides the in-process message link (message objects,
no bytes); the cases that need real protocol bytes and the real
FrameDecoder build a ``loopback_pair()`` and hand its server end to
``adopt_connection``.  ``TestStreamLifecycle`` holds the two to one
lifecycle.
"""

import asyncio

import pytest

from repro.service import protocol
from repro.service.protocol import MessageType, PROTOCOL_VERSION
from repro.service.server import _Subscriber, build_scenario_server
from repro.service.transports import (
    InprocessLink,
    TransportClosed,
    inprocess_pair,
    loopback_pair,
)


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


class TestProtocolPolicing:
    def test_unknown_message_type_gets_error_reply(self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            stream = server.connect_loopback()
            await stream.send({"v": PROTOCOL_VERSION, "type": "teleport"})
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            assert "unknown message type" in reply["reason"]
            # The server hangs up after a protocol error.
            assert await stream.receive() is None
            assert server.stats["protocol_errors"] == 1
            await server.close()

        run(body())

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

    def test_server_to_client_types_rejected_inbound(self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            stream = server.connect_loopback()
            await stream.send(protocol.notify([{"query": "q", "value": 1.0}]))
            reply = await stream.receive()
            assert reply["type"] == MessageType.ERROR.value
            await server.close()

        run(body())

    def test_malformed_field_types_get_error_reply(self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            # Well-framed, versioned, right type — but the fields are the
            # wrong shapes.  Must be a clean protocol error, not a dead
            # handler task.
            bad_messages = [
                {"v": PROTOCOL_VERSION, "type": "refresh",
                 "source_id": "zero", "item": "x0", "value": 1.0, "seq": 1},
                {"v": PROTOCOL_VERSION, "type": "refresh",
                 "source_id": 0, "item": "x0", "value": "12", "seq": 1},
                {"v": PROTOCOL_VERSION, "type": "heartbeat",
                 "source_id": 0, "seqs": ["x0"]},
                {"v": PROTOCOL_VERSION, "type": "register_source",
                 "source_id": 0, "items": "x0"},
            ]
            for bad in bad_messages:
                stream = server.connect_loopback()
                await stream.send(bad)
                reply = await stream.receive()
                assert reply["type"] == MessageType.ERROR.value
                assert "malformed" in reply["reason"]
                assert await stream.receive() is None   # server hung up
            await server.close()

        run(body())


class TestBackpressure:
    def test_slow_consumer_is_evicted(self, scenario_server):
        server, scenario, item_to_source = scenario_server

        async def body():
            # A subscriber whose writer never drains (as if its TCP window
            # were jammed): the bounded queue fills, then eviction.
            client_end, server_end = loopback_pair()
            sub = _Subscriber(99, server_end, None, limit=2)
            server._subscribers[99] = sub
            updates = [("q", 1.0)]
            for _ in range(2):
                server._fanout_notifications(updates, None)
            assert 99 in server._subscribers          # queue full, not over
            server._fanout_notifications(updates, None)
            assert 99 not in server._subscribers      # evicted
            assert server.stats["slow_consumer_evictions"] == 1
            assert sub.stream.closed
            await server.close()

        run(body())

    def test_drop_subscriber_with_exactly_full_queue(self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            # The queue is exactly full (fanout only evicts on overflow)
            # and the writer is wedged: dropping the subscriber must not
            # raise QueueFull out of close()'s cleanup loop.
            client_end, server_end = loopback_pair()
            sub = _Subscriber(42, server_end, None, limit=1)
            sub.queue.put_nowait(protocol.notify([]))
            sub.writer_task = asyncio.ensure_future(asyncio.sleep(60))
            server._subscribers[42] = sub
            await server._drop_subscriber(sub)
            assert 42 not in server._subscribers
            assert sub.writer_task.cancelled()
            assert sub.stream.closed
            await server.close()

        run(body())

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

    def test_closed_server_hangs_up_on_connect(self, scenario_server):
        server, _, _ = scenario_server

        async def body():
            await server.close()
            stream = server.connect_loopback()
            assert await stream.receive() is None
            with pytest.raises(TransportClosed):
                await stream.send(protocol.snapshot())

        run(body())
