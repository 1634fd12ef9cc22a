"""The three front-end nodes, built small, for the cases that hold one
contract to all of them (``repro.service.frontend``)."""

import asyncio
import json

from repro.service import protocol
from repro.service.cluster.broker import NotifyBroker
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from repro.service.transports import loopback_pair

SCENARIO = dict(query_count=4, item_count=20, source_count=2,
                trace_length=41, seed=1)

#: Every node kind / the ones that face sources.
NODE_KINDS = ("server", "router", "broker")
SOURCE_FACING = ("server", "router")


async def start_node(kind, **kwargs):
    """``(node, close, item_to_source)``: a started node of ``kind``
    (``kwargs`` go to its builder) and the coroutine function that closes
    it and everything under it."""
    if kind == "server":
        server, _, item_to_source = build_scenario_server(**SCENARIO, **kwargs)
        return server, server.close, item_to_source
    if kind == "router":
        cluster, _, item_to_source = build_scenario_cluster(
            shards=2, **SCENARIO, **kwargs)
        await cluster.start()
        return cluster, cluster.close, item_to_source
    upstream, _, item_to_source = build_scenario_server(**SCENARIO)
    broker = NotifyBroker(upstream.connect_loopback, **kwargs)
    await broker.start()

    async def close():
        await broker.close()
        await upstream.close()

    return broker, close, item_to_source


def connect(node, pair=None):
    """A client end on ``node``: a link, or — ``pair=loopback_pair`` —
    real bytes."""
    if pair is None:
        return node.connect_loopback()
    client_end, server_end = pair()
    node.adopt_connection(server_end)
    return client_end


async def subscribe(node, queries="*", pair=None):
    """Returns ``(client end, initial snapshot)``."""
    stream = connect(node, pair)
    await stream.send(protocol.query_sub(queries))
    snapshot = await stream.receive()
    assert snapshot["type"] == MessageType.SNAPSHOT.value
    return stream, snapshot


class JammedTransport:
    """A TCP transport's flow-control surface, over its high-water mark
    until :meth:`clear`."""

    def __init__(self):
        self.buffered = 1

    def is_closing(self):
        return False

    def get_write_buffer_size(self):
        return self.buffered

    def get_write_buffer_limits(self):
        return 0, 1

    def clear(self):
        self.buffered = 0


class JammedWriter:
    """Wraps a stream's writer: frames still go through, in order, but
    the transport reports no room and ``drain`` waits until
    :meth:`release` (as a TCP writer does while the peer's window is
    shut)."""

    def __init__(self, inner):
        self.inner = inner
        self.transport = JammedTransport()
        self.released = asyncio.Event()

    def write(self, frame):
        self.inner.write(frame)

    async def drain(self):
        await self.released.wait()

    def release(self):
        self.transport.clear()
        self.released.set()

    def close(self):
        self.inner.close()


def jam(stream):
    """Jam ``stream``'s transport; returns the :class:`JammedWriter`."""
    stream._writer = writer = JammedWriter(stream._writer)
    return writer


async def wedged_subscriber(node):
    """A wildcard subscriber over real bytes whose transport is jammed:
    nothing it is sent is written at once, and its writer task blocks in
    ``drain`` on the first frame it writes."""
    await subscribe(node, pair=loopback_pair)
    sub = node._subscribers[max(node._subscribers)]
    jam(sub.stream)
    return sub


async def register_sources(node, item_to_source, connect=None):
    """Register every source, each on a stream of its own (``await
    connect()``; default: a link); returns ``{source_id: stream}`` with
    the registration replies already consumed."""
    streams = {}
    for source_id in sorted(set(item_to_source.values())):
        stream = (node.connect_loopback() if connect is None
                  else await connect())
        await stream.send(protocol.register_source(
            source_id, sorted(name for name, owner in item_to_source.items()
                              if owner == source_id)))
        reply = await stream.receive()
        assert reply["type"] == MessageType.DAB_UPDATE.value
        streams[source_id] = stream
    return streams


def core_fingerprint(core):
    """A core's whole recovery state as canonical JSON — byte-comparable."""
    return json.dumps(core.recovery_state(), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
