"""The source-plane client: one contract, two users.

``SourceLink`` is the registering end of every coordinator connection —
a ``SourceAgent`` is one, and so is each link on which the cluster router
registers with a shard *as* a source.  The cases below play the node by
hand over an in-process pair and hold both users to the same contract
(the source-plane twin of ``test_client.py::TestContract``): the
handshake, the apply → ack → follow-up order, what counts as a loss.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.service import protocol
from repro.service.agent import SourceAgent
from repro.service.cluster.router import (
    _ShardSourceLink,
    build_scenario_cluster,
)
from repro.service.protocol import MessageType
from repro.service.transports import TransportClosed, inprocess_pair

from tests.service.nodes import SCENARIO

USERS = ("agent", "router")


def run(coro):
    return asyncio.run(coro)


async def _drain(rounds=20):
    for _ in range(rounds):
        await asyncio.sleep(0)


class Watched:
    """Counts the hooks that have no other trace."""

    lost = 0
    failsafes = 0

    def _on_lost(self):
        self.lost += 1
        super()._on_lost()

    def _on_failsafe(self, register_timeout):
        self.failsafes += 1
        super()._on_failsafe(register_timeout)


class WatchedAgent(Watched, SourceAgent):
    pass


class WatchedShardLink(Watched, _ShardSourceLink):
    pass


class Tap:
    """The user's end of the pair; notes, for every message the user
    sends, what the user had done by then (``observe()``)."""

    def __init__(self, inner, observe):
        self.inner = inner
        self.observe = observe
        self.sent = []

    async def send(self, message):
        self.sent.append((message["type"], self.observe()))
        await self.inner.send(message)

    async def receive(self):
        return await self.inner.receive()

    def close(self):
        self.inner.close()

    @property
    def closed(self):
        return self.inner.closed


async def wired(kind):
    """One user, not yet connected, and the scripted node's view of it:
    ``link``, the ``tap`` it will connect on, the node's ``server_end``,
    one of its items, ``bound()`` (what is in force for that item) and
    ``probes()`` (probe answers given so far)."""
    client_end, server_end = inprocess_pair()
    if kind == "agent":
        link = WatchedAgent(0, ["x0", "x1"], {"x0": 10.0, "x1": 20.0})

        async def close():
            await link.close()

        wiring = SimpleNamespace(
            link=link, item="x0", close=close,
            bound=lambda: link.push.bounds.get("x0"),
            probes=lambda: link.stats["probes_answered"])
    else:
        cluster, _, _ = build_scenario_cluster(shards=2, **SCENARIO)
        sid = cluster.decomposition.active_shards[0]
        source_id, items = sorted(cluster._sources_for_shard(sid).items())[0]
        # The real source the router answers to: probes are forwarded to
        # it, so it has to be attached.
        real_source = cluster.connect_loopback()
        await real_source.send(protocol.register_source(source_id, items))
        await real_source.receive()
        link = WatchedShardLink(cluster, sid, source_id, items)

        async def close():
            await link.close()
            real_source.close()
            await cluster.close()

        wiring = SimpleNamespace(
            link=link, item=items[0], close=close,
            bound=lambda: cluster._shard_bounds.get(items[0], {}).get(sid),
            probes=lambda: cluster.stats["probes_forwarded"])
    wiring.server_end = server_end
    wiring.tap = Tap(client_end,
                     lambda: (wiring.bound(), wiring.probes()))
    return wiring


def reply_for(w, bound, **extra):
    return protocol.dab_update(w.link.source_id, {w.item: bound},
                               {w.item: extra.pop("epoch", 1)}, **extra)


async def connected(kind):
    """A wired user whose registration the node has already answered."""
    w = await wired(kind)
    await w.server_end.send(reply_for(w, 1.0))
    await w.link.connect(w.tap, register_timeout=1.0)
    assert (await w.server_end.receive())["type"] == "register_source"
    return w


@pytest.mark.parametrize("kind", USERS)
class TestContract:
    def test_the_registration_reply_is_applied_before_connect_returns(
            self, kind):
        async def body():
            w = await wired(kind)
            await w.server_end.send(reply_for(w, 2.5))
            await w.link.connect(w.tap, register_timeout=1.0)
            assert w.bound() == 2.5                 # no drain in between
            assert w.link.failsafes == 0
            request = await w.server_end.receive()
            assert request == protocol.register_source(
                w.link.source_id, sorted(w.link.items))
            await w.close()

        run(body())

    def test_no_reply_in_time_is_failsafe_and_a_late_reply_still_applies(
            self, kind):
        async def body():
            w = await wired(kind)
            await w.link.connect(w.tap, register_timeout=0.05)
            assert w.link.failsafes == 1
            assert w.bound() is None
            await w.server_end.send(reply_for(w, 4.0))
            await _drain()
            assert w.bound() == 4.0
            assert w.link.lost == 0 and not w.tap.closed
            await w.close()

        run(body())

    def test_an_error_reply_raises_transport_closed_with_the_reason(
            self, kind):
        async def body():
            w = await wired(kind)
            await w.server_end.send(protocol.error("no such source"))
            with pytest.raises(TransportClosed, match="no such source"):
                await w.link.connect(w.tap, register_timeout=1.0)
            assert w.tap.closed and w.link._stream is None
            await _drain()
            assert w.link.lost == 0           # the caller was told directly
            await w.close()

        run(body())

    def test_a_msg_id_is_acked_once_after_the_bounds_and_before_the_probe(
            self, kind):
        async def body():
            w = await connected(kind)
            await w.server_end.send(reply_for(
                w, 3.0, epoch=2, msg_id=77, probe=[w.item]))
            ack = await asyncio.wait_for(w.server_end.receive(), 1.0)
            assert ack == protocol.dab_ack(w.link.source_id, 77)
            await _drain()
            acks = [seen for kind_sent, seen in w.tap.sent
                    if kind_sent == MessageType.DAB_ACK.value]
            # One ack, sent with the new bound in force and no probe
            # answered yet; the probe answer follows.
            assert acks == [(3.0, 0)]
            assert w.probes() == 1
            # An update without a msg_id is applied and not acked.
            await w.server_end.send(reply_for(w, 3.5, epoch=3))
            await _drain()
            assert w.bound() == 3.5
            assert [kind_sent for kind_sent, _ in w.tap.sent].count(
                MessageType.DAB_ACK.value) == 1
            await w.close()

        run(body())

    @pytest.mark.parametrize("ending", ["eof", "error", "invalid"])
    def test_each_ending_closes_the_stream_and_is_one_loss(self, kind,
                                                           ending):
        async def body():
            w = await connected(kind)
            if ending == "eof":
                w.server_end.close()
            elif ending == "error":
                await w.server_end.send(protocol.error("shed"))
            else:
                await w.server_end.send({"type": "dab_update"})
            await _drain()
            assert w.link.lost == 1
            assert w.tap.closed
            with pytest.raises(TransportClosed):
                await w.tap.send(protocol.heartbeat(w.link.source_id, {}))
            await w.close()
            await _drain()
            assert w.link.lost == 1

        run(body())

    def test_close_is_not_a_loss(self, kind):
        async def body():
            w = await connected(kind)
            await w.link.close()
            w.server_end.close()
            await _drain()
            assert w.link.lost == 0
            assert w.tap.closed and w.link._stream is None
            await w.close()

        run(body())
