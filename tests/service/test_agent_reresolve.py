"""SourceAgent.run re-resolves the coordinator address on every dial.

A supervisor that restores a dead coordinator shard may bring it back on
a new port; an agent that pinned the address at start-up would dial the
corpse forever.  The peer is a hand-rolled fake coordinator so the drop
and the address change are both deterministic.
"""

import asyncio

from repro.service import protocol
from repro.service.agent import SourceAgent
import repro.service.agent as agent_mod
from repro.service.transports import TransportClosed, loopback_pair


def run(coro):
    return asyncio.run(coro)


class _Trace:
    def __init__(self, values):
        self._values = list(values)

    def __len__(self):
        return len(self._values)

    def at(self, step):
        return self._values[step]


TRACES = {"x0": _Trace([10.0, 11.0, 12.0, 13.0, 14.0]),
          "x1": _Trace([20.0, 21.0, 22.0, 23.0, 24.0])}


def make_agent():
    return SourceAgent(source_id=0, items=["x0", "x1"],
                       initial_values={"x0": 10.0, "x1": 20.0})


class _DropAfterSends:
    """A stream whose outbound half dies after ``budget`` sends."""

    def __init__(self, stream, budget):
        self._stream = stream
        self._budget = budget

    async def send(self, message):
        if self._budget <= 0:
            self._stream.close()
            raise TransportClosed("injected drop")
        self._budget -= 1
        await self._stream.send(message)

    def __getattr__(self, name):
        return getattr(self._stream, name)


async def _serve(server_end):
    """Minimal coordinator: answer registration, swallow refreshes."""
    try:
        message = await server_end.receive()
        assert message["type"] == "register_source"
        await server_end.send(protocol.dab_update(0, {}, {}))
        while True:
            if await server_end.receive() is None:
                return                      # EOF
    except TransportClosed:
        return


class TestRunReresolvesPerDial:
    def test_reconnect_dials_the_freshly_resolved_address(self, monkeypatch):
        dials = []

        async def fake_open(host, port):
            dials.append((host, port))
            client_end, server_end = loopback_pair()
            asyncio.ensure_future(_serve(server_end))
            if len(dials) == 1:
                # Registration plus one refresh, then the wire dies
                # mid-step — forcing the reconnect path.
                return _DropAfterSends(client_end, budget=2)
            return client_end

        monkeypatch.setattr(agent_mod, "open_tcp_stream", fake_open)

        addresses = [("stale.example", 7001), ("fresh.example", 7002)]
        resolve_calls = []

        def resolve():
            resolve_calls.append(1)
            return addresses[min(len(resolve_calls) - 1, 1)]

        async def body():
            agent = make_agent()
            sent = await agent.run("pinned.example", 9, TRACES,
                                   resolve=resolve)
            assert sent > 0
            assert agent.stats["reconnects"] == 1
            return agent

        run(body())
        # The second dial must target the *re-resolved* address, not the
        # one captured at start-up.
        assert dials == [("stale.example", 7001), ("fresh.example", 7002)]
        assert len(resolve_calls) == 2

    def test_async_resolver_is_awaited(self, monkeypatch):
        dials = []

        async def fake_open(host, port):
            dials.append((host, port))
            client_end, server_end = loopback_pair()
            asyncio.ensure_future(_serve(server_end))
            return client_end

        monkeypatch.setattr(agent_mod, "open_tcp_stream", fake_open)

        async def resolve():
            return ("dns.example", 7100)

        async def body():
            agent = make_agent()
            await agent.run("pinned.example", 9, TRACES, resolve=resolve)

        run(body())
        assert dials == [("dns.example", 7100)]

    def test_without_resolver_the_startup_address_stays_pinned(
            self, monkeypatch):
        dials = []

        async def fake_open(host, port):
            dials.append((host, port))
            client_end, server_end = loopback_pair()
            asyncio.ensure_future(_serve(server_end))
            if len(dials) == 1:
                return _DropAfterSends(client_end, budget=2)
            return client_end

        monkeypatch.setattr(agent_mod, "open_tcp_stream", fake_open)

        async def body():
            agent = make_agent()
            await agent.run("pinned.example", 9, TRACES)

        run(body())
        assert dials == [("pinned.example", 9), ("pinned.example", 9)]
