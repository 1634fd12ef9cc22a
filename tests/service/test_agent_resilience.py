"""Agent-side resilience: fail-safe registration, acks, probes, degraded maps.

The peer here is a hand-rolled fake coordinator on the other end of a
loopback pair, so each behaviour is pinned without a real server.
"""

import asyncio
import logging

import pytest

from repro.service import protocol
from repro.service.agent import SourceAgent
from repro.service.client import ServiceClient
from repro.service.protocol import ProtocolError
from repro.service.transports import TransportClosed, loopback_pair


def run(coro):
    return asyncio.run(coro)


def make_agent(**kwargs):
    defaults = dict(source_id=0, items=["x0", "x1"],
                    initial_values={"x0": 10.0, "x1": 20.0})
    defaults.update(kwargs)
    return SourceAgent(**defaults)


class TestFailSafeRegistration:
    def test_missing_reply_proceeds_failsafe_with_warning(self, caplog):
        async def check():
            agent = make_agent()
            client_end, server_end = loopback_pair()
            with caplog.at_level(logging.WARNING, "repro.service.agent"):
                await agent.connect(client_end, register_timeout=0.05)
            assert agent.stats["registrations_failsafe"] == 1
            assert any("fail-safe" in r.message for r in caplog.records)
            # No bounds were programmed: every tick is forwarded.
            assert await agent.tick({"x0": 10.0001}) == 1
            refresh = await server_end.receive()       # the registration...
            assert refresh["type"] == "register_source"
            refresh = await server_end.receive()       # ...then the value
            assert refresh["items"] == ["x0"]
            await agent.close()

        run(check())

    def test_corrupt_reply_also_goes_failsafe(self):
        async def check():
            agent = make_agent()
            client_end, server_end = loopback_pair()
            # Poison the reply path before the agent registers: a real
            # frame with one body byte flipped, as the chaos writer does.
            frame = bytearray(protocol.encode_frame(
                protocol.dab_update(0, {}, {})))
            frame[protocol.HEADER_BYTES] ^= 0xFF
            server_end._writer.write(bytes(frame))
            await agent.connect(client_end, register_timeout=1.0)
            assert agent.stats["registrations_failsafe"] == 1
            await agent.close()

        run(check())

    def test_error_reply_raises(self):
        async def check():
            agent = make_agent()
            client_end, server_end = loopback_pair()
            await server_end.send(protocol.error("no such source"))
            with pytest.raises(ProtocolError, match="registration rejected"):
                await agent.connect(client_end, register_timeout=1.0)

        run(check())


class TestAcksAndProbes:
    async def _connected(self):
        agent = make_agent()
        client_end, server_end = loopback_pair()
        await server_end.send(protocol.dab_update(
            0, {"x0": 1.0, "x1": 1.0}, {"x0": 1, "x1": 1}))
        await agent.connect(client_end, register_timeout=1.0)
        assert (await server_end.receive())["type"] == "register_source"
        return agent, server_end

    def test_dab_update_with_msg_id_is_acked(self):
        async def check():
            agent, server_end = await self._connected()
            await server_end.send(protocol.dab_update(
                0, {"x0": 2.0}, {"x0": 5}, msg_id=77))
            ack = await asyncio.wait_for(server_end.receive(), 1.0)
            assert ack["type"] == "dab_ack"
            assert ack["msg_id"] == 77
            assert agent.stats["dab_acks_sent"] == 1
            assert agent.push.bounds["x0"] == 2.0
            await agent.close()

        run(check())

    def test_probe_is_answered_with_resync_refresh(self):
        async def check():
            agent, server_end = await self._connected()
            agent.values["x0"] = 10.5                  # drifted, in-window
            held_seq = agent.push.seq["x0"]
            await server_end.send(protocol.dab_update(
                0, {}, {}, probe=["x0"]))
            refresh = await asyncio.wait_for(server_end.receive(), 1.0)
            assert refresh["type"] == "refresh"
            assert refresh["items"] == ["x0"]
            assert refresh["values"] == [10.5]
            assert refresh["resync"] is True
            assert refresh["seqs"] == [held_seq + 1]
            assert agent.stats["probes_answered"] == 1
            await agent.close()

        run(check())

    def test_error_message_closes_stream_for_next_tick(self):
        async def check():
            agent, server_end = await self._connected()
            await server_end.send(protocol.error("coordinator shed you"))
            for _ in range(6):
                await asyncio.sleep(0)
            with pytest.raises(TransportClosed):
                await agent.tick({"x0": 99.0})
            await agent.close()

        run(check())


class TestClientDegraded:
    def test_degraded_map_is_replaced_not_merged(self):
        client_end, _ = loopback_pair()
        client = ServiceClient(client_end)
        client._apply_degraded(
            {"type": "notify", "degraded": {"q1": 2.0, "q2": 3.0}})
        assert client.degraded == {"q1": 2.0, "q2": 3.0}
        client._apply_degraded({"type": "notify", "degraded": {"q1": 2.5}})
        assert client.degraded == {"q1": 2.5}          # q2 recovered
        client._apply_degraded({"type": "notify"})     # field absent
        assert client.degraded == {"q1": 2.5}          # unchanged
        client._apply_degraded({"type": "notify", "degraded": {}})
        assert client.degraded == {}                   # all clear

    def test_close_timeout_is_configurable(self):
        client_end, _ = loopback_pair()
        assert ServiceClient(client_end).close_timeout == 1.0
        assert ServiceClient(client_end,
                             close_timeout=0.25).close_timeout == 0.25
