"""Agent-side resilience: fail-safe registration, acks, probes, reconnects.

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
from repro.service.resilience import RetryExhausted, RetryPolicy
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
            assert refresh["item"] == "x0"
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
            assert agent.bounds["x0"] == 2.0
            await agent.close()

        run(check())

    def test_probe_is_answered_with_resync_refresh(self):
        async def check():
            agent, server_end = await self._connected()
            agent.values["x0"] = 10.5                  # drifted, in-window
            held_seq = agent.seq["x0"]
            await server_end.send(protocol.dab_update(
                0, {}, {}, probe=["x0"]))
            refresh = await asyncio.wait_for(server_end.receive(), 1.0)
            assert refresh["type"] == "refresh"
            assert refresh["item"] == "x0"
            assert refresh["value"] == 10.5
            assert refresh["resync"] is True
            assert refresh["seq"] == held_seq + 1
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


class TestReconnectRetry:
    def test_retry_exhausted_after_repeated_failures(self):
        async def check():
            agent = make_agent()
            attempts = []

            async def always_down():
                attempts.append(1)
                raise ConnectionError("refused")

            policy = RetryPolicy(base_delay=0.0, max_attempts=3)
            with pytest.raises(RetryExhausted):
                await agent._reconnect(always_down, policy)
            assert len(attempts) == 3

        run(check())

    def test_reconnect_succeeds_after_flaps(self):
        async def check():
            agent = make_agent()
            attempts = []

            async def serve_registration(server_end):
                message = await server_end.receive()
                assert message["type"] == "register_source"
                await server_end.send(protocol.dab_update(
                    0, {"x0": 1.0}, {"x0": 9}, seqs={"x0": 12}))

            async def flaky_dial():
                attempts.append(1)
                if len(attempts) < 3:
                    raise ConnectionError("refused")
                client_end, server_end = loopback_pair()
                asyncio.ensure_future(serve_registration(server_end))
                return client_end

            policy = RetryPolicy(base_delay=0.0, max_attempts=5)
            await agent._reconnect(flaky_dial, policy)
            assert len(attempts) == 3
            assert agent.bounds["x0"] == 1.0
            assert agent.seq["x0"] == 12               # floored by resync
            await agent.close()

        run(check())


    def test_a_corrupted_registration_frame_is_retried_not_fatal(self):
        # One flipped bit in the REGISTER_SOURCE frame: the node answers
        # ERROR("corrupt framing") and hangs up.  That is a lost
        # connection, so the bounded retry dials again and succeeds.
        from repro.service.agent import agents_for_scenario
        from repro.service.chaos import (
            FaultInjector,
            FaultSchedule,
            chaos_stream,
        )
        from repro.service.server import build_scenario_server

        async def check():
            server, scenario, item_to_source = build_scenario_server(
                query_count=4, item_count=20, source_count=2,
                trace_length=5, seed=3)
            agent = agents_for_scenario(scenario, item_to_source)[0]
            injector = FaultInjector(FaultSchedule(corrupt_rate=0.999999))
            dials = []

            async def dial():
                dials.append(1)
                # Only the first dial's client->server frames are hit.
                injector.enabled = len(dials) == 1
                client_end, server_end = loopback_pair()
                chaos_stream(client_end, injector, "src->coord")
                server.adopt_connection(server_end)
                return client_end

            await agent._reconnect(
                dial, RetryPolicy(base_delay=0.0, max_attempts=3))
            assert len(dials) == 2
            assert injector.counts["corrupt"] == 1
            assert agent.stats["registrations_failsafe"] == 0
            assert set(agent.bounds) == set(agent.items)
            await agent.close()
            await server.close()

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
