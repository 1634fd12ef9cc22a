"""SourceAgent: DAB filtering, epoch guards, reconnect-with-resync."""

import asyncio

import pytest

from repro.service import protocol
from repro.service.agent import SourceAgent, agents_for_scenario
from repro.service.server import build_scenario_server
from repro.service.transports import TransportClosed


def run(coro):
    return asyncio.run(coro)


def make_agent(**kwargs):
    defaults = dict(source_id=0, items=["x0", "x1"],
                    initial_values={"x0": 10.0, "x1": 20.0})
    defaults.update(kwargs)
    return SourceAgent(**defaults)


class TestDabFilter:
    def test_unbounded_items_forward_everything(self):
        agent = make_agent()
        messages = agent.pending_refreshes({"x0": 10.5})
        assert len(messages) == 1       # fail-safe: no bound yet, forward

    def test_in_window_ticks_are_filtered(self):
        agent = make_agent()
        agent.apply_dab_update({"x0": 2.0, "x1": 2.0}, {"x0": 1, "x1": 1})
        assert agent.pending_refreshes({"x0": 11.0}) == []     # |11-10| <= 2
        assert agent.stats["refreshes_filtered"] == 1
        messages = agent.pending_refreshes({"x0": 13.5})       # escape
        assert len(messages) == 1
        assert messages[0].seq == 1
        assert messages[0].value == 13.5
        # The window recentres on the sent value.
        assert agent.push.centres[agent.push.index["x0"]] == 13.5
        assert agent.pending_refreshes({"x0": 14.0}) == []

    def test_seq_increments_per_item(self):
        agent = make_agent()
        first = agent.pending_refreshes({"x0": 100.0})[0]
        second = agent.pending_refreshes({"x0": 200.0})[0]
        other = agent.pending_refreshes({"x1": 99.0})[0]
        assert (first.seq, second.seq) == (1, 2)
        assert other.seq == 1

    def test_unknown_items_ignored(self):
        agent = make_agent()
        assert agent.pending_refreshes({"zz": 1.0}) == []

    def test_missing_initial_value_rejected(self):
        with pytest.raises(Exception, match="no initial value"):
            SourceAgent(0, ["x0"], {})


class TestEpochGuard:
    def test_stale_epoch_dab_update_rejected(self):
        agent = make_agent()
        agent.apply_dab_update({"x0": 1.0}, {"x0": 5})
        agent.apply_dab_update({"x0": 9.0}, {"x0": 4})     # stale: ignored
        agent.apply_dab_update({"x0": 9.0}, {"x0": 5})     # duplicate: ignored
        assert agent.push.bounds["x0"] == 1.0
        assert agent.stats["dab_updates_rejected_stale_epoch"] == 2
        agent.apply_dab_update({"x0": 3.0}, {"x0": 6})     # newer: applied
        assert agent.push.bounds["x0"] == 3.0

    def test_reordered_updates_are_idempotent(self):
        agent = make_agent()
        # Delivery order 2, 1 — the newer bound must win regardless.
        agent.apply_dab_update({"x0": 0.5}, {"x0": 2})
        agent.apply_dab_update({"x0": 4.0}, {"x0": 1})
        assert agent.push.bounds["x0"] == 0.5


class TestLiveAgent:
    def test_connect_applies_registration_dabs(self):
        server, scenario, item_to_source = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1)
        agents = agents_for_scenario(scenario, item_to_source)

        async def body():
            agent = agents[0]
            await agent.connect(server.connect_loopback())
            for _ in range(50):
                if agent.push.bounds:
                    break
                await asyncio.sleep(0.01)
            assert sorted(agent.push.bounds) == sorted(agent.items)
            assert agent.stats["dab_updates_applied"] == len(agent.items)
            await agent.close()
            await server.close()

        run(body())

    def test_tick_while_disconnected_raises(self):
        agent = make_agent()

        async def body():
            with pytest.raises(TransportClosed, match="disconnected"):
                await agent.tick({"x0": 1000.0})

        run(body())

    def test_reconnect_resyncs_and_resumes_seq(self):
        server, scenario, item_to_source = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1)
        agents = agents_for_scenario(scenario, item_to_source)

        async def body():
            agent = agents[0]
            item = agent.items[0]
            await agent.connect(server.connect_loopback())
            sent = await agent.tick({item: agent.values[item] * 10})
            assert sent == 1

            # Connection drops; the agent reconnects and re-registers.
            old_stream = agent._stream
            await agent.connect(server.connect_loopback())
            assert agent.stats["reconnects"] == 1
            assert old_stream.closed

            sent = await agent.tick({item: agent.values[item] * 10})
            assert sent == 1
            # Sync point: a snapshot round trip on the agent's stream
            # guarantees the server consumed the refresh first.
            await agent._stream.send(protocol.snapshot())
            for _ in range(100):
                if server.stats["refreshes_accepted"] == 2:
                    break
                await asyncio.sleep(0.01)
            assert server.stats["refreshes_accepted"] == 2
            assert server.leases.last_seq[item] == 2          # seq continued, no reset
            await agent.close()
            await server.close()

        run(body())

    def test_post_reconnect_refresh_flags_resync(self):
        agent = make_agent()

        async def body():
            from repro.service.transports import loopback_pair

            first_client, first_peer = loopback_pair()
            # Fake coordinator: pre-send the registration reply connect()
            # consumes before returning.
            await first_peer.send(protocol.dab_update(0, {}, {}))
            await agent.connect(first_client)
            agent.pending_refreshes({"x0": 100.0})
            second_client, second_peer = loopback_pair()
            await second_peer.send(protocol.dab_update(0, {}, {}))
            await agent.connect(second_client)
            (message,) = agent.pending_refreshes({"x0": 200.0})
            assert message.resync is True
            (message,) = agent.pending_refreshes({"x0": 300.0})
            assert message.resync is False             # one-shot flag
            await agent.close()

        run(body())

    def test_resync_forces_resend_of_in_window_value(self):
        """A refresh whose send failed already recentred its window;
        the post-reconnect resync must resend it even though the filter
        judges it in-window (the reviewer's lost-refresh scenario)."""
        agent = make_agent()

        async def body():
            from repro.service.transports import loopback_pair

            first_client, first_peer = loopback_pair()
            await first_peer.send(protocol.dab_update(
                0, {"x0": 2.0, "x1": 2.0}, {"x0": 1, "x1": 1}))
            await agent.connect(first_client)
            # Bound-violating tick: state commits (seq, window centre) ...
            (lost,) = agent.pending_refreshes({"x0": 100.0})
            assert lost.seq == 1
            # ... but imagine its send died.  Reconnect, then retry the
            # same value: it is in-window against that centre, yet must
            # be re-sent or the coordinator keeps the stale cache forever.
            second_client, second_peer = loopback_pair()
            await second_peer.send(protocol.dab_update(0, {}, {}))
            await agent.connect(second_client)
            (retried,) = agent.pending_refreshes({"x0": 100.0})
            assert retried.value == 100.0
            assert retried.resync is True
            assert retried.seq == 2
            await agent.close()

        run(body())


class _FlakyStream:
    """Delegates to a real stream but dies on the Nth send (the peer's
    view of a connection dropping mid-conversation)."""

    def __init__(self, inner, fail_on_send):
        self.inner = inner
        self.fail_on_send = fail_on_send
        self.sends = 0

    async def send(self, message):
        self.sends += 1
        if self.sends == self.fail_on_send:
            self.inner.close()
            raise TransportClosed("injected mid-replay drop")
        await self.inner.send(message)

    async def receive(self):
        return await self.inner.receive()

    def close(self):
        self.inner.close()

    @property
    def closed(self):
        return self.inner.closed


class TestReconnectRecovery:
    def test_restarted_source_process_is_not_muted(self):
        """A fresh process's seq counters restart at 0; the registration
        reply's high-water marks must lift them above the server's dedup
        guard or every refresh is rejected as stale."""
        server, scenario, item_to_source = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1)
        agents = agents_for_scenario(scenario, item_to_source)

        async def body():
            agent = agents[0]
            item = agent.items[0]
            await agent.connect(server.connect_loopback())
            await agent.tick({item: agent.values[item] + 1000.0})
            await agent.tick({item: agent.values[item] + 1000.0})
            for _ in range(100):
                if server.stats["refreshes_accepted"] == 2:
                    break
                await asyncio.sleep(0.01)
            assert server.leases.last_seq[item] == 2
            await agent.close()

            # The process restarts: same source id, counters back at 0.
            restarted = SourceAgent(agent.source_id, agent.items,
                                    initial_values=agent.values)
            await restarted.connect(server.connect_loopback())
            assert restarted.push.seq[item] == 2            # floored by the reply
            value = restarted.values[item] + 1000.0
            await restarted.tick({item: value})
            for _ in range(100):
                if server.core.cache[item] == value:
                    break
                await asyncio.sleep(0.01)
            assert server.core.cache[item] == value    # accepted, not muted
            assert server.leases.last_seq[item] == 3
            await restarted.close()
            await server.close()

        run(body())

    def test_mid_replay_send_failure_is_not_lost(self):
        """Reviewer scenario: a refresh commits filter state, its send
        dies, the agent reconnects and retries the step — the coordinator
        must still end up with every item's last sent value."""
        server, scenario, item_to_source = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1)
        agents = agents_for_scenario(scenario, item_to_source)

        async def body():
            agent = agents[0]
            # Send #1 is REGISTER_SOURCE; the drop hits the first REFRESH,
            # after pending_refreshes() already recentred its windows.
            flaky = _FlakyStream(server.connect_loopback(), fail_on_send=2)

            async def reconnect():
                return server.connect_loopback()

            await agent.connect(flaky)
            await agent.replay(scenario.traces, max_steps=30,
                               reconnect=reconnect)
            assert agent.stats["reconnects"] == 1
            expected = {item: agent.push.centres[row]
                        for item, row in agent.push.index.items()}
            for _ in range(200):
                if all(server.core.cache[item] == value
                       for item, value in expected.items()):
                    break
                await asyncio.sleep(0.01)
            for item, value in expected.items():
                assert server.core.cache[item] == value
            await agent.close()
            await server.close()

        run(body())


class TestScenarioAgents:
    def test_agents_partition_the_items(self):
        server, scenario, item_to_source = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1)
        agents = agents_for_scenario(scenario, item_to_source)
        assert set(agents) == set(item_to_source.values())
        claimed = [item for agent in agents.values() for item in agent.items]
        assert sorted(claimed) == sorted(item_to_source)

    def test_replay_pushes_only_violations(self):
        server, scenario, item_to_source = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1)
        agents = agents_for_scenario(scenario, item_to_source)

        async def body():
            agent = agents[0]
            await agent.connect(server.connect_loopback())
            # Give the registration DAB_UPDATE time to arrive: otherwise
            # the fail-safe forwards everything and nothing is filtered.
            for _ in range(50):
                if agent.push.bounds:
                    break
                await asyncio.sleep(0.01)
            sent = await agent.replay(scenario.traces, max_steps=30)
            assert sent == agent.stats["refreshes_sent"]
            assert agent.stats["ticks"] == 30 * len(agent.items)
            assert agent.stats["refreshes_filtered"] > 0
            await agent.close()
            await server.close()

        run(body())
