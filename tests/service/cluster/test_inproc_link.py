"""The in-process message link under the cluster's internal hops.

Three claims, each held by a test that owns its own oracle (there is no
switch in ``src/`` that selects a link):

* **equivalence** — one seeded 2-shard + 2-broker scenario produces the
  same per-peer message sequences, final SNAPSHOT and counters whether
  ``connect_loopback()`` hands messages over as objects (as shipped) or
  the test monkeypatches the pair back to the byte-faithful
  ``loopback_pair``;
* **received messages are read-only** — the same scenario with every
  message deep-copied at ``send`` and compared when the receiving handler
  comes back for the next one (and again at the end);
* **the count gate** — that topology encodes and decodes *zero* frames,
  and one byte-stream subscriber costs exactly the frames it receives.
"""

import asyncio
import copy

import pytest

from repro.service import protocol, server as server_module, transports
from repro.service.agent import agents_for_scenario
from repro.service.client import ServiceClient
from repro.service.cluster import broker as broker_module
from repro.service.cluster import router as router_module
from repro.service.cluster.broker import BrokerTier
from repro.service.cluster.migration import ShardMigrator
from repro.service.cluster.router import build_scenario_cluster
from repro.service.cluster.supervisor import ShardSupervisor
from repro.service.protocol import MessageType
from repro.service.transports import inprocess_pair, loopback_pair


def run(coro):
    return asyncio.run(coro)


SCENARIO = dict(query_count=12, item_count=16, source_count=4,
                trace_length=40, seed=3)

#: The modules whose ``connect_loopback()`` opens a link.
LINK_USERS = (server_module, router_module, broker_module)


def use_pair(monkeypatch, pair):
    for module in LINK_USERS:
        monkeypatch.setattr(module, "inprocess_pair", pair)


async def _drain(rounds=40):
    for _ in range(rounds):
        await asyncio.sleep(0)


def _wire(message):
    """What the message looks like after a trip through the codec (tuples
    become lists, keys sort) — also proves it is encodable."""
    return protocol.decode_body(protocol.encode_body(message))


class Recorder:
    """Read one stream to EOF, keeping every message in arrival order."""

    def __init__(self, stream):
        self.stream = stream
        self.messages = []
        self.task = asyncio.ensure_future(self._listen())

    async def _listen(self):
        while True:
            message = await self.stream.receive()
            if message is None:
                return
            self.messages.append(message)

    async def close(self):
        self.stream.close()
        await self.task


def _timeless(value):
    """Drop wall-clock measurements (seconds, latencies) at any depth."""
    if isinstance(value, dict):
        return {key: _timeless(item) for key, item in value.items()
                if not key.endswith(("_seconds", "_ms", "_us"))
                and key not in ("last_recovery", "restore")}
    if isinstance(value, list):
        return [_timeless(item) for item in value]
    return value


async def _scenario(journal_dir):
    """Refreshes, a QUERY_SUB with definitions, SNAPSHOT gathers, a shard
    kill + reattach and a reshard cutover with a frozen item; returns
    everything an outside observer could compare."""
    now = [0.0]
    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=2, journal_dir=journal_dir, clock=lambda: now[0],
        lease_duration=1000.0, **SCENARIO)
    supervisor = ShardSupervisor(cluster)
    migrator = ShardMigrator(cluster, clock=lambda: now[0])
    await cluster.start()
    tier = BrokerTier(cluster.connect_loopback, brokers=2,
                      clock=lambda: now[0])
    await tier.start()

    sources = {}
    for source_id in sorted(set(item_to_source.values())):
        stream = cluster.connect_loopback()
        await stream.send(protocol.register_source(
            source_id, sorted(n for n, s in item_to_source.items()
                              if s == source_id)))
        sources[source_id] = Recorder(stream)
    names = sorted(query.name for query in scenario.queries)
    subscriptions = {"direct": (cluster, "*"),
                     "broker-0": (tier, "*"),
                     "broker-1": (tier, names[::2])}
    subscribers = {}
    for label, (node, wanted) in subscriptions.items():
        stream = node.connect_loopback()
        await stream.send(protocol.query_sub(wanted))
        subscribers[label] = Recorder(stream)
    await _drain()

    seq = {}

    async def push(steps):
        for step in steps:
            now[0] += 1.0
            for item in sorted(item_to_source):
                seq[item] = seq.get(item, 0) + 1
                source_id = item_to_source[item]
                # The drift walks values out of their secondary windows,
                # so plans are recomputed and DAB_UPDATEs flow back.
                value = scenario.traces[item].at(step) * (1.0 + 0.01 * step)
                await sources[source_id].stream.send(protocol.refresh(
                    source_id, item, value, seq[item], sent_at=now[0]))
            await _drain()

    await push(range(1, 8))

    # A QUERY_SUB with definitions: the router refuses it, a shard
    # registers it (and its NOTIFYs reach the trunk, which ignores the
    # unknown name).
    extra = dict(protocol.query_to_wire(scenario.queries[0]), name="extra")
    refused = Recorder(cluster.connect_loopback())
    await refused.stream.send(protocol.query_sub([], definitions=[extra]))
    home = cluster.decomposition.active_shards[0]
    local = dict(protocol.query_to_wire(cluster.shards[home].core.queries[0]),
                 name="local")
    registered = Recorder(cluster.shards[home].connect_loopback())
    await registered.stream.send(protocol.query_sub([], definitions=[local]))
    await push(range(8, 11))
    await subscribers["direct"].stream.send(protocol.snapshot())
    await _drain()

    # Kill a shard, keep the traffic coming, restore and reattach it.
    victim = cluster.decomposition.active_shards[-1]
    await supervisor.kill(victim)
    await push([11])
    await subscribers["direct"].stream.send(protocol.snapshot())
    await _drain()
    await supervisor.restore(victim)
    await _drain()
    await push(range(12, 16))

    # Reshard one item: freeze, traffic buffered mid-flight, cutover.
    item = sorted(item_to_source)[0]
    owner = cluster.shard_map.shard_of(item)
    target = next(sid for sid in cluster.decomposition.active_shards
                  if sid != owner)
    assert migrator.start({item: target}) == 1
    now[0] += 1.0
    await migrator.tick()
    assert item in cluster._frozen_items
    await push([16, 17])
    now[0] += 1.0
    record = await migrator.tick()
    assert record["outcome"] == "completed" and cluster.map_epoch == 1
    await _drain()
    await push(range(18, 24))
    await cluster.check_leases()
    await _drain()

    for label in subscribers:
        await subscribers[label].stream.send(protocol.snapshot())
    await _drain()

    observed = {
        "subscribers": {label: [_timeless(_wire(m)) for m in rec.messages]
                        for label, rec in subscribers.items()},
        "sources": {sid: [_wire(m) for m in rec.messages]
                    for sid, rec in sources.items()},
        "refused": [_wire(m) for m in refused.messages],
        "registered": [_timeless(_wire(m)) for m in registered.messages],
        "stats": _timeless(_wire(cluster.server_stats())),
        "brokers": tier.stats(),
        "migration": _timeless(migrator.stats_snapshot()),
    }
    for recorder in [*sources.values(), *subscribers.values(),
                     refused, registered]:
        await recorder.close()
    await tier.close()
    await cluster.close()
    return observed


def _check_scenario_shape(observed):
    """The scenario really exercised what the comparison claims."""
    direct = observed["subscribers"]["direct"]
    notifies = [m for m in direct if m["type"] == "notify"]
    snapshots = [m for m in direct if m["type"] == "snapshot"]
    assert len(notifies) > 10 and len(snapshots) == 4
    assert any(m.get("degraded") for m in notifies)        # mid-migration
    assert notifies[-1].get("degraded") in (None, {})      # and cleared
    assert observed["refused"][-1]["type"] == "error"
    assert "local" in observed["registered"][0]["values"]
    assert any(m["type"] == "notify" for m in observed["registered"])
    stats = observed["stats"]
    assert stats["shard_reattachments"] == 1 and stats["map_epoch"] == 1
    assert stats["refreshes_frozen"] >= 2
    assert stats["snapshot_gather_fallbacks"] >= 1         # the dead shard
    assert observed["brokers"]["notifies_sent"] > 0
    assert observed["migration"]["moves_completed"] == 1
    for label in ("broker-0", "broker-1"):
        assert any(m["type"] == "notify"
                   for m in observed["subscribers"][label])


class TestLinkEquivalence:
    def test_same_messages_snapshot_and_counters_as_the_byte_loopback(
            self, tmp_path, monkeypatch):
        shipped = run(_scenario(str(tmp_path / "link")))
        _check_scenario_shape(shipped)
        with monkeypatch.context() as patch:
            use_pair(patch, loopback_pair)
            oracle = run(_scenario(str(tmp_path / "bytes")))
        for section in shipped:
            assert shipped[section] == oracle[section], section

    def test_received_messages_are_never_mutated(self, tmp_path, monkeypatch):
        sent = []
        mutated = []

        def check(entry):
            message, pristine = entry
            if message != pristine:
                mutated.append((pristine, message))

        class AuditedEnd:
            """A link end that remembers what each message looked like
            when it was sent."""

            def __init__(self, end):
                self._end = end
                self._handling = None
                self.name = end.name

            async def send(self, message):
                entry = (message, copy.deepcopy(message))
                sent.append(entry)
                await self._end.send(entry)

            async def receive(self):
                # Asking for the next message is the handler's exit from
                # the previous one.
                if self._handling is not None:
                    check(self._handling)
                self._handling = await self._end.receive()
                return None if self._handling is None else self._handling[0]

            def close(self):
                self._end.close()

            @property
            def closed(self):
                return self._end.closed

        def audited_pair():
            client_end, server_end = inprocess_pair()
            return AuditedEnd(client_end), AuditedEnd(server_end)

        use_pair(monkeypatch, audited_pair)
        audited = run(_scenario(str(tmp_path / "audited")))
        _check_scenario_shape(audited)
        assert len(sent) > 500
        for entry in sent:
            check(entry)
        assert not mutated, mutated[:3]


class TestFrameCountGate:
    def test_in_process_topology_encodes_nothing_and_one_byte_subscriber_costs_its_frames(
            self, monkeypatch):
        counts = {"encode": 0, "decode": 0}
        encode_frame, decode_body = protocol.encode_frame, protocol.decode_body

        def counting_encode(*args, **kwargs):
            counts["encode"] += 1
            return encode_frame(*args, **kwargs)

        def counting_decode(*args, **kwargs):
            counts["decode"] += 1
            return decode_body(*args, **kwargs)

        monkeypatch.setattr(protocol, "encode_frame", counting_encode)
        monkeypatch.setattr(transports, "encode_frame", counting_encode)
        monkeypatch.setattr(protocol, "decode_body", counting_decode)

        # A longer replay than the other tests': the byte subscriber's
        # phase must see several whole-query NOTIFYs.
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, **dict(SCENARIO, trace_length=60))

        async def body():
            await cluster.start()
            tier = BrokerTier(cluster.connect_loopback, brokers=2)
            await tier.start()
            agents = agents_for_scenario(scenario, item_to_source)
            for agent in agents.values():
                await agent.connect(cluster.connect_loopback())
            clients = [ServiceClient(tier.connect_loopback())
                       for _ in range(3)]
            for client in clients:
                await client.subscribe("*")

            async def replay(first, last):
                for step in range(first, last):
                    for agent in agents.values():
                        await agent.tick({
                            item: scenario.traces[item].at(step)
                            for item in agent.items})
                    await _drain()

            await replay(1, 20)
            assert cluster.stats["refreshes_routed"] > 0
            assert all(client.notifies_received > 0 for client in clients)
            assert tier.stats()["upstream_notifies"] > 0
            assert counts == {"encode": 0, "decode": 0}

            # One subscriber over real bytes: the process now encodes
            # exactly the frames that subscriber is sent (its snapshot
            # and NOTIFYs), and decodes its one QUERY_SUB.
            client_end, server_end = loopback_pair()
            byte_broker = tier.brokers[0]
            handler = asyncio.ensure_future(
                byte_broker.handle_connection(server_end))
            received = []
            counts["encode"] = counts["decode"] = 0
            await client_end.send(protocol.query_sub("*"))
            own_encodes, own_decodes = 1, 0     # the QUERY_SUB we just sent
            await replay(20, 58)
            while True:
                try:
                    message = await asyncio.wait_for(client_end.receive(),
                                                     timeout=0.2)
                except asyncio.TimeoutError:
                    break
                received.append(message)
            own_decodes += len(received)
            kinds = [message["type"] for message in received]
            assert kinds[0] == MessageType.SNAPSHOT.value
            # (Whole-query thresholds: a NOTIFY when a query moves by B.)
            assert kinds.count(MessageType.NOTIFY.value) >= 5
            assert counts["encode"] - own_encodes == len(received)
            assert counts["decode"] - own_decodes == 1

            client_end.close()
            await handler
            for client in clients:
                await client.close()
            for agent in agents.values():
                await agent.close()
            await tier.close()
            await cluster.close()

        run(body())


class TestClosedShard:
    def test_router_listeners_exit_when_a_shard_closes(self, tmp_path):
        cluster, _, _ = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"), **SCENARIO)

        async def body():
            await cluster.start()
            victim = cluster.decomposition.active_shards[0]
            upstream_tasks = [link._listener for (sid, _), link
                              in cluster._links.items() if sid == victim]
            trunk_task = cluster._trunks[victim]._listener
            assert upstream_tasks and not trunk_task.done()

            # An undetected crash: the router is told nothing, the hang-up
            # on the links is its only evidence.
            await cluster.shards[victim].close(final_snapshot=False)
            await _drain()
            assert all(task.done() for task in upstream_tasks)
            assert trunk_task.done()
            # The trunk listener went through its resubscribe path, which
            # a closed shard refuses (failover rebuilds the trunk).
            assert cluster.stats["shard_resubscribes"] == 1
            assert not cluster._trunks[victim].connected
            # Routing towards the corpse fails soft.
            link = cluster._links[
                next(key for key in cluster._links if key[0] == victim)]
            assert not await cluster._safe_send(link._stream,
                                                protocol.snapshot())
            await cluster.close()

        run(body())


@pytest.mark.parametrize("node", ["cluster", "tier", "broker"])
def test_every_cluster_node_connects_over_the_link(node):
    cluster, _, _ = build_scenario_cluster(shards=2, **SCENARIO)

    async def body():
        await cluster.start()
        tier = BrokerTier(cluster.connect_loopback, brokers=1)
        await tier.start()
        target = {"cluster": cluster, "tier": tier,
                  "broker": tier.brokers[0]}[node]
        stream = target.connect_loopback()
        assert isinstance(stream, transports.InprocessLink)
        stream.close()
        await tier.close()
        await cluster.close()

    run(body())
