"""One source write, one REFRESH frame: the columnar shape changes no outcome.

A tick's refreshes used to cross the wire as one frame each, in one
write; they now cross as one frame whose ``items``/``values``/``seqs``
columns hold them all.  A node handles what one read delivered as one
batch either way, so the two framings must be indistinguishable from
everything the node keeps or says: the same refresh sequence, sent once
as one-entry frames and once as per-tick frames, must leave equal core
state (``core_fingerprint``), bit-equal query values, equal seq floors,
equal NOTIFY payloads and byte-equal write-ahead journals — over real
bytes (``loopback_pair``), over the in-process link (``inprocess_pair``)
and through a two-shard cluster.
"""

import asyncio
import os

import pytest

from repro.service import protocol
from repro.service.cluster.router import build_scenario_cluster
from repro.service.journal import Journal
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from repro.service.transports import inprocess_pair, loopback_pair

from tests.service.nodes import SCENARIO, core_fingerprint

#: Ticks of the scenario's traces replayed, every item on every tick.
TICKS = 12


def run(coro):
    return asyncio.run(coro)


def ticks(scenario, item_to_source):
    """``[(source_id, items, values, seqs, sent_at), ...]`` per write.

    Every owned item at its (drifting) trace value, numbered per item —
    plus, on a few ticks, an overtaken seq (dedup) and an item no shard
    owns (misroute), so the rejecting paths are in the sequence too."""
    owned = {}
    for item, source_id in sorted(item_to_source.items()):
        owned.setdefault(source_id, []).append(item)
    seq = {item: 0 for item in item_to_source}
    writes = []
    for step in range(1, TICKS + 1):
        # A steady climb on top of the traces, so windows break, plans are
        # made and query values move past their bounds (NOTIFYs).
        drift = 1.0 + 0.04 * step
        for source_id, items in sorted(owned.items()):
            entries = []
            for item in items:
                seq[item] += 1
                entries.append((item, scenario.traces[item].at(step) * drift,
                                seq[item]))
            if step % 4 == 0:
                stale = items[0]
                entries.append((stale, -1.0, seq[stale] - 1))
                entries.append(("nobody-owns-this", 1.0, step))
            columns = [list(column) for column in zip(*entries)]
            writes.append((source_id, *columns, float(step)))
    return writes


async def send_write(stream, write, per_tick):
    source_id, items, values, seqs, sent_at = write
    if per_tick:
        await stream.send(protocol.refresh(source_id, items, values, seqs,
                                           sent_at=sent_at))
    else:
        # One frame per refresh, all sent before the node gets a turn:
        # they reach it in one read, as one batch.
        for item, value, seq in zip(items, values, seqs):
            await stream.send(protocol.refresh(source_id, [item], [value],
                                               [seq], sent_at=sent_at))


async def settle(counters):
    """Let the loop run until ``counters()`` stops moving."""
    last, still = None, 0
    for _ in range(500):
        await asyncio.sleep(0)
        now = counters()
        still = still + 1 if now == last else 0
        if still >= 10:
            return
        last = now
    raise AssertionError("the nodes never went quiet")


def open_stream(node, pair):
    if pair is None:
        return node.connect_loopback()
    client_end, server_end = pair()
    node.adopt_connection(server_end)
    return client_end


async def drive(node, item_to_source, writes, per_tick, pair, counters):
    """Register the sources and a wildcard subscriber on ``node``, replay
    ``writes`` one settled write at a time; returns the subscriber."""
    subscriber = open_stream(node, pair)
    await subscriber.send(protocol.query_sub("*"))
    assert (await subscriber.receive())["type"] == MessageType.SNAPSHOT.value
    streams = {}
    for source_id in sorted(set(item_to_source.values())):
        stream = streams[source_id] = open_stream(node, pair)
        await stream.send(protocol.register_source(
            source_id, sorted(item for item, owner in item_to_source.items()
                              if owner == source_id)))
        assert (await stream.receive())["type"] == MessageType.DAB_UPDATE.value
    for write in writes:
        await send_write(streams[write[0]], write, per_tick)
        await settle(counters)
    for stream in streams.values():
        stream.close()
    await settle(counters)
    return subscriber


async def notifies(subscriber):
    """Every NOTIFY the subscriber was sent (its node is closed)."""
    received = []
    while True:
        message = await subscriber.receive()
        if message is None:
            return received
        if message["type"] == MessageType.NOTIFY.value:
            received.append(message)


def journal_files(directory):
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


def server_outcome(server):
    return {"core": core_fingerprint(server.core),
            "values": [value.hex() for value in server.core.query_values()],
            "floors": dict(server.leases.last_seq),
            # An entry for an item the node does not hold is turned away
            # here, so a router that routed too much shows.
            "misrouted": server.metrics.misrouted_bounds}


def frozen_clock():
    """One instant for every stamp, so NOTIFY frames compare equal."""
    return 0.0


async def one_server(directory, per_tick, pair):
    server, scenario, item_to_source = build_scenario_server(
        **SCENARIO, clock=frozen_clock, journal=Journal(directory))
    server.restore()
    subscriber = await drive(
        server, item_to_source, ticks(scenario, item_to_source), per_tick,
        pair, lambda: (server.metrics.refreshes, server.stats["notifies_sent"],
                       server.stats["dab_updates_sent"]))
    outcome = server_outcome(server)
    await server.close()
    outcome["notifies"] = await notifies(subscriber)
    outcome["journal"] = journal_files(directory)
    outcome["stats"] = {key: server.stats[key] for key in (
        "refreshes_accepted", "refresh_batches",
        "refreshes_rejected_stale_seq")}
    return outcome


async def two_shards(directory, per_tick):
    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=2, **SCENARIO, clock=frozen_clock, journal_dir=directory)
    await cluster.start()

    def counters():
        return (cluster.stats["refreshes_routed"],
                cluster.stats["notifies_sent"],
                cluster.stats["dab_updates_sent"],
                tuple(shard.metrics.refreshes
                      for shard in cluster.shards.values()))

    subscriber = await drive(
        cluster, item_to_source, ticks(scenario, item_to_source), per_tick,
        None, counters)
    outcome = {sid: server_outcome(shard)
               for sid, shard in sorted(cluster.shards.items())}
    outcome["router_floors"] = dict(cluster._floors.last_seq)
    outcome["stats"] = {key: cluster.stats[key] for key in (
        "refreshes_accepted", "refreshes_routed", "refreshes_unroutable")}
    await cluster.close()
    outcome["notifies"] = await notifies(subscriber)
    outcome["journal"] = journal_files(directory)
    return outcome


@pytest.mark.parametrize("pair", [loopback_pair, inprocess_pair],
                         ids=["bytes", "link"])
def test_one_server_cannot_tell_the_framings_apart(tmp_path, pair):
    single = run(one_server(str(tmp_path / "single"), False, pair))
    columnar = run(one_server(str(tmp_path / "columnar"), True, pair))
    assert single["stats"]["refreshes_rejected_stale_seq"] > 0
    assert single["notifies"] and single["journal"]
    assert columnar == single


def test_two_shards_cannot_tell_the_framings_apart(tmp_path):
    single = run(two_shards(str(tmp_path / "single"), False))
    columnar = run(two_shards(str(tmp_path / "columnar"), True))
    assert single["stats"]["refreshes_unroutable"] > 0
    assert single["notifies"] and single["journal"]
    assert columnar == single
