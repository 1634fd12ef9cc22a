"""A REFRESH frame is the unit of work: taken in whole, it changes nothing.

A node used to take a REFRESH frame in entry by entry — screen, dedup,
lease, apply, one call each — and now runs each step once per frame over
its columns (``CoordinatorServer._apply_refresh``).  :func:`per_entry`
below is the entry-by-entry ingest, kept here as the oracle: the same
frames, sent to one server that ingests per frame and one that ingests
per entry, must leave bit-equal caches and power vectors, equal stats and
metrics counters, byte-equal write-ahead journals and equal NOTIFYs —
through stale seqs, unknown items, one item twice in a frame, ``resync``,
stale and future ``map_epoch`` stamps, and staleness leases that expire,
are marked suspect and are heard again.

The cluster router takes a frame whole too when it can; a frame with
items on different shard sets, or with a frozen item, is still split
entry by entry.
"""

import asyncio
import random

import pytest

from repro.service import protocol
from repro.service.cluster.router import build_scenario_cluster
from repro.service.journal import Journal
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server

from tests.service.nodes import SCENARIO, core_fingerprint
from tests.service.test_columnar_refresh import journal_files, notifies, settle


def per_entry(server, frame):
    """The oracle: ``server`` takes ``frame`` in one entry at a time — the
    screen, the dedup, the lease and the apply each run once per entry,
    and a change in which queries are degraded is announced as the entry
    that made it is heard."""
    frame_epoch = frame.get("map_epoch")
    if server.map_epoch is not None and (frame_epoch or 0) < server.map_epoch:
        server.stats["refreshes_rejected_stale_map_epoch"] += len(
            frame["items"])
        return []
    if frame_epoch is not None:
        server.advance_map_epoch(frame_epoch)
    now = server.clock()
    cache, leases = server.core.cache, server.leases
    accepted = []
    for item, value, seq in zip(frame["items"], frame["values"],
                                frame["seqs"]):
        if item not in cache:
            server.metrics.record_misrouted_bounds()
            continue
        if not leases.accept([item], [seq]):
            server.stats["refreshes_rejected_stale_seq"] += 1
            continue
        if leases.enabled:
            leases.heard(item, now)
            server._fanout_degraded_if_changed()
        server.core.apply_refresh([item], [value], seqs=[seq])
        accepted.append(item)
    if accepted:
        server.last_heard[frame["source_id"]] = now
        server.stats["refreshes_accepted"] += len(accepted)
        if frame.get("resync"):
            server.core.clear_planner_warm_starts()
    return accepted


class Clock:
    """A clock the test moves: leases expire only when it says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def script(scenario, item_to_source, seed, steps=30):
    """``[(action, argument), ...]``: the frames to send, a few at a time
    with no yield in between (one read, one batch), and what happens
    between them — the clock moving, leases swept, items marked suspect,
    the map epoch advanced.

    Every frame is some of one source's items at drifting trace values,
    numbered per item; some entries repeat an item (numbered higher, or
    overtaken), reuse an old seq, or name an item no one owns (all of a
    frame's, now and then); some frames are ``resync`` or carry a stale or
    future ``map_epoch``."""
    rng = random.Random(seed)
    owned = {}
    for item, source_id in sorted(item_to_source.items()):
        owned.setdefault(source_id, []).append(item)
    seq = {item: 0 for item in item_to_source}
    epoch = 0
    actions = []
    for step in range(1, steps + 1):
        drift = 1.0 + 0.05 * step
        batch = []
        for _ in range(rng.randint(1, 3)):
            source_id = rng.choice(sorted(owned))
            items = rng.sample(owned[source_id],
                               rng.randint(1, len(owned[source_id])))
            entries = []
            for item in items:
                seq[item] += 1
                entries.append((item, scenario.traces[item].at(step) * drift,
                                seq[item]))
            roll = rng.random()
            if roll < 0.2:
                item = rng.choice(items)
                seq[item] += 1
                entries.append((item, scenario.traces[item].at(step) * 0.9,
                                seq[item]))                 # twice, newer
            elif roll < 0.35:
                item = rng.choice(items)
                entries.append((item, -1.0, seq[item]))     # twice, overtaken
            elif roll < 0.45:
                entries.insert(0, (items[0], -2.0, max(0, seq[items[0]] - 3)))
            elif roll < 0.55:
                entries.insert(rng.randint(0, len(entries)),
                               ("nobody-owns-this", 1.0, step))
            elif roll < 0.6:
                entries = [("nobody-owns-this", 1.0, step)]    # all unknown
            stamp = {}
            if rng.random() < 0.1:
                stamp["resync"] = True
            if epoch and rng.random() < 0.15:
                stamp["map_epoch"] = epoch - 1                  # fenced
            elif rng.random() < 0.1:
                epoch += 1
                stamp["map_epoch"] = epoch                      # from ahead
            elif epoch:
                stamp["map_epoch"] = epoch
            batch.append(protocol.refresh(
                source_id, *map(list, zip(*entries)), sent_at=float(step),
                **stamp))
        actions.append(("send", batch))
        actions.append(("clock", 0.5 * step))
        if step % 5 == 0:
            actions.append(("sweep", None))
        if step % 7 == 0:
            actions.append(("suspect", sorted(rng.sample(sorted(seq), 3))))
    return actions


async def run_ingest(directory, ingest, lease_duration, seed):
    clock = Clock()
    server, scenario, item_to_source = build_scenario_server(
        **SCENARIO, clock=clock, journal=Journal(directory),
        lease_duration=lease_duration)
    server.restore()
    if ingest is not None:
        server._apply_refresh = lambda frame: ingest(server, frame)
    subscriber = server.connect_loopback()
    await subscriber.send(protocol.query_sub("*"))
    assert (await subscriber.receive())["type"] == MessageType.SNAPSHOT.value
    streams = {}
    for source_id in sorted(set(item_to_source.values())):
        stream = streams[source_id] = server.connect_loopback()
        await stream.send(protocol.register_source(
            source_id, sorted(item for item, owner in item_to_source.items()
                              if owner == source_id)))
        assert (await stream.receive())["type"] == MessageType.DAB_UPDATE.value

    def counters():
        return (server.metrics.refreshes, server.stats["notifies_sent"],
                server.stats["dab_updates_sent"])

    for action, argument in script(scenario, item_to_source, seed):
        if action == "send":
            for frame in argument:
                await streams[frame["source_id"]].send(frame)
        elif action == "clock":
            clock.now = argument
        elif action == "sweep":
            await server.check_leases()
        else:
            server.mark_suspect(argument)
        await settle(counters)
    for stream in streams.values():
        stream.close()
    await settle(counters)
    core = server.core
    outcome = {
        "core": core_fingerprint(core),
        "cache": {item: value.hex() for item, value in core.cache.items()},
        "power_vector": core._power_vector.tobytes(),
        "values": [value.hex() for value in core.query_values()],
        "floors": dict(server.leases.last_seq),
        "leases": server.leases.recovery_state(),
        "metrics": {name: value for name, value in vars(server.metrics).items()
                    if isinstance(value, (int, float, dict))},
        "map_epoch": server.map_epoch,
        "last_heard": dict(server.last_heard),
    }
    await server.close()
    outcome["stats"] = dict(server.stats)
    outcome["notifies"] = await notifies(subscriber)
    outcome["journal"] = journal_files(directory)
    return outcome


@pytest.mark.parametrize("lease_duration", [None, 1.0],
                         ids=["leases-off", "leases-on"])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_frame_taken_whole_is_every_entry_taken_alone(tmp_path, seed,
                                                         lease_duration):
    whole = asyncio.run(run_ingest(str(tmp_path / "whole"), None,
                                   lease_duration, seed))
    alone = asyncio.run(run_ingest(str(tmp_path / "alone"), per_entry,
                                   lease_duration, seed))
    stats = alone["stats"]
    # The sequence reaches every path it is meant to.
    assert stats["refreshes_rejected_stale_seq"] > 0
    assert stats["refreshes_rejected_stale_map_epoch"] > 0
    assert alone["metrics"]["misrouted_bounds"] > 0
    assert alone["notifies"] and alone["journal"]
    if lease_duration is not None:
        assert any("degraded" in message for message in alone["notifies"])
        assert alone["metrics"]["lease_expiries"] > 0
    assert whole == alone


# ---------------------------------------------------------------------------
# the router: whole when it can be, split when it must be
# ---------------------------------------------------------------------------

def sent_frames(cluster):
    """Every REFRESH frame the router sends a shard, as
    ``(shard id, frame)`` in send order."""
    sent = []
    for (sid, _), link in cluster._links.items():
        stream = link._stream
        original = stream.send_nowait

        def send_nowait(message, sid=sid, original=original):
            if message.get("type") == MessageType.REFRESH.value:
                sent.append((sid, message))
            original(message)

        stream.send_nowait = send_nowait
    return sent


async def route(frames, prepare=None):
    cluster, _, item_to_source = build_scenario_cluster(shards=2, **SCENARIO)
    await cluster.start()
    if prepare is not None:
        prepare(cluster)
    sent = sent_frames(cluster)
    await cluster._on_refresh(None, frames(cluster, item_to_source))
    stats = dict(cluster.stats)
    frozen = {item: list(buffered)
              for item, buffered in cluster._frozen_items.items()}
    await cluster.close()
    return sent, stats, frozen


def by_route(cluster, item_to_source):
    """``{(shard set, source): [items]}`` over the cluster's items."""
    routes = {}
    for item, sids in sorted(cluster._item_shards.items()):
        routes.setdefault((sids, item_to_source.get(item)), []).append(item)
    return routes


def frame_of(source_id, items, seq=1):
    return protocol.refresh(source_id, items, [1.5] * len(items),
                            [seq] * len(items), sent_at=0.0)


def test_a_frame_on_one_route_goes_whole_to_each_shard():
    picked = {}

    def frames(cluster, item_to_source):
        routes = by_route(cluster, item_to_source)
        (sids, source_id), items = max(
            routes.items(), key=lambda route: (len(route[0][0]),
                                               len(route[1])))
        picked.update(sids=sids, frame=frame_of(source_id, items[:3]))
        return [picked["frame"]]

    sent, stats, _ = asyncio.run(route(frames))
    assert [sid for sid, _ in sent] == list(picked["sids"])
    assert all(frame is picked["frame"] for _, frame in sent)
    assert stats["refreshes_accepted"] == len(picked["frame"]["items"])


def test_a_frame_over_two_shard_sets_is_split_entry_by_entry():
    picked = {}

    def frames(cluster, item_to_source):
        routes = by_route(cluster, item_to_source)
        source_id = next(
            source for source in sorted(set(item_to_source.values()))
            if len({sids for (sids, owner) in routes
                    if owner == source}) > 1)
        mine = [(sids, items) for (sids, owner), items in sorted(
            routes.items()) if owner == source_id]
        (first, one), (second, two) = mine[0], mine[1]
        picked.update(first=first, second=second, one=one[0], two=two[0])
        picked["frame"] = frame_of(source_id, [one[0], two[0], one[0]])
        picked["frame"]["seqs"] = [1, 1, 2]
        return [picked["frame"]]

    sent, stats, _ = asyncio.run(route(frames))
    frame = picked["frame"]
    expected = {}
    for index, item in enumerate(frame["items"]):
        sids = picked["first"] if item == picked["one"] else picked["second"]
        for sid in sids:
            expected.setdefault(sid, []).append(index)
    for sid, message in sent:
        assert message is not frame or expected[sid] == [0, 1, 2]
        indices = expected[sid]
        assert message["items"] == [frame["items"][i] for i in indices]
        assert message["seqs"] == [frame["seqs"][i] for i in indices]
    assert sorted(sid for sid, _ in sent) == sorted(expected)
    assert stats["refreshes_accepted"] == 3


def test_a_frame_with_a_frozen_item_is_split_entry_by_entry():
    picked = {}

    def frames(cluster, item_to_source):
        routes = by_route(cluster, item_to_source)
        (sids, source_id), items = max(routes.items(),
                                       key=lambda route: len(route[1]))
        picked.update(sids=sids, items=items[:3])
        picked["frame"] = frame_of(source_id, picked["items"], seq=4)
        return [picked["frame"]]

    def freeze(cluster):
        # The route's second item; which route that is is picked in
        # ``frames``, so freeze each candidate.
        for items in by_route(cluster, cluster.item_to_source).values():
            if len(items) > 1:
                cluster.freeze_item(items[1])

    sent, stats, frozen = asyncio.run(route(frames, freeze))
    frame, items = picked["frame"], picked["items"]
    assert stats["refreshes_frozen"] == 1
    assert stats["refreshes_accepted"] == 3
    assert [buffered["items"] for buffered in frozen[items[1]]] == [[items[1]]]
    assert [sid for sid, _ in sent] == list(picked["sids"])
    for _, message in sent:
        assert message is not frame
        assert message["items"] == [items[0], items[2]]
        assert message["seqs"] == [4, 4]
