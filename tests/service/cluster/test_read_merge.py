"""One routing pass per read: where a read ends changes nothing.

The router used to route each REFRESH frame of a read on its own, so a
shard link took one sub-frame per source frame.  It now joins each run
of one source's frames into one column (``protocol.merge_refreshes``)
and routes that once: a link takes one sub-frame per run.
:func:`per_frame` below is the former routing, kept as the oracle.  The
same reads, routed both ways, must leave every shard with bit-equal
caches and power vectors, equal seq floors, lease state, stats and
counters, byte-equal write-ahead journals and equal NOTIFYs (their
``refresh_sent_at`` stamps included) — through a ``resync`` frame and a
second ``source_id`` mid-read, an unroutable item, ``sent_at`` on only
some frames, suspect items heard again, a frozen item buffered across
reads and flushed at cutover, and ``map_epoch`` stamps after it.

Mutation-checked: joining frames across a ``resync`` or ``source_id``
boundary, or stamping a joined frame (or a pick of one) with the latest
``sent_at`` instead of the earliest, each fails it.

One thing a read's boundary may move, by design: a sub-frame's stamp is
the earliest of the frames that gave it entries, so when a shard turns
all of the earliest one's entries away as stale resends, its NOTIFY
carries that frame's stamp where per-frame routing carried the next
one's (:func:`test_a_wholly_stale_frame_lends_its_stamp_and_nothing_else`).
"""

import asyncio
import functools

from repro.service import protocol
from repro.service.cluster.migration import ShardMigrator
from repro.service.cluster.router import build_scenario_cluster
from repro.service.protocol import MessageType

from tests.service.cluster.test_inproc_link import _timeless
from tests.service.nodes import SCENARIO, core_fingerprint
from tests.service.test_columnar_refresh import journal_files, settle
from tests.service.test_frame_ingest import Clock, by_route, sent_frames


# ---------------------------------------------------------------------------
# the oracle: the router's routing, one frame at a time
# ---------------------------------------------------------------------------

def route_frame(cluster, frame, entries=None):
    """Send ``frame``'s ``entries`` (all by default) on to every shard
    that reads their items: one sub-frame per (shard, source) link, the
    frame itself to a link that takes every entry."""
    items = frame["items"]
    if entries is None:
        entries = range(len(items))
    by_link = {}
    for index in entries:
        item = items[index]
        source_id = cluster.item_to_source.get(item)
        for sid in cluster._item_shards.get(item, ()):
            by_link.setdefault((sid, source_id), []).append(index)
    for key, picked in by_link.items():
        link = cluster._links.get(key)
        if link is None:
            continue
        sub = (frame if len(picked) == len(items)
               else protocol.refresh_entries(frame, picked))
        if cluster.map_epoch:
            sub = dict(sub, map_epoch=cluster.map_epoch)
        link._stream.send_nowait(sub)
        cluster.stats["refreshes_routed"] += len(picked)


async def per_frame(cluster, peer, frames):
    """The oracle: each frame of the read routed on its own."""
    frozen, item_shards = cluster._frozen_items, cluster._item_shards
    for frame in frames:
        cluster._floors.raise_floors(frame["items"], frame["seqs"])
        routable = []
        for index, item in enumerate(frame["items"]):
            if item in frozen:
                frozen[item].append(protocol.refresh_entries(frame, [index]))
                cluster.stats["refreshes_frozen"] += 1
            elif item not in item_shards:
                cluster.stats["refreshes_unroutable"] += 1
                continue
            else:
                routable.append(index)
            cluster.stats["refreshes_accepted"] += 1
        if routable:
            route_frame(cluster, frame, routable)


async def flush_per_frame(cluster, item):
    """The oracle's flush: each buffered frame routed on its own."""
    buffered = cluster._frozen_items.pop(item, [])
    for frame in buffered:
        route_frame(cluster, frame)
    return len(buffered)


# ---------------------------------------------------------------------------
# the scenario
# ---------------------------------------------------------------------------

class Writer:
    """Builds REFRESH frames: each entry numbered one above its item's
    last, at a value that drifts further each time (an item with no
    trace, which no shard reads, at 1.0)."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.seq = {}

    def __call__(self, source_id, items, **fields):
        values, seqs = [], []
        for item in items:
            seq = self.seq[item] = self.seq.get(item, 0) + 1
            values.append(self.scenario.traces[item].at(seq)
                          * (1.0 + 0.08 * seq)
                          if item in self.scenario.traces else 1.0)
            seqs.append(seq)
        frame = protocol.refresh(source_id, items, values, seqs, **fields)
        assert protocol.validate_message(frame) is MessageType.REFRESH
        return frame


def script(cluster, scenario, item_to_source):
    """``[(label, action), ...]``: reads of several frames each, and what
    happens between them.  An action is a list of frames (one read), or
    one of ``"suspect"``, ``"freeze"``, ``"cutover"``, ``"sweep"``."""
    paths = by_route(cluster, item_to_source)
    both = {source: items for (sids, source), items in paths.items()
            if len(sids) == 2}
    one = {source: (items, sids) for (sids, source), items in paths.items()
           if len(sids) == 1}
    # Source 0 has an item on one shard only, and so does source 1, on
    # the other one: picks that leave a link some entries and not others.
    (a_lone, (a_sid,)), (b_lone, (b_sid,)) = one[0], one[1]
    assert a_sid != b_sid
    a, b = both[0], both[1]
    write = Writer(scenario)
    second = write(0, a[1:3], sent_at=1.1)
    return [
        # The third frame resends the second: stale, entry by entry.
        ("one source, every link whole", [
            write(0, a[:2], sent_at=1.0), second,
            dict(second, sent_at=1.15), write(0, a[:1], sent_at=1.2),
            write(0, a[2:4], sent_at=1.3)]),
        # The earliest frame reaches one shard only: the other shard's
        # pick is stamped by its own frames, not the run's earliest.
        ("picks, sent_at on some frames", [
            write(0, a_lone, sent_at=2.0), write(0, a[:2]),
            write(0, [a[2], *a_lone], sent_at=2.2), write(0, a[3:5]),
            write(0, a[:1], sent_at=2.1)]),
        ("resync mid-read", [
            write(1, b[:2], sent_at=3.0), write(1, b[2:3], sent_at=3.1,
                                                resync=True),
            write(1, [*b_lone, b[0]], sent_at=3.2, resync=True),
            write(1, b[1:3], sent_at=3.3)]),
        ("a second source mid-read", [
            write(0, a[:2], sent_at=4.0), write(0, a_lone, sent_at=4.1),
            write(1, b[:2], sent_at=4.2), write(1, b_lone, sent_at=4.3),
            write(0, a[2:4], sent_at=4.4)]),
        ("an unroutable item", [
            write(1, b[:1], sent_at=5.0),
            write(1, [b[1], "nobody-reads-this"], sent_at=5.1),
            write(1, ["nobody-reads-this"], sent_at=5.2),
            write(1, b[2:4], sent_at=5.3)]),
        ("suspect", sorted([a[0], a[2], b[1], *b_lone])),
        ("suspects heard again", [
            write(0, a[:1], sent_at=6.0), write(0, a[1:3], sent_at=6.1),
            write(1, b[:2], sent_at=6.2), write(1, b_lone, sent_at=6.3)]),
        ("sweep", None),
        ("freeze", a[1]),
        ("the frozen item, twice in a read", [
            write(0, a[:2], sent_at=7.0), write(0, a[1:2], sent_at=7.1),
            write(0, [a[2], a[1]], sent_at=7.2, resync=True)]),
        ("the frozen item, again", [
            write(0, a[1:3], sent_at=8.0), write(0, a[1:2])]),
        ("cutover", None),
        ("after the reshard", [
            write(0, a[:3], sent_at=9.0), write(0, a_lone, sent_at=9.1),
            write(1, b[:2], sent_at=9.2), write(1, b[1:2], sent_at=9.3),
            write(1, b_lone, sent_at=9.4)]),
        ("again", [
            write(0, a[1:2], sent_at=10.0), write(0, a[:4], sent_at=10.1),
            write(0, a_lone)]),
    ]


async def run_reads(directory, oracle, script_of=script):
    clock = Clock()
    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=2, journal_dir=directory, clock=clock, lease_duration=5.0,
        **SCENARIO)
    migrator = ShardMigrator(cluster, clock=clock)
    await cluster.start()
    route = (functools.partial(per_frame, cluster) if oracle
             else cluster._on_refresh)
    if oracle:
        cluster.unfreeze_item = functools.partial(flush_per_frame, cluster)
    subscribers = {}
    cleared = {}
    for sid, shard in sorted(cluster.shards.items()):
        stream = subscribers[sid] = shard.connect_loopback()
        await stream.send(protocol.query_sub("*"))
        assert (await stream.receive())["type"] == MessageType.SNAPSHOT.value
        # When warm starts were dropped (a resync frame) — not how often:
        # a joined run clears them once for its frames.
        cleared[sid] = set()
        core = shard.core
        core.clear_planner_warm_starts = functools.partial(
            lambda clear, log: (log.add(clock.now), clear())[1],
            core.clear_planner_warm_starts, cleared[sid])
    sent = sent_frames(cluster)
    shards = cluster.shards

    def counters():
        return tuple((shard.stats["refreshes_accepted"],
                      shard.stats["notifies_sent"],
                      shard.stats["dab_updates_sent"],
                      shard.stats["refresh_batches"])
                     for shard in shards.values())

    reads = []
    for label, action in script_of(cluster, scenario, item_to_source):
        clock.now += 1.0
        before = len(sent)
        if label == "suspect":
            for shard in shards.values():
                shard.mark_suspect([item for item in action
                                    if item in shard.core.cache])
        elif label == "sweep":
            await cluster.check_leases()
        elif label == "freeze":
            target = next(sid for sid in cluster.decomposition.active_shards
                          if sid != cluster.shard_map.shard_of(action))
            assert migrator.start({action: target}) == 1
            await migrator.tick()
            assert action in cluster._frozen_items
        elif label == "cutover":
            record = await migrator.tick()
            assert record["outcome"] == "completed"
            assert record["flushed_refreshes"] >= 4
        else:
            await route(None, action)
        await settle(counters)
        reads.append((label, sent[before:]))
    outcome = {}
    for sid, shard in sorted(shards.items()):
        core = shard.core
        outcome[sid] = {
            "core": core_fingerprint(core),
            "cache": {item: value.hex() for item, value in core.cache.items()},
            "power_vector": core._power_vector.tobytes(),
            "floors": dict(shard.leases.last_seq),
            "leases": shard.leases.recovery_state(),
            "last_heard": dict(shard.last_heard),
            "map_epoch": shard.map_epoch,
            "warm_starts_cleared": sorted(cleared[sid]),
            "stats": _timeless(shard.server_stats()),
        }
    router = {"stats": dict(cluster.stats),
              "floors": dict(cluster._floors.last_seq),
              "bounds": dict(cluster.dab_sent.sent),
              "epochs": dict(cluster.dab_sent.epochs)}
    await cluster.close()
    for sid, stream in subscribers.items():
        received = []
        while (message := await stream.receive()) is not None:
            if message["type"] == MessageType.NOTIFY.value:
                received.append(message)
        outcome[sid]["notifies"] = received
    outcome["journal"] = journal_files(directory)
    return outcome, router, reads


def test_a_read_routed_whole_is_each_frame_routed_alone(tmp_path):
    joined, router, reads = asyncio.run(
        run_reads(str(tmp_path / "joined"), oracle=False))
    alone, oracle_router, oracle_reads = asyncio.run(
        run_reads(str(tmp_path / "alone"), oracle=True))
    # The script reaches every path it is meant to.
    stats = oracle_router["stats"]
    assert stats["refreshes_frozen"] >= 4
    assert stats["refreshes_unroutable"] == 2
    shards = [alone[sid] for sid in (0, 1)]
    assert all(shard["notifies"] for shard in shards)
    assert any("degraded" in notify for shard in shards
               for notify in shard["notifies"])
    assert all(shard["warm_starts_cleared"] for shard in shards)
    assert {shard["map_epoch"] for shard in shards} == {1}
    assert any(shard["stats"]["refreshes_rejected_stale_seq"]
               for shard in shards)
    assert alone["journal"]
    # ... and joins: fewer frames reach the shards, the same entries.
    assert len(sum((s for _, s in reads), [])) < len(
        sum((s for _, s in oracle_reads), []))
    for section in alone:
        assert joined[section] == alone[section], section
    assert router == oracle_router


def stale_resend_script(cluster, scenario, item_to_source):
    """A read whose first frame only resends what a shard already has,
    then a frame that moves every query."""
    items = by_route(cluster, item_to_source)[((0, 1), 0)]
    write = Writer(scenario)
    first = write(0, items[:1], sent_at=1.0)
    moves = protocol.refresh(0, items, [value * 4.0 for value in
                                        write(0, items)["values"]],
                             [99] * len(items), sent_at=3.0)
    return [("first", [first]),
            ("resent, then moved", [dict(first, sent_at=2.0), moves])]


def test_a_wholly_stale_frame_lends_its_stamp_and_nothing_else(tmp_path):
    joined, router, _ = asyncio.run(run_reads(
        str(tmp_path / "joined"), oracle=False,
        script_of=stale_resend_script))
    alone, oracle_router, _ = asyncio.run(run_reads(
        str(tmp_path / "alone"), oracle=True, script_of=stale_resend_script))
    assert router == oracle_router
    assert joined["journal"] == alone["journal"]
    for sid in (0, 1):
        ours, theirs = joined[sid], alone[sid]
        assert ours["stats"]["refreshes_rejected_stale_seq"] == 1
        stamps = [notify.pop("refresh_sent_at")
                  for notify in ours["notifies"]]
        oracle_stamps = [notify.pop("refresh_sent_at")
                         for notify in theirs["notifies"]]
        assert stamps[:-1] == oracle_stamps[:-1]
        assert (stamps[-1], oracle_stamps[-1]) == (2.0, 3.0)
        assert ours == theirs


# ---------------------------------------------------------------------------
# the count gate
# ---------------------------------------------------------------------------

async def one_read(frames_of):
    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=2, **SCENARIO)
    await cluster.start()
    frames = frames_of(cluster, scenario, item_to_source)
    sent = sent_frames(cluster)
    await cluster._on_refresh(None, frames)
    await cluster.close()
    return frames, sent, cluster._item_shards


def test_a_read_of_one_source_is_one_sub_frame_per_link():
    def frames_of(cluster, scenario, item_to_source):
        write = Writer(scenario)
        source_items = sorted(item for item, source in item_to_source.items()
                              if source == 0)
        return [write(0, source_items[i:i + 3], sent_at=float(i))
                for i in range(0, len(source_items), 2)]

    frames, sent, item_shards = asyncio.run(one_read(frames_of))
    assert len(frames) >= 5
    expected = {}
    for frame in frames:
        for item in frame["items"]:
            for sid in item_shards[item]:
                expected.setdefault(sid, []).append(item)
    assert len(expected) == 2
    # One sub-frame per shard, each on the one source's link.
    assert [sid for sid, _ in sent] == list(expected)
    for sid, message in sent:
        assert message["items"] == expected[sid]
        assert message["sent_at"] == 0.0


def test_a_one_frame_read_hands_each_shard_the_same_dict():
    def frames_of(cluster, scenario, item_to_source):
        items = by_route(cluster, item_to_source)[((0, 1), 0)]
        return [Writer(scenario)(0, items[:3], sent_at=1.0)]

    frames, sent, _ = asyncio.run(one_read(frames_of))
    assert sorted(sid for sid, _ in sent) == [0, 1]
    assert all(message is frames[0] for _, message in sent)
