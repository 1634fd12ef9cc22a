"""The shard router: one cluster front-end over N coordinator shards.

A :class:`ClusterCoordinator` is a pure protocol peer — it speaks the
same framed wire protocol as :class:`CoordinatorServer` to the outside
world (sources register, push REFRESH/HEARTBEAT; subscribers QUERY_SUB
and receive NOTIFY/SNAPSHOT), and it speaks the same *messages* inward
to each shard — not the same bytes: a shard lives in the router's
process, so ``shard.connect_loopback()`` is an in-process message link
(:func:`repro.service.transports.inprocess_pair`) that hands the message
dict across, and nothing on the router↔shard or router↔broker hops is
encoded or decoded.  Both ends still validate every message they
receive, and a message received over a link is read-only (the router
hands one REFRESH frame to every shard that reads all of its items; it
copies before picking a shard's entries or stamping ``map_epoch``).  No
shard knows it is clustered; no source or subscriber knows there is
more than one coordinator.  The pieces:

**Placement and item routing.**  Items are partitioned by the stable
CRC32 hash of :mod:`repro.service.cluster.routing`; every query lives
whole, at its full budget ``B``, on one *home shard* drawn from the
shards that own its items (:mod:`repro.filters.shard_budget`).  An item
read by a query homed elsewhere is *mirrored*: the router forwards its
refreshes to every shard whose bank reads it, so the forwarding table is
``items_needed`` (owner ∪ mirrors), not bare ownership.

**Source impersonation.**  For every (shard, source) pair the router
holds an in-process link registered *as that source* for the items the
shard needs — a :class:`~repro.service.client.SourceLink`, the client a
``SourceAgent`` is.  The REFRESH frames of one read, each run of one
source's frames joined into one column, are split into one sub-frame
per (shard, source) link, holding the entries that shard reads;
HEARTBEATs go to every shard holding the source's items; the shards'
DAB_UPDATE replies (bounds, probes) flow back through the same streams.

**DAB min-merge.**  Each shard programs primary DABs for *its* view of
an item.  The router takes the min bound across shards — the only
window every shard's guarantee survives, and, with every query planned
whole on its home, exactly the paper's EQI (Section IV): the minimum
over the queries that read the item, the bound one coordinator would
have programmed — and forwards it to the real source through the same
:class:`~repro.service.source_plane.DabSendTable` as the core: under its
own per-item epochs, bumped only on material change.  Toward real
sources the
router runs the same acked/retried delivery as a lone server
(:mod:`repro.service.frontend`); a shard's update is acked as soon as it
is merged (the in-process hop is lossless), so when delivery to a source
is given up on, the router marks the items suspect on the shards that
read them.

**Pass-through.**  One wildcard subscription per shard feeds the
served-value table ``{query: value}`` beside the placement table
``{query: home}``, under two rules.  *Admission:* a NOTIFY or seed
SNAPSHOT from shard ``s`` writes a query's entry iff ``s`` is its home.
*Cutover:* a query whose home changed loses its entry until
:meth:`ClusterCoordinator.announce_rehomed` installs the new home's — so
an ex-home's value is never served.  An admitted value passes through
bit-identically and is fanned to downstream subscribers through the
shared bounded-queue/slow-consumer-eviction subscriber plane — so
subscribers are pushed to when the *query* moves by ``B``, as on one
coordinator.  SNAPSHOT requests gather a *fresh* snapshot from every
shard (error ≤ ``B``) rather than serving the last pushed values, which
may trail by another ``B``.

**Degraded honesty.**  Shards keep their own staleness leases; the
router forwards heartbeats and probe traffic, and merges per-shard
degraded maps: a query is degraded iff its home shard flags it (with the
home's honestly-widened bound), its home is suspected by the failure
detector, or one of its items is mid-migration.
"""

from __future__ import annotations

import asyncio
import os
import time as _time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.filters.shard_budget import BankDecomposition, decompose_bank, recombine
from repro.service import protocol
from repro.service.client import ServiceClient, SourceLink
from repro.service.cluster.routing import ShardMap
from repro.service.frontend import (
    DEFAULT_NOTIFY_QUEUE_LIMIT,
    TRUNK_QUEUE_LIMIT,
    FrontEnd,
    Peer,
    _Subscriber,
)
from repro.service.protocol import MessageType, ProtocolError
from repro.service.resilience import RetryPolicy
from repro.service.server import CoordinatorServer, _scenario_planning
from repro.service.source_plane import BoundUpdate, DabSendTable, SeqFloors
from repro.service.transports import (
    InprocessLink,
    MessageStream,
    TransportClosed,
    inprocess_pair,
)

#: How long a snapshot gather waits per shard before falling back to the
#: last served values (a dead shard mid-failover must not hang audits).
SNAPSHOT_GATHER_TIMEOUT = 5.0

#: Floor for each shard's notify-queue limit toward its single
#: subscriber, the router's aggregation trunk.  A burst that evicts an
#: ordinary slow subscriber must *not* evict the trunk — that silently
#: freezes the values of the queries the shard homes — so the trunk rides
#: a much deeper queue than user-facing subscribers and the router
#: re-subscribes if it is ever cut anyway.  Same floor the servers grant
#: ``trunk=True`` subscriptions (brokers' upstreams) on the wire.
SHARD_TRUNK_QUEUE_LIMIT = TRUNK_QUEUE_LIMIT

#: How much the budget of a query homed on a *suspected* (unresponsive,
#: not yet failed-over) shard is widened in the merged degraded map.  While a
#: shard is silent the router cannot see its widened lease bounds, so it
#: substitutes this documented heuristic — the same honesty contract as
#: the lease machinery's drift widening: served answers carry a bound
#: the cluster can actually promise, never silent staleness.  The soak
#: audit holds a flagged query to this widened bound (exceeding it is
#: fatal); 2.0 mirrors the one-missed-refresh-per-item worst case the
#: failure detector's deadline tolerates before firing.
SUSPECT_WIDEN_FACTOR = 2.0


class _ShardTrunk(ServiceClient):
    """The router's wildcard subscription to one shard: the subscriber
    client with the router's admission rules in front of its tables."""

    relays = True

    def __init__(self, cluster: "ClusterCoordinator", sid: int):
        super().__init__(cluster.shards[sid].connect_loopback(),
                         clock=cluster.clock)
        self.cluster = cluster
        self.sid = sid

    def _admit(self, message: Dict[str, Any]) -> bool:
        cluster = self.cluster
        # Any valid frame on the trunk is proof of life — the failure
        # detector's deadline is measured against this.
        cluster.shard_last_seen[self.sid] = cluster.clock()
        if (cluster.map_epoch
                and (message.get("map_epoch") or 0) < cluster.map_epoch):
            # Epoch fence: a frame computed under an older shard map
            # (queued before a cutover, or from a shard that missed the
            # bump) could resurrect a migrated-away item's contribution,
            # so all of it is dropped; post-cutover notifies and snapshot
            # gathers carry the truth.
            cluster.stats["fenced_frames_rejected"] += 1
            return False
        return True

    def _on_notify(self, message: Dict[str, Any]) -> None:
        if not self._admit(message):
            return
        frame_sid = message.get("shard")
        if frame_sid is not None and int(frame_sid) != self.sid:
            self.cluster.stats["shard_frame_mismatches"] += 1
            return
        self.cluster._on_shard_notify(self.sid, message)

    def _on_snapshot(self, message: Dict[str, Any]) -> None:
        if not self._admit(message):
            # "No answer", now, instead of a gather riding its timeout.
            self._answer_snapshot(ProtocolError("stale shard-map epoch"))
            return
        cluster = self.cluster
        if not self._seeded:
            # The subscription's own reply (re-)seeds the served values —
            # which is how a re-subscribe heals the staleness of a trunk
            # drop; gather replies never overwrite NOTIFY-fed values.
            for name, value in (message.get("values") or {}).items():
                if cluster._home.get(name) == self.sid:
                    cluster._served[name] = float(value)
        if message.get("degraded") is not None:
            cluster._set_shard_degraded(self.sid, message["degraded"])
        self._answer_snapshot(message)

    def _on_lost(self) -> None:
        # The shard is still attached (it evicted us as a slow consumer
        # under a notify storm, say) and without the trunk its queries'
        # served values silently go stale.  A crashed shard refuses: its
        # trunk stays down until the health monitor fails the shard over.
        self.cluster.stats["shard_resubscribes"] += 1
        self.reopen(self.cluster.shards[self.sid].connect_loopback())


class _ShardSourceLink(SourceLink):
    """The router registered on one shard *as* one source: the shard's
    bounds join the min-merge, its probes go on to the real source."""

    def __init__(self, cluster: "ClusterCoordinator", sid: int,
                 source_id: int, items: Sequence[str]):
        super().__init__(source_id, items)
        self.cluster = cluster
        self.sid = sid

    def _on_dab_update(self, message: Dict[str, Any]
                       ) -> List[Tuple[int, BoundUpdate]]:
        return self.cluster._merge_shard_bounds(self.sid, message)

    async def _after_dab_update(self, message: Dict[str, Any],
                                applied: List[Tuple[int, BoundUpdate]],
                                stream: MessageStream) -> None:
        cluster = self.cluster
        for source_id, (bounds, epochs) in applied:
            await cluster._send_dab_update(source_id, bounds, epochs)
        # (Not for items a moved query left behind in this shard's cache:
        # the answer would never be routed here.)
        probe = [item for item in message.get("probe") or ()
                 if self.sid in cluster._item_shards.get(item, ())]
        if probe:
            await cluster._forward_probe(self.source_id, probe)


class ClusterCoordinator(FrontEnd):
    """Route sources and subscribers across coordinator shards."""

    def __init__(
        self,
        shards: Mapping[int, CoordinatorServer],
        decomposition: BankDecomposition,
        shard_map: ShardMap,
        item_to_source: Mapping[str, int],
        queries: Sequence[Any] = (),
        clock: Callable[[], float] = _time.time,
        notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT,
        dab_retry_policy: Optional[RetryPolicy] = None,
        make_shard: Optional[Callable[[int], CoordinatorServer]] = None,
    ):
        self.shards: Dict[int, CoordinatorServer] = dict(shards)
        self.decomposition = decomposition
        self.shard_map = shard_map
        self.item_to_source = dict(item_to_source)
        #: the original (pre-decomposition) query bank, for callers that
        #: audit recombined values against it.
        self.queries = list(queries)
        #: rebuilds one shard server (same scenario, same journal path)
        #: — the supervisor's failover hook.
        self.make_shard = make_shard
        self.started = False

        #: query -> its home shard, the only shard that speaks for it.
        self._home: Dict[str, int] = {
            name: dec.home
            for name, dec in decomposition.decompositions.items()}
        self._qab: Dict[str, float] = {
            name: dec.query.qab
            for name, dec in decomposition.decompositions.items()}
        item_shards: Dict[str, List[int]] = {}
        for sid, items in decomposition.items_needed.items():
            for item in items:
                item_shards.setdefault(item, []).append(sid)
        self._item_shards: Dict[str, Tuple[int, ...]] = {
            item: tuple(sorted(sids)) for item, sids in item_shards.items()}

        # upstream plumbing (router -> shards)
        self._links: Dict[Tuple[int, int], _ShardSourceLink] = {}
        self._trunks: Dict[int, _ShardTrunk] = {}

        # DAB merge state: item -> {shard: its vote}, and the min-merged
        # bounds the real sources were sent.
        self._shard_bounds: Dict[str, Dict[int, float]] = {}
        self.dab_sent = DabSendTable()
        #: per-item accepted-seq high-water marks observed at the router
        #: (floors for restarted sources; the shards remain the dedup
        #: authority).
        self._floors = SeqFloors()

        # aggregation state
        #: query -> the last value its *current* home sent or announced.
        self._served: Dict[str, float] = {}
        self._shard_degraded: Dict[int, Dict[str, float]] = {}
        self._last_degraded_keys: frozenset = frozenset()

        # health / resharding state
        #: sid -> clock() of the last frame seen on the shard's trunk
        #: (or probe reply); the failure detector's only evidence.
        self.shard_last_seen: Dict[int, float] = {}
        #: shards the health monitor currently suspects: every query
        #: they home is served degraded (widened honest bounds) until
        #: failover completes and the trunk shows life again.
        self._suspect_shards: Set[int] = set()
        #: item -> refresh frames buffered while the item migrates
        #: between shards; flushed (re-routed under the new map) at
        #: cutover.
        self._frozen_items: Dict[str, List[Dict[str, Any]]] = {}
        #: query -> widened bound while one of its items is mid-flight.
        self._migration_degraded: Dict[str, float] = {}
        #: set by ShardSupervisor / ShardHealthMonitor when attached, so
        #: server_stats can surface their bounded histories.
        self.supervisor: Optional[Any] = None
        self.health: Optional[Any] = None

        #: kept ``None`` on purpose: the *shards* journal; soak tooling
        #: checks this attribute to decide whether the single-node
        #: journal bookkeeping applies.
        self.journal = None

        # downstream plumbing (real sources and subscribers)
        super().__init__({
            MessageType.REGISTER_SOURCE: self._on_register_source,
            MessageType.REFRESH: self._on_refresh,
            MessageType.HEARTBEAT: self._on_heartbeat,
            MessageType.DAB_ACK: self._on_dab_ack,
            MessageType.QUERY_SUB: self._on_query_sub,
            MessageType.SNAPSHOT: self._on_snapshot,
        }, stats={
            "refreshes_accepted": 0,
            "refreshes_routed": 0,
            "refreshes_unroutable": 0,
            "heartbeats_received": 0,
            "heartbeats_forwarded": 0,
            "notifies_sent": 0,
            "partial_notifies": 0,
            "dab_updates_sent": 0,
            "dab_acks_received": 0,
            "dab_retries": 0,
            "dab_retries_exhausted": 0,
            "probes_forwarded": 0,
            "slow_consumer_evictions": 0,
            "protocol_errors": 0,
            "sources_registered": 0,
            "subscribers": 0,
            "shard_frame_mismatches": 0,
            "shard_reattachments": 0,
            "shard_resubscribes": 0,
            "snapshot_gathers": 0,
            "snapshot_gather_fallbacks": 0,
            "fenced_frames_rejected": 0,
            "refreshes_frozen": 0,
        }, clock=clock, notify_queue_limit=notify_queue_limit,
            dab_retry_policy=dab_retry_policy)

    # -- facade properties (soak/loadgen compatibility) ---------------------------

    @property
    def lease_duration(self) -> Optional[float]:
        durations = [srv.lease_duration for srv in self.shards.values()
                     if srv.lease_duration is not None]
        return max(durations) if durations else None

    @property
    def suspect_since(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for sid, srv in self.shards.items():
            for item, since in srv.suspect_since.items():
                if sid not in self._item_shards.get(item, ()):
                    # A query that moved home left this item behind in
                    # its ex-home's cache; nothing there reads it and
                    # nothing is routed to it, so its lease means nothing.
                    continue
                held = merged.get(item)
                merged[item] = since if held is None else min(held, since)
        return merged

    @property
    def _degraded_keys(self) -> frozenset:
        return frozenset(self._merged_degraded())

    @property
    def map_epoch(self) -> int:
        """The cluster's current shard-map epoch (0 until a reshard)."""
        return self.shard_map.epoch

    # -- health / suspicion -------------------------------------------------------

    def mark_shard_suspect(self, sid: int) -> None:
        """Failure-detector verdict: until *sid* shows life again, every
        query it homes is served with an honestly widened bound (pushed
        to subscribers immediately) rather than silently stale."""
        if sid in self._suspect_shards:
            return
        self._suspect_shards.add(sid)
        self._fanout_notifications([], None)

    def clear_shard_suspect(self, sid: int) -> None:
        if sid not in self._suspect_shards:
            return
        self._suspect_shards.discard(sid)
        self._fanout_notifications([], None)

    @property
    def suspect_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self._suspect_shards))

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Attach every shard (impersonated source streams + one wildcard
        subscription each); must run inside the event loop, before any
        source or subscriber connects."""
        if self.started:
            return
        for sid in sorted(self.shards):
            await self._attach_shard(sid)
        self.started = True

    def _sources_for_shard(self, sid: int) -> Dict[int, List[str]]:
        by_source: Dict[int, List[str]] = {}
        for item in self.decomposition.items_needed.get(sid, ()):
            source_id = self.item_to_source.get(item)
            if source_id is None:
                continue
            by_source.setdefault(source_id, []).append(item)
        return by_source

    async def _attach_shard(self, sid: int) -> None:
        for source_id, items in sorted(self._sources_for_shard(sid).items()):
            await self._open_link(sid, source_id, items)
        trunk = self._trunks[sid] = _ShardTrunk(self, sid)
        await trunk.subscribe("*", trunk=True)
        self.shard_last_seen[sid] = self.clock()

    async def _open_link(self, sid: int, source_id: int,
                         items: Sequence[str]) -> None:
        """Open (or replace) the impersonated source link for one
        (shard, source) pair and register the given item list on it.
        The registration reply's DAB_UPDATE is min-merged like any
        other; a previous link for the pair (an item migration
        extending the list) is torn down afterwards."""
        link = _ShardSourceLink(self, sid, source_id, items)
        await link.connect(self.shards[sid].connect_loopback())
        old = self._links.get((sid, source_id))
        self._links[sid, source_id] = link     # before the await: no gap
        if old is not None:
            await old.close()

    async def _detach_shard(self, sid: int) -> None:
        for key in [k for k in self._links if k[0] == sid]:
            await self._links.pop(key).close()
        trunk = self._trunks.pop(sid, None)
        if trunk is not None:
            await trunk.close()

    async def reattach_shard(self, sid: int,
                             server: CoordinatorServer) -> None:
        """Adopt a restored shard: rebuild the impersonated streams and
        subscription, then probe the real sources for everything the
        shard reads — refreshes routed while it was dead are gone from
        its view, and fresh values (resync refreshes with bumped seqs)
        are the authoritative cure.  Shards that never died dedup the
        probe answers by seq, harmlessly."""
        await self._detach_shard(sid)
        self.shards[sid] = server
        if self.map_epoch:
            # A shard restored from a pre-reshard snapshot/journal must
            # fence incoming frames against the *current* map, not the
            # one it died under.
            server.advance_map_epoch(self.map_epoch)
        self.stats["shard_reattachments"] += 1
        await self._attach_shard(sid)
        for source_id, items in sorted(self._sources_for_shard(sid).items()):
            await self._forward_probe(source_id, items)

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> Tuple[str, int]:
        if not self.started:
            await self.start()
        return await super().serve_tcp(host, port)

    def maintenance_interval(self) -> Optional[float]:
        intervals = [srv.lease_check_interval for srv in self.shards.values()
                     if srv.lease_check_interval is not None]
        if not intervals and self.dab_retries is None:
            return None
        return min(intervals) if intervals else 1.0

    def connect_loopback(self) -> InprocessLink:
        client_end, server_end = inprocess_pair()
        self.adopt_connection(server_end)
        return client_end

    async def close(self, final_snapshot: bool = True) -> None:
        await self._shutdown()
        for sid in sorted(set(self._trunks) | {k[0] for k in self._links}):
            await self._detach_shard(sid)
        for sid in sorted(self.shards):
            await self.shards[sid].close(final_snapshot=final_snapshot)

    # -- DAB merge (shards -> router -> real sources) -----------------------------

    def _merge_shard_bounds(self, sid: int, message: Mapping[str, Any]
                            ) -> List[Tuple[int, BoundUpdate]]:
        """Fold one shard's DAB_UPDATE into the votes; records the items
        whose *effective* (cross-shard min) bound materially changed and
        returns them as one update per real source, by source id."""
        effective: Dict[str, float] = {}
        for name, bound in (message.get("bounds") or {}).items():
            votes = self._shard_bounds.setdefault(name, {})
            votes[sid] = float(bound)
            effective[name] = min(votes.values())
        sent = self.dab_sent
        changed, epochs = sent.changes(effective)
        sent.record(changed, epochs)
        floors = message.get("seqs") or {}
        self._floors.raise_floors(floors, floors.values())
        return sorted(sent.by_source(changed, self.item_to_source).items())

    def _dab_retried(self) -> None:
        self.stats["dab_retries"] += 1

    def _dab_gave_up(self, items: List[str]) -> None:
        """A real source may still be filtering on a stale, wider DAB
        than a shard planned with — and that shard was acked on merge
        (:class:`_ShardSourceLink`), so it is told here: every shard
        reading the item serves the queries over it ``degraded`` (with
        leases on) until the item is heard from again, exactly as a lone
        server does."""
        self.stats["dab_retries_exhausted"] += 1
        for sid in sorted(self.shards):
            self.shards[sid].mark_suspect(
                [item for item in items
                 if sid in self._item_shards.get(item, ())])

    async def check_leases(self) -> None:
        """Drive every shard's lease sweep (their probes flow back to the
        real sources through the impersonated streams)."""
        for sid in sorted(self.shards):
            await self.shards[sid].check_leases()
            await self.shards[sid].check_retries()

    async def _forward_probe(self, source_id: int,
                             items: Sequence[str]) -> None:
        message = protocol.dab_update(source_id, {}, {}, probe=items)
        if await self._send_to_source(source_id, message):
            self.stats["probes_forwarded"] += 1

    # -- aggregation --------------------------------------------------------------

    def _set_shard_degraded(self, sid: int,
                            degraded: Mapping[str, float]) -> None:
        # The field is the shard's complete current map — replace.
        self._shard_degraded[sid] = {str(name): float(bound)
                                     for name, bound in degraded.items()}

    def _merged_degraded(self) -> Dict[str, float]:
        """A query is degraded iff its home shard flags it — or is
        *suspected* by the failure detector — or one of its items is
        mid-migration.  The honest bound is the home's widened lease
        bound when flagged, and the query's budget times
        :data:`SUSPECT_WIDEN_FACTOR` while the home is suspected (the
        shard is silent, so its own widening is unobservable)."""
        suspects = self._suspect_shards
        if (not suspects and not self._migration_degraded
                and not any(self._shard_degraded.values())):
            # The quiet path: nothing can be flagged, so the walk below
            # would return this same empty map after O(queries) work —
            # on every trunk NOTIFY.
            return {}
        merged: Dict[str, float] = {}
        for name, home in self._home.items():
            if home in suspects:
                merged[name] = self._qab[name] * SUSPECT_WIDEN_FACTOR
                continue
            widened = self._shard_degraded.get(home, {}).get(name)
            if widened is not None:
                merged[name] = widened
        for name, bound in self._migration_degraded.items():
            merged[name] = max(merged.get(name, 0.0), bound)
        return merged

    def _on_shard_notify(self, sid: int, message: Dict[str, Any]) -> None:
        self.stats["partial_notifies"] += 1
        degraded = message.get("degraded")
        if degraded is not None:
            self._set_shard_degraded(sid, degraded)
        served: List[Tuple[str, float]] = []
        for update in message.get("updates") or []:
            name = update.get("query")
            if self._home.get(name) != sid:
                # Only a query's home speaks for it: mid-migration the
                # incoming home already runs the query, and its value is
                # adopted at cutover (:meth:`announce_rehomed`), not before.
                continue
            value = self._served[name] = recombine({sid: update["value"]})
            served.append((name, value))
        if served or degraded is not None:
            self._fanout_notifications(served,
                                       message.get("refresh_sent_at"))

    def _fanout_notifications(self, served: List[Tuple[str, float]],
                              refresh_sent_at: Optional[float]) -> None:
        now = self.clock()
        merged = self._merged_degraded()
        keys = frozenset(merged)
        include_degraded = bool(merged) or keys != self._last_degraded_keys
        self._last_degraded_keys = keys
        self._publish(
            [{"query": name, "value": value} for name, value in served],
            merged if include_degraded else None,
            sent_at=now, refresh_sent_at=refresh_sent_at)

    async def _gather_snapshot(self) -> Tuple[Dict[str, float],
                                              Dict[str, float],
                                              Dict[int, Dict[str, Any]]]:
        """Every query's value from a fresh snapshot of its home shard.

        A shard's snapshot serves its queries within ``B`` — serving the
        last NOTIFY values instead would stack up to another ``B`` of
        push staleness on top of the filtering error and break the
        budget.  A shard that cannot answer (mid-failover) falls back to
        its last pushed values and is counted."""
        self.stats["snapshot_gathers"] += 1
        # No live trunk (mid-failover, or re-subscribing): the shard's
        # queries keep their last served values below — as do those of one
        # whose reply is late, lost with the link, or fenced.
        asked = {sid: asyncio.ensure_future(trunk.request_snapshot())
                 for sid, trunk in sorted(self._trunks.items())
                 if trunk.connected}
        if asked:
            await asyncio.wait(asked.values(), timeout=SNAPSHOT_GATHER_TIMEOUT)
        values_by_shard: Dict[int, Dict[str, float]] = {}
        stats_by_shard: Dict[int, Dict[str, Any]] = {}
        for sid, task in asked.items():
            if not task.done():
                task.cancel()
            elif task.exception() is None:
                reply = task.result()
                values_by_shard[sid] = {
                    name: float(value)
                    for name, value in (reply.get("values") or {}).items()}
                if reply.get("stats"):
                    stats_by_shard[sid] = reply["stats"]
        self.stats["snapshot_gather_fallbacks"] += (
            len(self.shards) - len(values_by_shard))
        values: Dict[str, float] = {}
        for name, home in self._home.items():
            fresh = values_by_shard.get(home, {})
            value = fresh.get(name, self._served.get(name))
            if value is not None:
                values[name] = value
        return values, self._merged_degraded(), stats_by_shard

    # -- downstream connection handling -------------------------------------------

    async def _on_register_source(self, peer: Peer,
                                  message: Dict[str, Any]) -> None:
        source_id = int(message["source_id"])
        self._attach_source(peer, source_id)
        items = [name for name in message["items"]
                 if self.item_to_source.get(name) == source_id]
        bounds, epochs = self.dab_sent.held(items)
        seqs = self._floors.floors(items)
        if await self._safe_send(peer.stream,
                                 protocol.dab_update(source_id, bounds, epochs,
                                                     seqs=seqs or None)):
            self.stats["dab_updates_sent"] += 1

    async def _on_refresh(self, peer: Peer,
                          frames: List[Dict[str, Any]]) -> None:
        """Route the read's REFRESH frames in order, each run of one
        source's frames joined into one column
        (:func:`protocol.merge_refreshes`): raise the column's floors,
        buffer its frozen items' entries, drop its unroutable ones and
        route the rest once, so a shard link takes one sub-frame per
        run, not one per frame."""
        frozen, item_shards = self._frozen_items, self._item_shards
        for frame, stamps in protocol.merge_refreshes(frames):
            self._floors.raise_floors(frame["items"], frame["seqs"])
            routable: List[int] = []
            for index, item in enumerate(frame["items"]):
                if item in frozen:
                    # Mid-migration: buffer instead of routing — neither
                    # the old nor the new owner may apply this value until
                    # the hand-off commits (two owners could accept
                    # diverging seq floors).  Flushed under the new map at
                    # cutover.
                    frozen[item].append(
                        protocol.refresh_entries(frame, [index], stamps))
                    self.stats["refreshes_frozen"] += 1
                elif item not in item_shards:
                    self.stats["refreshes_unroutable"] += 1
                    continue
                else:
                    routable.append(index)
                self.stats["refreshes_accepted"] += 1
            if routable:
                self._route_refresh(frame, stamps, routable)

    def _route_refresh(self, frame: Dict[str, Any],
                       stamps: Optional[Sequence[Optional[float]]],
                       entries: Optional[Sequence[int]] = None) -> None:
        """Send ``frame``'s ``entries`` (all of them by default) on to
        every shard that reads their items: one sub-frame per (shard,
        source) link, in entry order, stamped by ``stamps`` (see
        :func:`protocol.merge_refreshes`).  Every link is in-process with
        an unbounded inbox, so a send never waits and nothing here yields
        to the loop."""
        items = frame["items"]
        if entries is None:
            entries = range(len(items))
        by_link: Dict[Tuple[int, Optional[int]], List[int]] = {}
        for index in entries:
            item = items[index]
            source_id = self.item_to_source.get(item)
            for sid in self._item_shards.get(item, ()):
                by_link.setdefault((sid, source_id), []).append(index)
        for key, picked in by_link.items():
            link = self._links.get(key)
            if link is None:
                continue              # shard down: healed on reattach probe
            # A link that takes every entry gets the frame itself — a
            # received message is read-only, so one dict may go to many
            # shards; the rest get a copy with their entries.  Once a
            # reshard bumped the map epoch, every copy is stamped so
            # shards fence stale routes; before it (epoch 0) frames go
            # on verbatim, byte-identical to the non-resharding cluster.
            sub = (frame if len(picked) == len(items)
                   else protocol.refresh_entries(frame, picked, stamps))
            if self.map_epoch:
                sub = dict(sub, map_epoch=self.map_epoch)
            try:
                link._stream.send_nowait(sub)
            except (TransportClosed, ProtocolError):
                continue
            self.stats["refreshes_routed"] += len(picked)

    async def _on_heartbeat(self, peer: Peer,
                            message: Dict[str, Any]) -> None:
        self.stats["heartbeats_received"] += 1
        source_id = int(message["source_id"])
        for (sid, src), link in sorted(self._links.items()):
            if src != source_id:
                continue
            if await self._safe_send(link._stream, message):
                self.stats["heartbeats_forwarded"] += 1

    # -- resharding support (driven by cluster.migration.ShardMigrator) -----------

    def freeze_item(self, item: str) -> None:
        """Start buffering *item*'s refreshes (migration in progress)."""
        self._frozen_items.setdefault(item, [])

    async def unfreeze_item(self, item: str) -> int:
        """Stop buffering and flush: the buffered refreshes are routed
        under the *current* (post-cutover) map and epoch, joined as a
        read's are (:meth:`_on_refresh`).  Returns the number of flushed
        refreshes."""
        buffered = self._frozen_items.pop(item, [])
        for frame, stamps in protocol.merge_refreshes(buffered):
            self._route_refresh(frame, stamps)
        return len(buffered)

    def set_migration_degraded(self, bounds: Mapping[str, float]) -> None:
        """Flag queries whose items are mid-flight (widened bounds are
        pushed to subscribers immediately — degraded, never silent)."""
        if not bounds:
            return
        self._migration_degraded.update(
            {str(name): float(bound) for name, bound in bounds.items()})
        self._fanout_notifications([], None)

    def clear_migration_degraded(self, names: Sequence[str]) -> None:
        cleared = False
        for name in names:
            if self._migration_degraded.pop(name, None) is not None:
                cleared = True
        if cleared:
            self._fanout_notifications([], None)

    def apply_cutover(self, new_map: ShardMap,
                      updated: Mapping[str, Any]) -> None:
        """Commit one migration step's routing flip: adopt the new shard
        map (bumping :attr:`map_epoch`), swap the re-placed queries into
        the bank decomposition, and rebuild the routing tables that
        depend on them.  Pure dict work — no solves, no I/O."""
        self.shard_map = new_map
        self.decomposition = self.decomposition.replace(updated)
        for name, dec in updated.items():
            if self._home[name] != dec.home:
                # An ex-home's last value must never be served under the
                # new home; :meth:`announce_rehomed` seeds its successor.
                self._home[name] = dec.home
                self._served.pop(name, None)
        item_shards: Dict[str, List[int]] = {}
        for sid, items in self.decomposition.items_needed.items():
            for item in items:
                item_shards.setdefault(item, []).append(sid)
        self._item_shards = {item: tuple(sorted(sids))
                             for item, sids in item_shards.items()}

    def announce_rehomed(self, values: Mapping[str, float]) -> None:
        """After a cutover that re-homed queries: adopt each one's value
        at its new home — the baseline that home measures its next
        NOTIFY against — as the served value, and push it once.  Without
        this the table has no entry until the new home next NOTIFYs,
        while subscribers still hold the ex-home's last value, which the
        new home never saw: a drift of ``B`` from *its* baseline could
        leave them ``B`` further out than the push contract allows."""
        announced = [(name, float(value))
                     for name, value in sorted(values.items())]
        self._served.update(announced)
        if announced:
            self._fanout_notifications(announced, None)

    def drop_stale_votes(self, item: str) -> None:
        """Forget DAB votes from shards that no longer read *item*.

        A leftover vote keeps the min-merge artificially tight — sound
        (sources just filter harder than needed) but it would never be
        refreshed, so the effective bound could stay pinned to the plan
        of a query that has since moved home."""
        keep = set(self._item_shards.get(item, ()))
        votes = self._shard_bounds.get(item)
        if not votes:
            return
        for sid in [s for s in votes if s not in keep]:
            del votes[sid]
        if not votes:
            self._shard_bounds.pop(item, None)

    async def _on_query_sub(self, peer: Peer,
                            message: Dict[str, Any]) -> None:
        if message.get("definitions"):
            raise ProtocolError(
                "the cluster router does not accept QUERY_SUB definitions "
                "yet; register queries at build time")
        sub = self._add_subscriber(peer, message, self._home)
        await self._safe_send(peer.stream, await self._snapshot_response(sub))

    async def _on_snapshot(self, peer: Peer, message: Dict[str, Any]) -> None:
        await self._safe_send(peer.stream, await self._snapshot_response())

    async def _snapshot_response(self, sub: Optional[_Subscriber] = None
                                 ) -> Dict[str, Any]:
        values, degraded, stats_by_shard = await self._gather_snapshot()
        if sub is not None:
            values = {name: value for name, value in values.items()
                      if sub.wants(name)}
        if self.lease_duration is not None:
            wire_degraded: Optional[Dict[str, float]] = {
                name: bound for name, bound in degraded.items()
                if sub is None or sub.wants(name)}
        else:
            wire_degraded = None
        return protocol.snapshot(values=values,
                                 stats=self.server_stats(stats_by_shard),
                                 degraded=wire_degraded)

    # -- introspection ------------------------------------------------------------

    def server_stats(self, stats_by_shard: Optional[Mapping[int, Dict[str, Any]]]
                     = None) -> Dict[str, Any]:
        stats: Dict[str, Any] = dict(self.stats)
        stats["cluster"] = True
        stats["shard_count"] = self.shard_map.shards
        stats["active_shards"] = list(self.decomposition.active_shards)
        stats["queries_per_shard"] = {
            str(sid): count
            for sid, count in self.decomposition.queries_per_shard.items()}
        stats["mirrored_items"] = {
            str(sid): len(items)
            for sid, items in self.decomposition.mirrored_items.items()}
        stats["queries"] = len(self._home)
        stats["items"] = len(self._item_shards)
        stats["listen_address"] = (list(self.listen_address)
                                   if self.listen_address is not None else None)
        per_shard = (dict(stats_by_shard) if stats_by_shard
                     else {sid: srv.server_stats()
                           for sid, srv in self.shards.items()})
        stats["shards"] = {str(sid): shard_stats
                           for sid, shard_stats in sorted(per_shard.items())}
        # Aggregate the hot counters so single-node tooling can read the
        # cluster like one big coordinator.
        for key in ("recomputations", "window_screen_hits",
                    "window_screen_misses", "refresh_batches", "refreshes",
                    "dab_change_messages", "user_notifications",
                    "duplicate_rejects"):
            stats[key] = sum(int(shard_stats.get(key, 0))
                             for shard_stats in per_shard.values())
        stats["recompute_price"] = {
            price: sum(int(shard_stats.get("recompute_price", {})
                           .get(price, 0))
                       for shard_stats in per_shard.values())
            for price in ("discounted", "exited")}
        if self.dab_retries is not None:
            stats["dab_updates_outstanding"] = len(self.dab_retries)
        if self.lease_duration is not None:
            stats["suspect_items"] = len(self.suspect_since)
            stats["degraded_queries"] = len(self._last_degraded_keys)
        if self.map_epoch:
            stats["map_epoch"] = self.map_epoch
        if self._suspect_shards:
            stats["suspect_shards"] = sorted(self._suspect_shards)
        if self._frozen_items:
            stats["frozen_items"] = sorted(self._frozen_items)
        if self.supervisor is not None:
            stats["failover"] = self.supervisor.stats()
        if self.health is not None:
            stats["health"] = self.health.stats_snapshot()
        return stats


# ---------------------------------------------------------------------------
# scenario-driven construction (shared by `repro cluster serve` / loadgen)
# ---------------------------------------------------------------------------

def build_scenario_cluster(
    shards: int = 2,
    query_count: int = 10,
    item_count: int = 30,
    source_count: int = 8,
    trace_length: int = 301,
    seed: int = 0,
    algorithm: str = "dual_dab",
    recompute_cost: float = 5.0,
    workload: str = "portfolio",
    notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT,
    journal_dir: Optional[str] = None,
    snapshot_every: int = 500,
    fsync: str = "always",
    clock: Callable[[], float] = _time.time,
    lease_duration: Optional[float] = None,
    dab_retry_policy: Optional[RetryPolicy] = None,
    solver_breaker_factory: Optional[Callable[[int], Any]] = None,
    restore: bool = True,
):
    """A :class:`ClusterCoordinator` over ``shards`` coordinator shards,
    built from the same scenario pipeline as
    :func:`~repro.service.server.build_scenario_server` — same workload
    generator, same rate estimation, same planner stack per shard — so a
    one-shard cluster is bit-identical to the single server.  Returns
    ``(cluster, scenario, item_to_source)``.

    ``journal_dir`` gives every shard its own WAL/snapshot journal under
    ``<journal_dir>/shard-<i>`` (the failover substrate); shards then
    defer bootstrap to ``restore()``, which is called here unless
    ``restore=False`` (the supervisor's rebuild path times it itself).
    ``dab_retry_policy`` arms the *router's* reliable delivery toward
    real sources; shards always run retry-free — their in-process hop to
    the router is lossless and acked instantly.
    """
    from repro.service.journal import Journal

    scenario, queries, make_server, item_to_source = _scenario_planning(
        query_count=query_count, item_count=item_count,
        source_count=source_count, trace_length=trace_length, seed=seed,
        algorithm=algorithm, recompute_cost=recompute_cost,
        workload=workload)
    shard_map = ShardMap(shards)
    decomposition = decompose_bank(queries, shard_map.shard_of)

    def make_shard(sid: int) -> CoordinatorServer:
        journal = (Journal(os.path.join(journal_dir, f"shard-{sid}"),
                           fsync=fsync, snapshot_every=snapshot_every)
                   if journal_dir is not None else None)
        return make_server(
            decomposition.sub_queries_for[sid],
            decomposition.items_needed[sid],
            # The shard's only subscriber is the router's aggregation
            # trunk; evicting it under a notify storm severs the shard
            # from the cluster, so the trunk queue is sized generously
            # (user-facing backpressure lives at the router's own
            # subscriber queues, which keep ``notify_queue_limit``).
            notify_queue_limit=max(SHARD_TRUNK_QUEUE_LIMIT,
                                   notify_queue_limit),
            shard_id=sid,
            clock=clock,
            lease_duration=lease_duration,
            solver_breaker=(solver_breaker_factory(sid)
                            if solver_breaker_factory is not None else None),
            journal=journal,
        )

    shard_servers: Dict[int, CoordinatorServer] = {}
    for sid in decomposition.active_shards:
        server = make_shard(sid)
        if journal_dir is not None and restore:
            server.restore()
        shard_servers[sid] = server

    cluster = ClusterCoordinator(
        shards=shard_servers, decomposition=decomposition,
        shard_map=shard_map, item_to_source=item_to_source,
        queries=queries, clock=clock,
        notify_queue_limit=notify_queue_limit,
        dab_retry_policy=dab_retry_policy,
        make_shard=make_shard,
    )
    return cluster, scenario, item_to_source
