"""Epoch-fenced live resharding: move items between shards, online.

The :class:`ShardMigrator` runs the per-item migration protocol on top
of the router's freeze/fence primitives.  Each item move is a two-tick
state machine — deliberately split across a step boundary so audits and
fault injection see the mid-flight state:

``FREEZE`` tick
    * every query reading the item is placed again under the post-move
      map (:func:`plan_move`).  Placement is rendezvous over the query's
      spread, so a query is *re-homed* only if the move added a shard
      to, or removed one from, its spread.  A move that would leave a
      shard with no query, or that has to edit the bank of a shard that
      is down, is *deferred* here — before anything is frozen or edited;
    * the router freezes the item: refreshes for it are buffered, not
      routed (a frame can never race the hand-off);
    * every query reading the item is flagged *migration-degraded*
      (honest widened bound — answers over in-flight items are never
      silently stale);
    * a re-homed query moves whole, at its full ``B``: its new home
      *adopts* whatever items it does not read yet — value, owning
      source and accepted-seq high-water mark from the current owner or
      a live mirror (a journaled hand-off: a replayed shard restores the
      same dedup floor it was handed) — and adds the query; its ex-home
      removes it.  Per shard, arrivals go before departures, so an
      exchange never empties a bank mid-edit.  Until cutover the router
      keeps serving a re-homed query's last value from its ex-home.

``CUTOVER`` tick
    * the router atomically installs the new :class:`ShardMap` — the
      map epoch bumps, and from here every routed refresh is stamped
      with the new epoch while both router and shards reject
      stale-epoch frames (a lagging shard can never double-own the
      item);
    * the router adopts each re-homed query's value at its new home as
      the served value and pushes it to subscribers once, so what they
      hold is the baseline the new home measures its next NOTIFY from;
    * live shards learn the new epoch, stale DAB votes from ex-readers
      are dropped, fresh upstream registrations are opened where the
      move created new (shard, source) needs, the sources are probed
      for the items a new home just started reading (refreshes routed
      during the window never reached it), the buffered refreshes are
      flushed under the new map, and the degraded flags clear.

A move whose endpoints, or any shard whose bank it edits, are dead is
*deferred* (requeued) rather than attempted — the health monitor's
failover brings the shard back, the migrator retries on a later tick,
and a permanently-missing shard abandons the move after
:data:`MAX_DEFERRALS` with an explicit record instead of wedging the
queue.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.filters.shard_budget import (
    BankDecomposition,
    QueryDecomposition,
    decompose_query,
)
from repro.service.cluster.router import ClusterCoordinator
from repro.service.cluster.routing import ShardMap

#: Honest widening applied to a query while one of its items is
#: mid-flight: the item's refreshes are buffered, and a query changing
#: home is served from its ex-home's last pushed value (within ``2B`` of
#: the truth by the push contract), so the served bound doubles (same
#: shape as the suspect widening — a flagged, conservative envelope,
#: never silent staleness).  The soaks fail if it is ever exceeded.
MIGRATION_WIDEN_FACTOR = 2.0

#: A move both of whose endpoints stay dead is requeued this many times
#: before it is abandoned with an explicit record.
MAX_DEFERRALS = 64


def plan_move(decomposition: BankDecomposition, shard_map: ShardMap,
              item: str, target: int
              ) -> Tuple[ShardMap, Dict[str, QueryDecomposition],
                         Dict[str, Tuple[int, int]]]:
    """What moving *item* to *target* changes, without changing it:
    ``(post-move map, {query: new placement} for every query reading the
    item, {query: (ex-home, new home)} for those it re-homes)``.  Pure —
    placement is a function of ``(query, map)`` — so the migrator and
    anything planning migrations see the same answer."""
    new_map = shard_map.rebalance({item: target})
    updated = {
        name: decompose_query(decomposition.decompositions[name].query,
                              new_map.shard_of)
        for name in decomposition.queries_reading(item)
    }
    rehomed = {
        name: (decomposition.decompositions[name].home, new_dec.home)
        for name, new_dec in updated.items()
        if new_dec.home != decomposition.decompositions[name].home
    }
    return new_map, updated, rehomed


class ShardMigrator:
    """Tick-driven, resumable item-migration state machine."""

    def __init__(self, cluster: ClusterCoordinator,
                 clock: Optional[Callable[[], float]] = None,
                 wall_clock: Callable[[], float] = _time.perf_counter):
        self.cluster = cluster
        self.clock = clock if clock is not None else cluster.clock
        self.wall_clock = wall_clock
        #: moves not yet started: (item, target, deferrals), FIFO.
        self._queue: List[List[Any]] = []
        #: the in-flight move (None between items).
        self._current: Optional[Dict[str, Any]] = None
        #: completed / abandoned move records, in completion order.
        self.records: List[Dict[str, Any]] = []
        self.stats: Dict[str, int] = {
            "moves_requested": 0,
            "moves_completed": 0,
            "moves_abandoned": 0,
            "moves_noop": 0,
            "deferrals": 0,
            "ticks": 0,
        }

    # -- queueing -----------------------------------------------------------------

    def start(self, moves: Mapping[str, int]) -> int:
        """Queue *moves* (item -> target shard); returns how many were
        queued.  Moves to the item's current owner are dropped as no-ops
        (minimal movement starts here); unknown items or out-of-range
        targets are rejected up front."""
        queued = 0
        for item in sorted(moves):
            target = int(moves[item])
            if item not in self.cluster._item_shards:
                raise ReproError(f"cannot migrate unknown item {item!r}")
            if not 0 <= target < self.cluster.shard_map.shards:
                raise ReproError(
                    f"cannot migrate {item!r} to shard {target}: map has "
                    f"{self.cluster.shard_map.shards} shards")
            self.stats["moves_requested"] += 1
            if self.cluster.shard_map.shard_of(item) == target:
                self.stats["moves_noop"] += 1
                continue
            self._queue.append([item, target, 0])
            queued += 1
        return queued

    @property
    def active(self) -> bool:
        return self._current is not None or bool(self._queue)

    # -- liveness helpers ---------------------------------------------------------

    def _is_live(self, sid: int) -> bool:
        server = self.cluster.shards.get(sid)
        if server is None:
            return False
        if getattr(server, "closed", False):
            return False
        supervisor = self.cluster.supervisor
        if supervisor is not None and supervisor.is_down(sid):
            return False
        return True

    def _defer(self, item: str, target: int, deferrals: int,
               reason: str) -> None:
        self.stats["deferrals"] += 1
        if deferrals + 1 >= MAX_DEFERRALS:
            self.stats["moves_abandoned"] += 1
            self.records.append({
                "item": item, "to": target, "outcome": "abandoned",
                "reason": reason, "deferrals": deferrals + 1,
            })
            return
        self._queue.append([item, target, deferrals + 1])

    # -- the state machine --------------------------------------------------------

    async def tick(self) -> Optional[Dict[str, Any]]:
        """Advance the migration by one phase.  Returns the completed
        move record when this tick was a cutover, else ``None``.

        One phase per tick is deliberate: the freeze → cutover window
        spans a step boundary, so the chaos soak can kill a shard *mid-
        migration* and audits observe the frozen/degraded state."""
        self.stats["ticks"] += 1
        if self._current is not None:
            return await self._cutover()
        # A deferred move re-joins the queue tail; bounding the scan to
        # the tick's starting length makes "everything deferred" cost
        # one pass, not a 64-deferral spin inside a single tick.
        for _ in range(len(self._queue)):
            if not self._queue:
                break
            item, target, deferrals = self._queue.pop(0)
            if self.cluster.shard_map.shard_of(item) == target:
                self.stats["moves_noop"] += 1
                continue
            if await self._freeze(item, target, deferrals):
                return None
        return None

    async def _freeze(self, item: str, target: int, deferrals: int) -> bool:
        """Phase 1 for one item; returns True when the item is now
        frozen mid-flight (False = deferred, try the next queued move)."""
        cluster = self.cluster
        owner = cluster.shard_map.shard_of(item)
        if not self._is_live(owner):
            self._defer(item, target, deferrals, f"owner shard {owner} down")
            return False
        if not self._is_live(target):
            self._defer(item, target, deferrals, f"target shard {target} down")
            return False

        started_wall = self.wall_clock()
        started_at = self.clock()
        owner_server = cluster.shards[owner]
        value = owner_server.core.cache.get(item)
        if value is None:
            # The owner never saw the item (possible right after its own
            # journal restore); any live reader's mirror is as good.
            for sid in cluster._item_shards.get(item, ()):
                if self._is_live(sid):
                    mirror = cluster.shards[sid].core.cache.get(item)
                    if mirror is not None:
                        value = mirror
                        break
        if value is None:
            self._defer(item, target, deferrals, "no live copy of the value")
            return False

        new_map, updated, rehomed = plan_move(
            cluster.decomposition, cluster.shard_map, item, target)
        arriving: Dict[int, List[str]] = {}
        leaving: Dict[int, List[str]] = {}
        for name, (old_home, new_home) in sorted(rehomed.items()):
            leaving.setdefault(old_home, []).append(name)
            arriving.setdefault(new_home, []).append(name)
        edited = sorted(set(arriving) | set(leaving))

        # Refuse, before anything is frozen or edited, a move that has
        # to edit a dead shard's bank (its journal would miss the edit)
        # or that would strip the last query off a shard (the
        # coordinator core needs >= 1); such moves complete once the
        # shard is back or the rest of the bank rebalances.
        for sid in edited:
            if not self._is_live(sid):
                self._defer(item, target, deferrals, f"shard {sid} down")
                return False
            remaining = (len(cluster.shards[sid].core.queries)
                         - len(leaving.get(sid, ()))
                         + len(arriving.get(sid, ())))
            if remaining < 1:
                self._defer(item, target, deferrals,
                            f"move would empty shard {sid}'s bank")
                return False

        # From here the move commits: freeze first so no refresh can
        # slip between the value read above and the hand-off below.
        cluster.freeze_item(item)
        cluster.set_migration_degraded({
            name: new_dec.query.qab * MIGRATION_WIDEN_FACTOR
            for name, new_dec in updated.items()
        })

        # Move the re-homed queries, whole: per shard, arrivals (adopting
        # the items the new home does not read yet) before departures.
        adopted: Dict[int, List[str]] = {}
        for sid in edited:
            server = cluster.shards[sid]
            for name in arriving.get(sid, ()):
                query = updated[name].query
                for needed in query.variables:
                    if needed in server.core.cache:
                        continue
                    held = cluster.item_to_source.get(needed)
                    floor = (owner_server.leases.last_seq.get(needed, 0)
                             if needed == item else
                             cluster._floors.last_seq.get(needed, 0))
                    donor = value if needed == item else None
                    if donor is None:
                        for other in cluster._item_shards.get(needed, ()):
                            if self._is_live(other):
                                donor = cluster.shards[other].core.cache.get(needed)
                                if donor is not None:
                                    break
                    server.adopt_item(needed, float(donor or 0.0),
                                      source_id=held, seq_floor=floor)
                    if held is not None and needed != item:
                        adopted.setdefault(held, []).append(needed)
                server.core.add_query(query)
            for name in leaving.get(sid, ()):
                server.core.remove_query(name)

        self._current = {
            "item": item, "from": owner, "to": target,
            "new_map": new_map, "updated": updated,
            "affected": sorted(updated), "rehomed": rehomed,
            "edited_shards": edited, "adopted": adopted,
            "deferrals": deferrals,
            "started_at": started_at, "started_wall": started_wall,
        }
        return True

    async def _cutover(self) -> Dict[str, Any]:
        """Phase 2: install the new map, fence, flush, unflag."""
        cluster = self.cluster
        state = self._current
        assert state is not None
        item = state["item"]
        new_map = state["new_map"]

        rehomed = state["rehomed"]
        cluster.apply_cutover(new_map, state["updated"])
        cluster.announce_rehomed({
            name: cluster.shards[new_home].core.last_user_values[name]
            for name, (_, new_home) in rehomed.items()})
        for sid in sorted(cluster.shards):
            if self._is_live(sid):
                cluster.shards[sid].advance_map_epoch(new_map.epoch)

        # A query that moved home took its reads with it: its ex-home
        # may have stopped reading any of its items, not only the moved
        # one.  Dropped before the re-registrations below re-vote.
        for stale in sorted({item}.union(*(
                state["updated"][name].query.variables for name in rehomed))):
            cluster.drop_stale_votes(stale)

        # The move may have created brand-new (shard, source) needs, or
        # extended existing registrations; re-open the impersonated
        # links for every shard whose bank was edited (replacement is
        # idempotent — _open_link tears down the pair's old link).
        for sid in state["edited_shards"]:
            if not self._is_live(sid):
                continue
            for source_id, items in sorted(
                    cluster._sources_for_shard(sid).items()):
                await cluster._open_link(sid, source_id, items)
        # Refreshes routed during the window never reached a new home
        # for the items it adopted at freeze; fresh values are the cure
        # (same as a restored shard's reattachment).
        for source_id, items in sorted(state["adopted"].items()):
            await cluster._forward_probe(source_id, sorted(set(items)))

        flushed = await cluster.unfreeze_item(item)
        cluster.clear_migration_degraded(state["affected"])

        self._current = None
        self.stats["moves_completed"] += 1
        record = {
            "item": item, "from": state["from"], "to": state["to"],
            "outcome": "completed",
            "epoch": new_map.epoch,
            "queries": list(state["affected"]),
            "rehomed": sorted(rehomed),
            "deferrals": state["deferrals"],
            "flushed_refreshes": flushed,
            "migration_steps": self.clock() - state["started_at"],
            "migration_seconds": self.wall_clock() - state["started_wall"],
        }
        self.records.append(record)
        return record

    def stats_snapshot(self) -> Dict[str, Any]:
        return {
            **self.stats,
            "queued": len(self._queue),
            "in_flight": (self._current or {}).get("item"),
            "records": [dict(record) for record in self.records],
        }
