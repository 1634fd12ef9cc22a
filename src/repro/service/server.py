"""The live coordinator: an asyncio server over :class:`CoordinatorCore`.

One :class:`CoordinatorServer` owns the same
:class:`~repro.service.core.CoordinatorCore` the simulator's coordinator
wraps — cache, compiled-query-bank evaluation, secondary-DAB window
checks, recomputation through the compiled-GP planner stack — and speaks
the framed protocol of :mod:`repro.service.protocol` to two kinds of
peers:

* **sources** (``REGISTER_SOURCE`` → ``REFRESH``/``HEARTBEAT`` in,
  ``DAB_UPDATE`` out).  Refreshes are deduplicated by per-item sequence
  number (a duplicate or overtaken refresh never clobbers the cache —
  the simulator's fault-mode semantics, always on here because real
  networks reorder), and registration doubles as resync: the reply
  programs the source's current primary DABs with their epochs and
  carries the accepted-seq high-water marks so a restarted source
  resumes numbering above the dedup guard instead of being muted by it.
* **subscribers** (``QUERY_SUB`` in, ``SNAPSHOT`` + batched ``NOTIFY``
  out).  Notifications are fanned out through a bounded per-connection
  queue drained by a writer task; a subscriber that stops reading long
  enough for its queue to fill is a *slow consumer* and is evicted
  rather than allowed to stall the coordinator or balloon its memory.

The server is single-event-loop by design: every message handler runs on
the loop thread, so core state needs no locks — exactly the
single-coordinator model of the paper (§II).
"""

from __future__ import annotations

import asyncio
import time as _time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import ReproError, SimulationError
from repro.queries.polynomial import PolynomialQuery
from repro.service import protocol
from repro.service.core import CoordinatorCore, RecomputeMode
from repro.service.frontend import (
    DEFAULT_NOTIFY_QUEUE_LIMIT,
    FrontEnd,
    Peer,
    _Subscriber,
)
from repro.service.journal import Journal, JournalError, plan_from_wire
from repro.service.protocol import MessageType, ProtocolError
from repro.service.resilience import RetryPolicy
from repro.service.transports import InprocessLink, inprocess_pair
from repro.simulation.metrics import MetricsCollector


class CoordinatorServer(FrontEnd):
    """Serve continuous polynomial queries over live refresh streams."""

    def __init__(
        self,
        queries: Sequence[PolynomialQuery],
        planner: object,
        initial_values: Mapping[str, float],
        item_to_source: Mapping[str, int],
        mode: RecomputeMode = RecomputeMode.ON_WINDOW_VIOLATION,
        aao_planner: Optional[object] = None,
        aao_period: Optional[int] = None,
        recompute_cost: float = 1.0,
        metrics: Optional[MetricsCollector] = None,
        notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT,
        writer_join_timeout: float = 1.0,
        lease_duration: Optional[float] = None,
        lease_check_interval: Optional[float] = None,
        suspect_drift_rel: float = 0.05,
        dab_retry_policy: Optional[RetryPolicy] = None,
        solver_breaker: Optional[object] = None,
        clock: Callable[[], float] = _time.time,
        journal: Optional[Journal] = None,
        bootstrap: bool = True,
        shard_id: Optional[int] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsCollector(
            recompute_cost=recompute_cost)
        self.core = CoordinatorCore(
            queries=queries, planner=planner, mode=mode, metrics=self.metrics,
            initial_values=initial_values, item_to_source=item_to_source,
            aao_planner=aao_planner, aao_period=aao_period,
            solver_breaker=solver_breaker,
        )
        #: ``bootstrap=False`` defers the initial GP solves to
        #: :meth:`restore` — the journaled start path, where a snapshot
        #: usually supersedes them and solving first would be waste.
        self._bootstrapped = False
        if bootstrap:
            self.core.bootstrap()
            self._bootstrapped = True
        #: Optional write-ahead journal; :meth:`restore` must be called
        #: before serving when one is configured.  ``None`` leaves every
        #: code path byte-identical to the journal-less server.
        self.journal = journal
        self._journal_attached = False
        #: The last :meth:`restore` report (records replayed, wall time).
        self.last_recovery: Optional[Dict[str, Any]] = None
        self._query_names = {query.name for query in self.core.queries}
        #: name -> query object (O(1) duplicate/conflict checks on the
        #: incremental QUERY_SUB registration path — never an O(bank)
        #: scan) and name -> live subscriber refcount for queries added
        #: through QUERY_SUB ``definitions``.
        self._query_objects = {query.name: query
                               for query in self.core.queries}
        self._dynamic_refs: Dict[str, int] = {}

        #: One clock end-to-end: a breaker built without an explicit
        #: clock inherits ours instead of silently ticking wall time.
        if solver_breaker is not None and hasattr(solver_breaker, "bind_clock"):
            solver_breaker.bind_clock(clock)
        #: ``None`` disables the staleness-lease machinery entirely (the
        #: default: behaviour is then byte-identical to the pre-lease
        #: server).  Units are whatever ``clock`` counts.
        self.lease_duration = (float(lease_duration)
                               if lease_duration is not None else None)
        if lease_check_interval is not None:
            self.lease_check_interval: Optional[float] = float(lease_check_interval)
        else:
            self.lease_check_interval = (self.lease_duration / 4.0
                                         if self.lease_duration else None)
        self.suspect_drift_rel = float(suspect_drift_rel)
        #: item -> time its lease expired (or its seq gap was detected).
        self.suspect_since: Dict[str, float] = {}
        self._item_last_heard: Dict[str, float] = {}
        self._degraded_keys: frozenset = frozenset()
        self.solver_breaker = solver_breaker
        #: item -> highest refresh sequence number accepted (dedup guard).
        self.last_seq: Dict[str, int] = {}
        #: source_id -> wall-clock time of the last refresh/heartbeat.
        self.last_heard: Dict[int, float] = {}
        #: This coordinator's shard id inside a cluster (``None`` when it
        #: is the whole deployment); stamped on NOTIFY/SNAPSHOT frames so
        #: the router can attribute partial aggregates.
        self.shard_id = int(shard_id) if shard_id is not None else None
        #: The newest shard-map epoch this coordinator has been told
        #: about (``None`` until a cluster reshard happens — all frames
        #: then stay byte-identical to the pre-resharding protocol).
        #: Refreshes stamped with an older epoch are fenced off: after a
        #: migration cutover, a buffered or in-flight frame routed under
        #: the old map must not land on an item this shard no longer
        #: owns (or owns again under different budgets).
        self.map_epoch: Optional[int] = None
        # ``clock`` times all liveness bookkeeping — wall clock by
        # default, a logical step clock under the chaos soak.
        super().__init__({
            MessageType.REGISTER_SOURCE: self._on_register_source,
            MessageType.REFRESH: self._on_refresh,
            MessageType.HEARTBEAT: self._on_heartbeat,
            MessageType.DAB_ACK: self._on_dab_ack,
            MessageType.QUERY_SUB: self._on_query_sub,
            MessageType.SNAPSHOT: self._on_snapshot,
        }, stats={
            "refreshes_accepted": 0,
            "refreshes_rejected_stale_seq": 0,
            "refreshes_rejected_stale_map_epoch": 0,
            "notifies_sent": 0,
            "dab_updates_sent": 0,
            "slow_consumer_evictions": 0,
            "protocol_errors": 0,
            "sources_registered": 0,
            "subscribers": 0,
            "heartbeats_received": 0,
            "seq_gaps_detected": 0,
            "dab_acks_received": 0,
        }, clock=clock, notify_queue_limit=notify_queue_limit,
            writer_join_timeout=writer_join_timeout,
            dab_retry_policy=dab_retry_policy)

    # -- lifecycle ---------------------------------------------------------------

    def maintenance_interval(self) -> Optional[float]:
        if self.lease_check_interval is None and self.dab_retry_policy is None:
            return None
        return self.lease_check_interval or 1.0

    def connect_loopback(self) -> InprocessLink:
        """A client end connected in process: caller and server share a
        heap, so messages cross as objects (no sockets, no bytes) — what
        the CI suite, the in-process loadgen and a cluster router's
        upstreams and trunks run on.  For a byte-faithful in-process
        stream, build a ``loopback_pair()`` and :meth:`adopt_connection`
        its server end."""
        client_end, server_end = inprocess_pair()
        self.adopt_connection(server_end)
        return client_end

    async def close(self, final_snapshot: bool = True) -> None:
        """Shut down.  ``final_snapshot=False`` models a hard kill: the
        journal handle is dropped with no parting snapshot, so the next
        start must recover from the WAL tail alone (every append is
        unbuffered, so nothing accepted before the kill is lost)."""
        if self.journal is not None and self._journal_attached:
            self.core.journal = None
            self._journal_attached = False
            if final_snapshot:
                try:
                    self.journal.write_snapshot(self._recovery_state())
                except OSError:
                    pass               # best effort; the WAL stays authoritative
            # Appends are unbuffered, so closing the handle loses nothing
            # even on the kill path — only the parting snapshot is skipped.
            self.journal.close()
        await self._shutdown()

    # -- durability ------------------------------------------------------------------

    def _recovery_state(self) -> Dict[str, Any]:
        """Everything a restarted coordinator needs that is not derivable
        from the scenario itself: the core's cache/epochs/plans plus the
        server-plane seq high-water marks and lease bookkeeping.
        Outstanding DAB retries and the message-id counter are *not*
        persisted — re-registration re-programs every bound, superseding
        them (the same guarantee a source reconnect leans on)."""
        server_state: Dict[str, Any] = {
            "last_seq": dict(self.last_seq),
            "suspect_since": dict(self.suspect_since),
            "item_last_heard": dict(self._item_last_heard),
        }
        if self.map_epoch is not None:
            # Only once a reshard happened — pre-resharding snapshots
            # stay byte-identical to the old format.
            server_state["map_epoch"] = self.map_epoch
        return {
            "core": self.core.recovery_state(),
            "server": server_state,
        }

    def _restore_snapshot_state(self, state: Mapping[str, Any]) -> None:
        core_state = state.get("core")
        if isinstance(core_state, Mapping):
            self.core.restore_recovery_state(core_state)
        server_state = state.get("server")
        if isinstance(server_state, Mapping):
            for name, seq in (server_state.get("last_seq") or {}).items():
                self.last_seq[str(name)] = int(seq)
            for name, since in (server_state.get("suspect_since") or {}).items():
                self.suspect_since[str(name)] = float(since)
            for name, at in (server_state.get("item_last_heard") or {}).items():
                self._item_last_heard[str(name)] = float(at)
            if server_state.get("map_epoch") is not None:
                self.advance_map_epoch(int(server_state["map_epoch"]))

    def _replay_record(self, record: Mapping[str, Any]) -> None:
        """Apply one journal record directly to state — no metrics, no
        fanout, no re-journaling; replay must be side-effect free so a
        double restore converges on the same state."""
        kind = record.get("t")
        if kind == "refresh":
            item = str(record["item"])
            seq = record.get("seq")
            if seq is not None:
                self.last_seq[item] = max(self.last_seq.get(item, 0), int(seq))
            self.core.restore_cache_value(item, float(record["value"]))
        elif kind == "plan":
            name = str(record["q"])
            if name in self.core.query_names:
                self.core.install_plan(name, plan_from_wire(record["plan"]))
        elif kind == "aao":
            for name, plan in (record.get("plans") or {}).items():
                if str(name) in self.core.query_names:
                    self.core.install_plan(str(name), plan_from_wire(plan))
        elif kind == "bounds":
            for name, bound in (record.get("bounds") or {}).items():
                if str(name) in self.core.cache:
                    self.core._last_sent_bounds[str(name)] = float(bound)
            for name, epoch in (record.get("epochs") or {}).items():
                if str(name) in self.core.cache:
                    self.core.epochs[str(name)] = int(epoch)
        elif kind == "notify":
            for name, value in (record.get("values") or {}).items():
                self.core.restore_user_value(str(name), float(value))
        elif kind == "qadd":
            query = protocol.query_from_wire(record["query"])
            if query.name not in self.core.query_names:
                self.core.add_query(query, plan=False)
        elif kind == "qdel":
            name = str(record["name"])
            if name in self.core.query_names:
                self.core.remove_query(name)
        elif kind == "adopt":
            # A live reshard handed this shard an item mid-flight; the
            # record carries the transferred value, owning source and the
            # previous owner's seq high-water mark so replay restores the
            # same dedup floor the live hand-off installed.
            item = str(record["item"])
            seq = record.get("seq")
            if seq is not None:
                self.last_seq[item] = max(self.last_seq.get(item, 0), int(seq))
            self.core.adopt_item(item, float(record["value"]),
                                 source_id=record.get("source"))
        else:
            raise JournalError(f"unknown journal record type {kind!r}")

    def restore(self) -> Dict[str, Any]:
        """The journaled start path: open the WAL (truncating any torn
        tail), load the newest intact snapshot, replay the journal tail on
        top, and only then attach the journal so new work is logged.

        A fresh/empty directory falls through to the ordinary bootstrap
        plus an initial snapshot, so first-start behaviour matches the
        journal-less server exactly.  Restarted sources re-attach through
        the existing reconnect machinery: their registration reply carries
        the restored seq high-water marks and current bounds/epochs.
        """
        if self.journal is None:
            raise JournalError("restore() called on a server with no journal")
        if self._journal_attached:
            raise JournalError("restore() called twice")
        started = _time.perf_counter()
        journal = self.journal.open()
        snapshot = journal.latest_snapshot()
        replay_start = 0
        snapshot_index: Optional[int] = None
        if snapshot is not None:
            snapshot_index, state = snapshot
            self._restore_snapshot_state(state)
            self._bootstrapped = True
            replay_start = snapshot_index
        elif not self._bootstrapped:
            # Fresh directory — or every snapshot unreadable: bootstrap
            # first (mirroring the original start), then let any surviving
            # WAL records replay on top of it.
            self.core.bootstrap()
            self._bootstrapped = True
        replayed = 0
        for record in journal.records(start=replay_start):
            self._replay_record(record)
            replayed += 1
        if snapshot is None and replayed == 0:
            # Truly fresh: persist the starting point as snapshot zero so
            # the first compaction has a floor to measure from.
            journal.write_snapshot(self._recovery_state())
        elif replayed:
            # Replayed plans/values may be far from any cached warm start.
            self.core.clear_planner_warm_starts()
        # Replayed qadd/qdel records (and snapshot dynamic queries) grew
        # the bank behind the server's name maps — re-sync them.  The
        # subscribers holding the references died with the old process,
        # so restored dynamic queries start at refcount 0 and live until
        # a future subscriber claims and then releases them.
        self._query_names = {query.name for query in self.core.queries}
        self._query_objects = {query.name: query
                               for query in self.core.queries}
        self._dynamic_refs = {name: 0 for name in self.core.dynamic_names}
        self.core.journal = journal
        self._journal_attached = True
        self.last_recovery = {
            "snapshot_index": snapshot_index,
            "records_replayed": replayed,
            "recovery_seconds": _time.perf_counter() - started,
            "truncated_tail_bytes": journal.truncated_tail_bytes,
        }
        return dict(self.last_recovery)

    def _maybe_snapshot(self, force: bool = False) -> None:
        """Compact the recovery point once enough records accumulated."""
        if self.journal is None or not self._journal_attached:
            return
        if force or (self.journal.records_since_snapshot
                     >= self.journal.snapshot_every):
            self.journal.write_snapshot(self._recovery_state())

    # -- resharding ------------------------------------------------------------------

    def advance_map_epoch(self, epoch: Optional[int]) -> None:
        """Adopt a newer shard-map epoch (monotone; older ones ignored).

        Called by the cluster's migrator at each cutover and by the
        router when it reattaches a restored shard, so every live shard
        fences refreshes against the newest map it has seen."""
        if epoch is None:
            return
        epoch = int(epoch)
        if self.map_epoch is None or epoch > self.map_epoch:
            self.map_epoch = epoch

    def adopt_item(self, item: str, value: float, source_id: Optional[int],
                   seq_floor: int = 0) -> None:
        """Accept ownership of *item* from another shard (live reshard).

        ``seq_floor`` is the previous owner's accepted refresh seq
        high-water mark: installing it keeps the dedup guard monotone
        across the hand-off, so a duplicate of an old refresh replayed
        at the new owner is still rejected."""
        if seq_floor:
            self.last_seq[item] = max(self.last_seq.get(item, 0),
                                      int(seq_floor))
        self.core.adopt_item(item, float(value), source_id=source_id,
                             seq=int(seq_floor) if seq_floor else None)

    # -- source-plane handlers ------------------------------------------------------

    async def _on_register_source(self, peer: Peer,
                                  message: Dict[str, Any]) -> None:
        """Adopt (or re-adopt) a source; programming its current DABs in
        the reply doubles as crash/reconnect resync."""
        source_id = int(message["source_id"])
        known = {name for name, owner in self.core.item_to_source.items()
                 if owner == source_id}
        unknown = [name for name in message["items"] if name not in known]
        if unknown:
            self.metrics.record_misrouted_bounds(len(unknown))
        self._attach_source(peer, source_id)
        self.last_heard[source_id] = self.clock()
        bounds, epochs = self.core.current_bounds_for(source_id)
        # The reply also carries our accepted-seq high-water marks: a
        # *restarted* source process numbers from 0 again, and without
        # this exchange every one of its refreshes would be rejected as a
        # stale duplicate until it climbed past the old incarnation's
        # numbering (resetting last_seq instead would let an in-flight
        # stale refresh from the dead connection clobber the cache).
        seqs = {name: self.last_seq[name] for name in known
                if name in self.last_seq}
        if await self._safe_send(peer.stream,
                                 protocol.dab_update(source_id, bounds, epochs,
                                                     seqs=seqs or None)):
            self.stats["dab_updates_sent"] += 1

    async def _on_refresh(self, peer: Peer,
                          message: Dict[str, Any]) -> None:
        item = message["item"]
        frame_epoch = message.get("map_epoch")
        if self.map_epoch is not None and (frame_epoch or 0) < self.map_epoch:
            # Epoch fence: this frame was routed under an older shard
            # map.  Applying it could double-own an item mid-migration
            # (the new owner already has a fresher hand-off value), so
            # it is dropped — the router re-sends under the new map.
            self.stats["refreshes_rejected_stale_map_epoch"] += 1
            return
        if frame_epoch is not None:
            # A frame from the future means we missed a cutover
            # broadcast (e.g. restored from an old snapshot): converge.
            self.advance_map_epoch(frame_epoch)
        if item not in self.core.cache:
            self.metrics.record_misrouted_bounds()
            return
        seq = int(message["seq"])
        # Same dedup the simulator applies under faults — always on here:
        # TCP per connection is ordered, but a reconnecting source resends,
        # and nothing stops two connections racing for one source_id.
        if seq <= self.last_seq.get(item, 0):
            self.metrics.record_refresh()
            self.metrics.record_duplicate_reject()
            self.stats["refreshes_rejected_stale_seq"] += 1
            return
        self.last_seq[item] = seq
        now = self.clock()
        self.last_heard[int(message["source_id"])] = now
        if self.lease_duration is not None:
            self._hear_from_item(item, now)
            self._fanout_degraded_if_changed()
        self.core.apply_refresh(item, float(message["value"]), seq=seq)
        self.stats["refreshes_accepted"] += 1
        if message.get("resync"):
            self.core.clear_planner_warm_starts()
        notifications, recomputed = self.core.react_to_refresh(item)
        if recomputed:
            await self._fanout_bound_changes()
        if notifications:
            self._fanout_notifications(notifications,
                                       message.get("sent_at"))
        self._maybe_snapshot()

    async def _fanout_bound_changes(self) -> None:
        for source_id, (bounds, epochs) in self.core.changed_bound_updates().items():
            await self._send_dab_update(source_id, bounds, epochs)

    def _dab_retried(self) -> None:
        self.metrics.record_dab_retry()

    def _dab_gave_up(self, items: List[str]) -> None:
        """The coordinator can no longer claim the source enforces the
        bounds it was sent, so served answers widen honestly instead of
        silently trusting a filter that may not exist."""
        self.metrics.record_dab_retry_exhausted()
        self.mark_suspect(items)

    def mark_suspect(self, items: Sequence[str]) -> None:
        """Flag ``items`` as possibly stale (a no-op with leases off):
        queries over them are served ``degraded`` until each is heard
        from again; the lease sweep probes for them meanwhile."""
        if self.lease_duration is None:
            return
        now = self.clock()
        for name in items:
            self.suspect_since.setdefault(name, now)
        self._fanout_degraded_if_changed()

    # -- staleness leases -----------------------------------------------------------

    async def _on_heartbeat(self, peer: Peer,
                            message: Dict[str, Any]) -> None:
        """Renew leases for in-sync items; a seq gap means a refresh we
        never received — the item goes suspect and its value is probed
        (the source is demonstrably alive, so the reply is immediate)."""
        source_id = int(message["source_id"])
        now = self.clock()
        self.last_heard[source_id] = now
        self.stats["heartbeats_received"] += 1
        self.metrics.record_heartbeat()
        if self.lease_duration is None:
            return
        probes: List[str] = []
        behind: List[str] = []
        for name, seq in message["seqs"].items():
            if self.core.item_to_source.get(name) != source_id:
                continue
            held = self.last_seq.get(name, 0)
            if int(seq) == held:
                self._hear_from_item(name, now)
                continue
            if name not in self.suspect_since:
                self.suspect_since[name] = now
                self.stats["seq_gaps_detected"] += 1
                self.metrics.record_refresh_gap()
            if int(seq) > held:
                probes.append(name)
            else:
                # Numbering *behind* ours: a restarted source whose
                # registration reply (with the seq high-water marks) was
                # lost.  Its refreshes are being rejected as duplicates,
                # so a probe alone cannot cure it — re-floor its seqs.
                behind.append(name)
        if behind:
            bounds, epochs = self.core.current_bounds_for(source_id)
            await self._send_resync(source_id, behind, bounds, epochs)
        if probes:
            await self._send_probe(source_id, probes)
        self._fanout_degraded_if_changed()

    def _hear_from_item(self, name: str, now: float) -> None:
        """A refresh (or probe reply) vouched for ``name``: renew its
        lease, clear suspicion, close the staleness-exposure interval."""
        self._item_last_heard[name] = now
        since = self.suspect_since.pop(name, None)
        if since is not None:
            self.metrics.record_staleness_exposure(max(0.0, now - since))

    async def check_leases(self) -> None:
        """Expire leases on unheard-from items; probe and degrade.

        Driven by the maintenance task under TCP, or explicitly per step
        by the chaos soak.  First sweep baselines every item's lease at
        the current clock (a grace period, not an instant expiry)."""
        if self.lease_duration is None:
            return
        now = self.clock()
        probes_by_source: Dict[int, List[str]] = {}
        for name in self.core.cache:
            last = self._item_last_heard.setdefault(name, now)
            source_id = self.core.item_to_source.get(name)
            if name in self.suspect_since:
                # Keep probing until the value (or its resync) lands.
                if source_id is not None:
                    probes_by_source.setdefault(source_id, []).append(name)
                continue
            if now - last > self.lease_duration:
                self.suspect_since[name] = now
                self.metrics.record_lease_expiry()
                if source_id is not None:
                    probes_by_source.setdefault(source_id, []).append(name)
        for source_id, items in probes_by_source.items():
            await self._send_probe(source_id, items)
        self._fanout_degraded_if_changed()

    async def _send_probe(self, source_id: int, items: List[str]) -> None:
        """Ask a source to resend the listed items' current values now
        (an empty-bounds DAB_UPDATE carrying only ``probe``)."""
        message = protocol.dab_update(source_id, {}, {}, probe=items)
        if await self._send_to_source(source_id, message):
            self.metrics.record_value_probe(len(items))

    async def _send_resync(self, source_id: int, items: List[str],
                           bounds: Dict[str, float],
                           epochs: Dict[str, int]) -> None:
        """A mini registration reply for ``items``: current bounds,
        epochs and seq floors, plus a probe so the re-numbered source
        answers with fresh values immediately."""
        message = protocol.dab_update(
            source_id,
            {name: bounds[name] for name in items if name in bounds},
            {name: epochs[name] for name in items if name in epochs},
            seqs={name: self.last_seq[name] for name in items
                  if name in self.last_seq},
            probe=items)
        if await self._send_to_source(source_id, message):
            self.metrics.record_value_probe(len(items))

    def degraded_bounds(self) -> Dict[str, float]:
        """``{query name: honestly-widened bound}`` for every query with
        at least one suspect input — the PR 1 lease semantics, computed
        by :meth:`CoordinatorCore.uncertainty_widened_bound` with drifts
        that grow with each item's staleness."""
        if self.lease_duration is None or not self.suspect_since:
            return {}
        now = self.clock()
        cache = self.core.cache
        degraded: Dict[str, float] = {}
        for query in self.core.queries:
            drifts: Dict[str, float] = {}
            for name in query.variables:
                since = self.suspect_since.get(name)
                if since is None:
                    continue
                staleness = max(0.0, now - since)
                drifts[name] = (self.suspect_drift_rel
                                * max(abs(cache[name]), 1e-12)
                                * (1.0 + staleness / self.lease_duration))
            if drifts:
                degraded[query.name] = self.core.uncertainty_widened_bound(
                    query, drifts)
        return degraded

    def _fanout_degraded_if_changed(self) -> None:
        """When the set of degraded queries changes, push a bare NOTIFY
        carrying the authoritative ``degraded`` map to every subscriber —
        including the empty map that clears a recovered degradation."""
        if self.lease_duration is None:
            return
        affected = set()
        for name in self.suspect_since:
            for query in self.core.item_index.get(name, []):
                affected.add(query.name)
        keys = frozenset(affected)
        if keys == self._degraded_keys:
            return
        self._degraded_keys = keys
        self._publish(
            [], self.degraded_bounds(), sent_at=self.clock(),
            shard=self.shard_id, map_epoch=self.map_epoch)

    # -- subscriber plane -----------------------------------------------------------

    def _register_definitions(self, definitions: List[Any]) -> Set[str]:
        """Register QUERY_SUB ``definitions`` incrementally; returns the
        names this subscriber now holds a reference on.

        Work is bounded per definition (template-sized, never O(bank)):
        duplicate detection is one dict probe, a brand-new query is an
        index *append* (``core.add_query``), and an exact re-registration
        of a live dynamic query just bumps its refcount.  A name collision
        with a structurally different query is a protocol error — raised
        before anything is registered, so a rejected message has no
        partial effect."""
        decoded = [protocol.query_from_wire(data) for data in definitions]
        staged: Dict[str, PolynomialQuery] = {}
        for query in decoded:
            existing = (self._query_objects.get(query.name)
                        or staged.get(query.name))
            if existing is not None and existing != query:
                raise ProtocolError(
                    f"query {query.name!r} is already registered with a "
                    "different definition")
            if existing is None:
                unknown = [v for v in query.variables
                           if v not in self.core.cache]
                if unknown:
                    raise ProtocolError(
                        f"query {query.name!r} references unknown items: "
                        f"{sorted(unknown)}")
                staged[query.name] = query
        registered: Set[str] = set()
        for query in decoded:
            if query.name in staged:
                self.core.add_query(query)
                self._query_objects[query.name] = query
                self._query_names.add(query.name)
                self._dynamic_refs[query.name] = 1
                registered.add(query.name)
                del staged[query.name]
            elif (query.name in self._dynamic_refs
                  and query.name not in registered):
                self._dynamic_refs[query.name] += 1
                registered.add(query.name)
        return registered

    def _subscriber_gone(self, sub: _Subscriber) -> None:
        """Drop this subscriber's references; remove a dynamic query when
        the last reference goes (the core keeps it only if it is the very
        last query standing — a coordinator cannot run empty)."""
        removed = False
        for name in sub.registered:
            refs = self._dynamic_refs.get(name)
            if refs is None:
                continue
            if refs > 1:
                self._dynamic_refs[name] = refs - 1
                continue
            try:
                self.core.remove_query(name)
            except SimulationError:
                self._dynamic_refs[name] = 0
                continue
            del self._dynamic_refs[name]
            self._query_objects.pop(name, None)
            self._query_names.discard(name)
            removed = True
        sub.registered = set()
        if removed and not self.closed:
            # The removed plans left the min-merge: ship the loosened
            # bounds.  This hook runs synchronously (an eviction fires it
            # mid-publish), so the send goes on a task of its own.
            task = asyncio.ensure_future(self._fanout_bound_changes())
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)

    async def _on_query_sub(self, peer: Peer,
                            message: Dict[str, Any]) -> None:
        registered: Set[str] = set()
        definitions = message.get("definitions")
        if definitions:
            registered = self._register_definitions(definitions)
        sub = self._add_subscriber(peer, message, self._query_names)
        if sub.queries is not None:
            # Definitions are implicitly subscribed — naming them again
            # in ``queries`` would be redundant boilerplate.
            sub.queries |= {data["name"] for data in definitions or []}
        sub.registered = registered
        await self._safe_send(peer.stream, self._snapshot_response(sub))
        if registered:
            # The new plans may tighten primaries their sources enforce:
            # ship them after the reply, which need not wait for them.
            await self._fanout_bound_changes()

    async def _on_snapshot(self, peer: Peer, message: Dict[str, Any]) -> None:
        await self._safe_send(peer.stream, self._snapshot_response())

    def _snapshot_response(self, sub: Optional[_Subscriber] = None
                           ) -> Dict[str, Any]:
        values = {query.name: value for query, value in
                  zip(self.core.queries, self.core.query_values())
                  if sub is None or sub.wants(query.name)}
        if self.lease_duration is not None:
            # Always present once leases are on (``{}`` = all healthy),
            # so a snapshot is an authoritative degraded-state read.
            degraded: Optional[Dict[str, float]] = {
                name: bound for name, bound in self.degraded_bounds().items()
                if sub is None or sub.wants(name)}
        else:
            degraded = None
        return protocol.snapshot(values=values, stats=self.server_stats(),
                                 degraded=degraded, shard=self.shard_id,
                                 map_epoch=self.map_epoch)

    def _fanout_notifications(self, notifications: List[Tuple[str, float]],
                              refresh_sent_at: Optional[float]) -> None:
        """One batched NOTIFY per interested subscriber, through its
        bounded queue; a full queue evicts the slow consumer."""
        now = self.clock()
        degraded = (self.degraded_bounds()
                    if self.lease_duration is not None and self.suspect_since
                    else None)
        self._publish(
            [{"query": name, "value": value}
             for name, value in notifications],
            degraded, piggyback=True, sent_at=now,
            refresh_sent_at=refresh_sent_at, shard=self.shard_id,
            map_epoch=self.map_epoch)

    # -- introspection ---------------------------------------------------------------

    def server_stats(self) -> Dict[str, Any]:
        stats = dict(self.stats)
        # Identity first: the cluster stats plane aggregates per-shard
        # sections keyed on these, so they are always present (``None``
        # for an unbound / single-node server).
        stats["shard_id"] = self.shard_id
        stats["listen_address"] = (list(self.listen_address)
                                   if self.listen_address is not None else None)
        stats["recomputations"] = self.metrics.recomputations
        stats["window_screen_hits"] = self.core.window_screen_hits
        stats["window_screen_misses"] = self.core.window_screen_misses
        stats["refreshes"] = self.metrics.refreshes
        stats["dab_change_messages"] = self.metrics.dab_change_messages
        stats["user_notifications"] = self.metrics.user_notifications
        stats["duplicate_rejects"] = self.metrics.duplicate_rejects
        stats["queries"] = len(self.core.queries)
        stats["items"] = len(self.core.cache)
        if self.map_epoch is not None:
            stats["map_epoch"] = self.map_epoch
        if self.lease_duration is not None:
            stats["suspect_items"] = len(self.suspect_since)
            stats["degraded_queries"] = len(self._degraded_keys)
            stats["lease_expiries"] = self.metrics.lease_expiries
            stats["refresh_gaps"] = self.metrics.refresh_gaps
            stats["value_probes"] = self.metrics.value_probes
            stats["staleness_exposure_seconds"] = (
                self.metrics.staleness_exposure_seconds)
        if self.dab_retry_policy is not None:
            stats["dab_retries"] = self.metrics.dab_retries
            stats["dab_retries_exhausted"] = self.metrics.dab_retry_exhausted
            stats["dab_updates_outstanding"] = len(self._outstanding_dabs)
        if self.solver_breaker is not None:
            stats["solver_breaker_state"] = self.solver_breaker.state.value
            stats["solver_breaker"] = dict(self.solver_breaker.stats)
        if self.journal is not None and self._journal_attached:
            stats["journal"] = self.journal.stats()
            if self.last_recovery is not None:
                stats["last_recovery"] = dict(self.last_recovery)
        from repro.filters.delta_recompute import find_planner_stats

        planner_stats = find_planner_stats(self.core.planner)
        if planner_stats is not None:
            stats["delta_recompute"] = planner_stats.snapshot()
        return stats


# ---------------------------------------------------------------------------
# scenario-driven construction (shared by `repro serve` and the loadgen)
# ---------------------------------------------------------------------------

def _scenario_planning(query_count: int, item_count: int, source_count: int,
                       trace_length: int, seed: int, algorithm: str,
                       recompute_cost: float, workload: str):
    """What a single-server build and a cluster build share — the same
    workload generator, rate estimation and planner stack as a simulator
    run.  Returns ``(scenario, queries, make_server, item_to_source)``:
    ``make_server(queries, items, **kwargs)`` builds one coordinator (a
    cluster wants one per shard, each with a fresh planner) over those
    queries and the items they read."""
    # Imported here: these pull in repro.simulation, which imports
    # repro.service.core — keeping the heavy imports out of module scope
    # keeps the import graph acyclic from every entry point.
    from repro.dynamics.estimation import estimate_rates
    from repro.filters.cost_model import CostModel
    from repro.simulation.harness import (
        AlgorithmName,
        SimulationConfig,
        _SINGLE_DAB_MODES,
        build_planner,
    )
    from repro.simulation.source import assign_items_to_sources
    from repro.workloads import scaled_scenario

    scenario = scaled_scenario(
        query_count=query_count, item_count=item_count,
        trace_length=trace_length, source_count=source_count,
        query_kind=workload, seed=seed,
    )
    config = SimulationConfig(
        queries=scenario.queries, traces=scenario.traces,
        algorithm=algorithm, recompute_cost=recompute_cost,
        source_count=source_count, seed=seed,
    )
    if config.algorithm is AlgorithmName.AAO_T:
        raise ReproError("the live service has no periodic scheduler yet; "
                         "pick a per-query algorithm")
    items = config.used_items
    rates = estimate_rates(config.traces, config.rate_estimator, items)
    cost_model = CostModel(ddm=config.ddm, rates=rates,
                           recompute_cost=recompute_cost)
    item_to_source = assign_items_to_sources(items, source_count)
    initial_values = config.traces.initial_values(items)

    def make_server(queries: Sequence[PolynomialQuery],
                    items: Sequence[str], **kwargs: Any) -> CoordinatorServer:
        return CoordinatorServer(
            queries=queries, planner=build_planner(config, cost_model),
            initial_values={name: initial_values[name] for name in items},
            item_to_source={name: item_to_source[name] for name in items},
            mode=_SINGLE_DAB_MODES[config.algorithm],
            recompute_cost=recompute_cost, **kwargs)

    return scenario, config.queries, make_server, item_to_source


def build_scenario_server(
    query_count: int = 10,
    item_count: int = 30,
    source_count: int = 8,
    trace_length: int = 301,
    seed: int = 0,
    algorithm: str = "dual_dab",
    recompute_cost: float = 5.0,
    workload: str = "portfolio",
    notify_queue_limit: int = DEFAULT_NOTIFY_QUEUE_LIMIT,
    **server_kwargs: Any,
):
    """A :class:`CoordinatorServer` plus its scenario, built exactly like a
    simulator run: same workload generator, same rate estimation, same
    planner stack.  Returns ``(server, scenario, item_to_source)``.

    Extra keyword arguments (``lease_duration``, ``dab_retry_policy``,
    ``solver_breaker``, ``clock``, ...) pass straight through to the
    :class:`CoordinatorServer` constructor.

    ``repro serve`` and ``repro agent``/``repro loadgen`` must be launched
    with the same ``--queries/--items/--sources/--seed/--workload`` so both
    sides derive the same scenario; the server is authoritative for
    planning, the agents for the item traces.
    """
    scenario, queries, make_server, item_to_source = _scenario_planning(
        query_count=query_count, item_count=item_count,
        source_count=source_count, trace_length=trace_length, seed=seed,
        algorithm=algorithm, recompute_cost=recompute_cost,
        workload=workload)
    server = make_server(queries, sorted(item_to_source),
                         notify_queue_limit=notify_queue_limit,
                         **server_kwargs)
    return server, scenario, item_to_source
