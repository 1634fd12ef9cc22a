"""The source plane, written once (DESIGN.md §7.2).

Clock-free tables: time is passed in, none does I/O, and each call
returns the effects its caller carries out — items to probe or resync,
DAB_UPDATEs to ship, resend or give up on.  The simulator's ``Coordinator``,
the live ``CoordinatorServer`` and the cluster router (through
``FrontEnd``) are adapters that turn those effects into events or frames.
Every DAB sender ships through a :class:`DabSendTable`, and every receiver
applies what :func:`admit_newest` admits.  Every pusher — the simulated
``SourceNode``, the live ``SourceAgent`` and the Fig. 8(c) relay's
per-child filters — decides what to push through a :class:`PushTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Container, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.service.resilience import RetryPolicy

#: One source's DAB update: ``(bounds, epochs)`` keyed by item name.
BoundUpdate = Tuple[Dict[str, float], Dict[str, int]]

#: Relative change below which a bound is not worth a DAB-change message.
DAB_CHANGE_REL_TOL = 1e-9

#: Relative drift a suspect item is assumed to gain per lease — the live
#: service's value (the simulator's ``FaultConfig`` sets its own).
SUSPECT_DRIFT_REL = 0.05


class SeqFloors:
    """Per-item refresh sequence floors: the highest number accepted (or
    handed over) for each item.  The cluster router keeps one as its
    mirror of the shards' floors; :class:`SourceLeases` builds on it."""

    def __init__(self) -> None:
        #: item -> highest refresh sequence number accepted.
        self.last_seq: Dict[str, int] = {}

    def raise_floors(self, items: Iterable[str], seqs: Iterable[int]) -> None:
        """Raise each of ``items`` to the aligned one of ``seqs`` where
        that is higher (a column: an item twice keeps the higher)."""
        last_seq = self.last_seq
        floor = last_seq.get
        for item, seq in zip(items, seqs):
            if seq > floor(item, 0):
                last_seq[item] = int(seq)

    def floors(self, items: Iterable[str]) -> Dict[str, int]:
        """What a (re)registering source must number ``items`` above."""
        return {name: self.last_seq[name] for name in items
                if name in self.last_seq}


class SourceLeases(SeqFloors):
    """Seq floors, staleness leases and the suspect set of one coordinator.

    ``owner`` is the live item → source map (the core's, so adopted items
    are covered).  With ``lease_duration=None`` only the seq floors work:
    every lease call is a no-op and nothing is ever degraded.  ``metrics``
    (a ``MetricsCollector``) counts duplicate rejects, gaps, lease
    expiries and staleness exposure.
    """

    def __init__(self, owner: Mapping[str, int],
                 lease_duration: Optional[float] = None,
                 drift_rel: float = SUSPECT_DRIFT_REL, metrics: Any = None):
        super().__init__()
        self.owner = owner
        self.lease_duration = (float(lease_duration)
                               if lease_duration is not None else None)
        #: Relative drift a suspect item is assumed to gain per lease.
        self.drift_rel = float(drift_rel)
        self.metrics = metrics
        #: item -> last time a refresh or heartbeat vouched for it.
        self.last_heard: Dict[str, float] = {}
        #: item -> time it went suspect.
        self.suspect_since: Dict[str, float] = {}

    @property
    def enabled(self) -> bool:
        return self.lease_duration is not None

    def accept(self, items: Sequence[str], seqs: Sequence[int]) -> List[int]:
        """Admit a column of refreshes: entry ``i`` is ``items[i]``
        numbered ``seqs[i]``, admitted — and the item's floor raised to it
        — when above the floor, in entry order, so of one item twice the
        second entry is held to the first's number.  Returns the admitted
        indices; each other entry is counted as a delivered, rejected
        refresh."""
        last_seq = self.last_seq
        floor = last_seq.get
        admitted: List[int] = []
        for index in range(len(items)):
            item, seq = items[index], seqs[index]
            if seq > floor(item, 0):
                last_seq[item] = int(seq)
                admitted.append(index)
        rejected = len(items) - len(admitted)
        if rejected:
            self.metrics.record_refresh(rejected)
            self.metrics.record_duplicate_reject(rejected)
        return admitted

    def renew(self, items: Sequence[str], now: float) -> List[int]:
        """A column of refreshes vouched for ``items``: renew each one's
        lease.  Returns the indices of the entries the caller hears one at
        a time, in order (:meth:`heard`), because hearing them may change
        which queries are degraded: the first, and each later one whose
        item is suspect.  None with leases off."""
        if self.lease_duration is None:
            return []
        self.last_heard.update(dict.fromkeys(items, now))
        suspects = self.suspect_since
        return [0] + [index for index in range(1, len(items))
                      if items[index] in suspects]

    def heard(self, item: str, now: float) -> None:
        """A refresh or probe answer vouched for ``item``: renew its lease;
        if it was suspect, clear it and record the whole exposure."""
        if self.lease_duration is not None:
            self.last_heard[item] = now
            since = self.suspect_since.pop(item, None)
            if since is not None:
                self.metrics.record_staleness_exposure(max(0.0, now - since))

    def heartbeat(self, source_id: int, seqs: Mapping[str, int],
                  now: float) -> Tuple[List[str], List[str]]:
        """A source's beacon.  Items numbered at the floor renew their
        leases; any other goes suspect (one gap) and is returned in
        ``(probe, resync)`` on every such beacon: ``probe`` when the
        source is ahead (refreshes were lost), ``resync`` when it numbers
        behind (it restarted).  Items it does not own are ignored."""
        probe: List[str] = []
        resync: List[str] = []
        if self.lease_duration is None:
            return probe, resync
        for name, seq in seqs.items():
            if self.owner.get(name) != source_id:
                continue
            held = self.last_seq.get(name, 0)
            if int(seq) == held:
                self.heard(name, now)
                continue
            if name not in self.suspect_since:
                self.suspect_since[name] = now
                self.metrics.record_refresh_gap()
            (probe if int(seq) > held else resync).append(name)
        return probe, resync

    def sweep(self, now: float, items: Iterable[str]) -> Dict[int, List[str]]:
        """Expire the leases of ``items`` (a lease never heard from starts
        at its first sweep); returns ``{source: every suspect item}``, in
        ``items`` order, to probe."""
        probes: Dict[int, List[str]] = {}
        if self.lease_duration is None:
            return probes
        for name in items:
            last = self.last_heard.setdefault(name, now)
            if name not in self.suspect_since:
                if now - last <= self.lease_duration:
                    continue
                self.suspect_since[name] = now
                self.metrics.record_lease_expiry()
            source_id = self.owner.get(name)
            if source_id is not None:
                probes.setdefault(source_id, []).append(name)
        return probes

    def mark_suspect(self, items: Iterable[str], now: float) -> None:
        if self.lease_duration is not None:
            for name in items:
                self.suspect_since.setdefault(name, now)

    def widened_bound(self, query: Any, now: float, core: Any) -> float:
        """``query``'s QAB widened, per suspect input, by its response to a
        drift growing with the item's staleness."""
        drifts: Dict[str, float] = {}
        for name in query.variables:
            since = self.suspect_since.get(name)
            if since is not None:
                staleness = max(0.0, now - since)
                drifts[name] = (self.drift_rel
                                * max(abs(core.cache[name]), 1e-12)
                                * (1.0 + staleness / self.lease_duration))
        return core.uncertainty_widened_bound(query, drifts)

    def degraded_bounds(self, now: float, core: Any) -> Dict[str, float]:
        """``{name: widened bound}`` of every query with a suspect input."""
        if self.lease_duration is None or not self.suspect_since:
            return {}
        suspects = self.suspect_since
        return {query.name: self.widened_bound(query, now, core)
                for query in core.queries
                if any(name in suspects for name in query.variables)}

    def recovery_state(self) -> Dict[str, Dict[str, Any]]:
        """The snapshot's ``server`` section, under its original keys."""
        return {"last_seq": dict(self.last_seq),
                "suspect_since": dict(self.suspect_since),
                "item_last_heard": dict(self.last_heard)}

    def restore(self, state: Mapping[str, Any]) -> None:
        for name, seq in (state.get("last_seq") or {}).items():
            self.last_seq[str(name)] = int(seq)
        for name, since in (state.get("suspect_since") or {}).items():
            self.suspect_since[str(name)] = float(since)
        for name, at in (state.get("item_last_heard") or {}).items():
            self.last_heard[str(name)] = float(at)


class DabSendTable:
    """Per item, the bound last shipped to its source and its epoch.  The
    owner min-merges its own votes (EQI, paper §IV); :meth:`changes` is
    pure, and what is shipped is written by one mutator, :meth:`record` —
    live, on replay, and for the bootstrap seed (under no epoch)."""

    def __init__(self) -> None:
        #: item -> the bound last sent, and the epoch of its last change.
        self.sent: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}

    def changes(self, merged: Mapping[str, float]) -> BoundUpdate:
        """The bounds of ``merged`` never shipped or moved by more than
        :data:`DAB_CHANGE_REL_TOL` relative, in input order, under their
        next epochs.  Records nothing."""
        sent, epochs = self.sent, self.epochs
        changed = {name: bound for name, bound in merged.items()
                   if name not in sent or not abs(bound - sent[name])
                   <= DAB_CHANGE_REL_TOL * sent[name]}
        return changed, {name: epochs.get(name, 0) + 1 for name in changed}

    def record(self, bounds: Mapping[str, float],
               epochs: Mapping[str, int]) -> None:
        self.sent.update(bounds)
        self.epochs.update(epochs)

    def by_source(self, items: Iterable[str],
                  owner: Mapping[str, int]) -> Dict[int, BoundUpdate]:
        """:meth:`held` of ``items``, one update per owning source in order
        of first appearance; an item with no source is left out."""
        groups: Dict[int, List[str]] = {}
        for name in items:
            if owner.get(name) is not None:
                groups.setdefault(owner[name], []).append(name)
        return {source_id: self.held(names) for source_id, names in groups.items()}

    def held(self, items: Iterable[str]) -> BoundUpdate:
        """What a source holding ``items`` was last sent (its registration
        reply); a seeded bound goes out under epoch 0."""
        bounds = {name: self.sent[name] for name in items if name in self.sent}
        return bounds, {name: self.epochs.get(name, 0) for name in bounds}


def admit_newest(held: Dict[str, int], known: Container[str],
                 bounds: Mapping[str, float],
                 epochs: Optional[Mapping[str, int]] = None
                 ) -> Tuple[Dict[str, float], int, int]:
    """The receiver rule: per item, the newest epoch wins.  ``held`` (item
    -> epoch of the bound last admitted under one) is raised here.  Returns
    ``(admitted, stale, unknown)``: the bounds under an epoch newer than
    held, or under none (``epochs`` is ``None`` or lacks the item), in
    input order; and how many were skipped as older, or not ``known``."""
    admitted: Dict[str, float] = {}
    stale = unknown = 0
    for name, bound in bounds.items():
        epoch = None if epochs is None else epochs.get(name)
        if name not in known:
            unknown += 1
        elif epoch is not None and epoch <= held.get(name, -1):
            stale += 1
        else:
            if epoch is not None:
                held[name] = int(epoch)
            admitted[name] = float(bound)
    return admitted, stale, unknown


def _drifted(values: Any, centres: Any, limits: Any) -> Any:
    """The push compare, strict: elementwise over arrays, or for floats."""
    return abs(values - centres) > limits


class PushTable:
    """One pusher's filter, the paper's source side: per item the value
    last pushed (its window's centre), the bound in force and its epoch,
    and the seq of its last refresh.  An item crosses when it has drifted
    strictly more than its bound from its centre, when it has no bound yet
    (the fail-safe: never suppress data the coordinator may need), or when
    :meth:`resync_all` marked it and it has not been taken since."""

    def __init__(self, items: Sequence[str], centres: Iterable[float]):
        self.items: List[str] = list(items)
        self.index = {name: row for row, name in enumerate(self.items)}
        self.centres: List[float] = [float(value) for value in centres]
        #: Per row, the bound in force (``-inf``: none yet).
        self.limits: List[float] = [-np.inf] * len(self.items)
        self.bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.seq: Dict[str, int] = dict.fromkeys(self.items, 0)
        #: Rows that cross at their next check whatever their drift.
        self.pending: Set[int] = set()

    def admit(self, bounds: Mapping[str, float],
              epochs: Optional[Mapping[str, int]] = None
              ) -> Tuple[Dict[str, float], int, int]:
        """Put in force what :func:`admit_newest` admits; returns its
        ``(admitted, stale, unknown)``."""
        admitted, stale, unknown = admit_newest(self.epochs, self.index,
                                                bounds, epochs)
        self.bounds.update(admitted)
        for name, bound in admitted.items():
            self.limits[self.index[name]] = bound
        return admitted, stale, unknown

    def raise_seqs(self, floors: Mapping[str, Any]) -> None:
        """Number each held item above its registration floor from now on."""
        seq = self.seq
        for name, floor in floors.items():
            if name in seq:
                seq[name] = max(seq[name], int(floor))

    def crossed(self, values: np.ndarray) -> List[int]:
        """The rows, ascending, that cross at ``values`` (one per row):
        one vectorised compare."""
        hit = _drifted(values, np.array(self.centres), np.array(self.limits))
        for row in self.pending:
            hit[row] = True
        return np.flatnonzero(hit).tolist()

    def crosses(self, row: int, value: float) -> bool:
        """Whether ``row`` crosses at ``value``: the same compare for one
        item, on floats — the live agent's tick and the relay's per-child
        check run item by item, where array calls would cost more than
        the compare (and a slower agent feeds the server smaller batches)."""
        return row in self.pending or _drifted(value, self.centres[row],
                                                  self.limits[row])

    def take(self, row: int, value: float) -> Tuple[int, bool]:
        """Push ``value`` for ``row``: number it and recentre on it.
        Returns its seq and whether the row was pending a resync."""
        name = self.items[row]
        self.seq[name] += 1
        self.recentre(row, value)
        pending = row in self.pending
        self.pending.discard(row)
        return self.seq[name], pending

    def recentre(self, row: int, value: float) -> None:
        self.centres[row] = value

    def resync_all(self) -> None:
        """Take every item at its next check."""
        self.pending.update(range(len(self.items)))


@dataclass
class PendingDab:
    """One DAB change awaiting its ack."""

    source_id: int
    bounds: Dict[str, float]
    epochs: Dict[str, int]
    attempt: int        # resends so far
    due: float          # next resend (or give-up) unless acked first


class DabRetryTable:
    """DAB changes resent on ``policy``'s schedule until acked: resend
    ``k`` falls due ``policy.delay(k)`` after the previous send, and the
    change is given up on once ``k`` would reach ``policy.max_attempts``."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        #: msg_id -> its entry, in order of last (re)send.
        self.outstanding: Dict[int, PendingDab] = {}
        self._last_id = 0

    def __len__(self) -> int:
        return len(self.outstanding)

    def track(self, source_id: int, bounds: Dict[str, float],
              epochs: Dict[str, int], now: float) -> int:
        """Register a change about to be sent; returns its message id."""
        self._last_id += 1
        self.outstanding[self._last_id] = PendingDab(
            source_id, bounds, epochs, 0, now + self.policy.delay(0))
        return self._last_id

    def ack(self, msg_id: int) -> None:
        self.outstanding.pop(msg_id, None)

    def check(self, msg_id: int, now: float) -> Tuple[Optional[PendingDab],
                                                      bool]:
        """Settle one message at ``now`` (an event-driven caller checks
        each at its own due time): ``(None, False)`` if it was acked or is
        not due yet, else ``(entry, resend)`` — rescheduled for a resend,
        or dropped because its attempts ran out."""
        entry = self.outstanding.get(msg_id)
        if entry is None or entry.due > now:
            return None, False
        del self.outstanding[msg_id]
        if entry.attempt + 1 >= self.policy.max_attempts:
            return entry, False
        entry.attempt += 1
        entry.due = now + self.policy.delay(entry.attempt)
        self.outstanding[msg_id] = entry
        return entry, True

    def due(self, now: float) -> Tuple[List[Tuple[int, PendingDab]],
                                       List[PendingDab]]:
        """Every message due at ``now``: ``(resend, given_up)``, the
        ``(msg_id, entry)`` pairs to send again, already rescheduled, and
        the entries dropped because their attempts ran out."""
        resend: List[Tuple[int, PendingDab]] = []
        given_up: List[PendingDab] = []
        for msg_id in list(self.outstanding):
            entry, again = self.check(msg_id, now)
            if again:
                resend.append((msg_id, entry))
            elif entry is not None:
                given_up.append(entry)
        return resend, given_up

    def forget_source(self, source_id: int) -> None:
        """Drop what ``source_id`` is owed (its re-registration re-programs
        every bound)."""
        for msg_id in [m for m, entry in self.outstanding.items()
                       if entry.source_id == source_id]:
            del self.outstanding[msg_id]
