"""The live source: trace replay (or programmatic ticks) behind a DAB filter.

A :class:`SourceAgent` is the deployed counterpart of the simulator's
``SourceNode``: it owns a set of items, watches their values change, and
pushes a ``REFRESH`` upstream only when a value escapes the primary DAB
window the coordinator programmed — the paper's source-side filtering,
which is where all the bandwidth savings come from.

Semantics carried over from the simulator (and its fault suite):

* **per-item monotone DAB epochs** — a ``DAB_UPDATE`` is applied per item
  only if its epoch is newer than the one held, so duplicated or
  reordered bound messages are idempotent: the receiver rule
  ``SourceNode`` shares (:func:`~repro.service.source_plane.admit_newest`);
* **per-item refresh seq numbers** — every refresh carries a
  monotonically increasing ``seq`` so the coordinator can reject
  duplicates and detect gaps from heartbeats; the refreshes of one write
  travel as one columnar ``REFRESH`` frame, each entry with its own seq;
* **reconnect-with-resync** — after a connection drop the agent
  re-registers, the coordinator re-programs its current bounds (and its
  accepted-seq high-water marks) in the registration reply, and the agent
  *force-resends* every item's current value on its next tick with
  ``resync=True`` — unconditionally, not just on a DAB violation, because
  a refresh whose send failed has already recentred ``sent_values`` and
  would otherwise never be retried (the coordinator would keep serving
  the stale value forever).

``run`` dials TCP; ``connect`` takes any :class:`MessageStream`.
"""

from __future__ import annotations

import asyncio
import logging
import time as _time
from typing import (Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence)

from repro.service import protocol
from repro.service.client import SourceLink
from repro.service.protocol import ProtocolError
from repro.service.source_plane import admit_newest
from repro.service.transports import MessageStream, TransportClosed, open_tcp_stream

_LOG = logging.getLogger(__name__)


class Refresh(NamedTuple):
    """One refresh a tick let through the filter: an entry of the next
    REFRESH frame."""

    item: str
    value: float
    seq: int
    resync: bool


class SourceAgent(SourceLink):
    """Replay item ticks, filter through primary DABs, push refreshes."""

    def __init__(
        self,
        source_id: int,
        items: Iterable[str],
        initial_values: Mapping[str, float],
        timestamp_refreshes: bool = False,
        clock: Callable[[], float] = _time.time,
    ):
        super().__init__(source_id, items)
        missing = [name for name in self.items if name not in initial_values]
        if missing:
            raise ProtocolError(
                f"source {source_id} has no initial value for: "
                f"{', '.join(missing)}")
        #: the agent's live view of each item (updated by every tick).
        self.values: Dict[str, float] = {name: float(initial_values[name])
                                         for name in self.items}
        #: last value actually *sent* upstream — the DAB window's centre.
        self.sent_values: Dict[str, float] = dict(self.values)
        self.bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.seq: Dict[str, int] = {name: 0 for name in self.items}
        self.timestamp_refreshes = timestamp_refreshes
        self.clock = clock
        self._resync_pending: set = set()
        self.stats = {
            "ticks": 0,
            "refreshes_sent": 0,
            "refreshes_filtered": 0,
            "dab_updates_applied": 0,
            "dab_updates_rejected_stale_epoch": 0,
            "reconnects": 0,
            "heartbeats_sent": 0,
            "registrations_failsafe": 0,
            "dab_acks_sent": 0,
            "probes_answered": 0,
        }

    # -- DAB handling ---------------------------------------------------------------

    def apply_dab_update(self, bounds: Mapping[str, float],
                         epochs: Mapping[str, Any],
                         seqs: Optional[Mapping[str, Any]] = None) -> None:
        """Adopt new primary DABs, newest epoch first (an item not ours
        is skipped).

        ``seqs`` (present in the registration reply) floors our per-item
        refresh counters at the server's accepted high-water marks: a
        restarted process whose counters are back at 0 would otherwise
        have every refresh rejected as a stale duplicate until it climbed
        past the previous incarnation's numbering.
        """
        admitted, stale, _ = admit_newest(self.epochs, self.values, bounds, epochs)
        self.bounds.update(admitted)
        self.stats["dab_updates_applied"] += len(admitted)
        self.stats["dab_updates_rejected_stale_epoch"] += stale
        if seqs:
            for name, floor in seqs.items():
                if name in self.seq:
                    self.seq[name] = max(self.seq[name], int(floor))

    def _violates(self, item: str) -> bool:
        bound = self.bounds.get(item)
        if bound is None:
            # No bound programmed yet: forward everything (fail-safe —
            # never silently *suppress* data the coordinator may need).
            return True
        return abs(self.values[item] - self.sent_values[item]) > bound

    # -- ticking ------------------------------------------------------------------

    def pending_refreshes(self, updates: Mapping[str, float]
                          ) -> List[Refresh]:
        """Apply ``updates`` locally; return the refreshes to send, one
        entry per refresh.

        This is the pure (transport-free) half of a tick, so tests can
        exercise the filter without any I/O.

        An item in ``_resync_pending`` is sent *unconditionally*, DAB or
        no DAB: after a reconnect, ``sent_values`` may hold a value whose
        send failed mid-flight — the filter would judge the retried value
        in-window against it and silently drop the refresh the
        coordinator never received.
        """
        refreshes: List[Refresh] = []
        for item, value in updates.items():
            if item not in self.values:
                continue
            self.values[item] = float(value)
            self.stats["ticks"] += 1
            resync = item in self._resync_pending
            if not resync and not self._violates(item):
                self.stats["refreshes_filtered"] += 1
                continue
            refreshes.append(self._take(item, resync))
        return refreshes

    def _take(self, item: str, resync: bool) -> Refresh:
        """Number ``item``'s current value for sending and recentre its
        window on it."""
        self.seq[item] += 1
        value = self.sent_values[item] = self.values[item]
        self._resync_pending.discard(item)
        self.stats["refreshes_sent"] += 1
        return Refresh(item, value, self.seq[item], resync)

    def _refresh_frame(self, refreshes: Sequence[Refresh]) -> Dict[str, Any]:
        """The one REFRESH frame carrying ``refreshes``: a resync if any
        entry is one, stamped once with the send time."""
        items, values, seqs, resyncs = zip(*refreshes)
        return protocol.refresh(
            self.source_id, items, values, seqs, resync=any(resyncs),
            sent_at=self.clock() if self.timestamp_refreshes else None)

    async def tick(self, updates: Mapping[str, float]) -> int:
        """Programmatic tick: new values in, filtered refreshes out, all
        of them in one frame.

        Returns how many refreshes were actually pushed upstream."""
        refreshes = self.pending_refreshes(updates)
        if not refreshes:
            return 0
        stream = self._stream
        if stream is None:
            raise TransportClosed(
                f"source {self.source_id} ticked while disconnected")
        await stream.send(self._refresh_frame(refreshes))
        return len(refreshes)

    # -- connection lifecycle -------------------------------------------------------

    async def connect(self, stream: MessageStream,
                      register_timeout: float = 5.0) -> None:
        """Register on ``stream`` (:meth:`SourceLink.connect`); on a
        reconnect, every item is first marked for a forced resend."""
        if self._stream is not None:
            self.stats["reconnects"] += 1
            self._resync_pending = set(self.items)
        await super().connect(stream, register_timeout)

    def _on_failsafe(self, register_timeout: float) -> None:
        self.stats["registrations_failsafe"] += 1
        _LOG.warning(
            "source %d: no usable registration reply within %.3fs; "
            "proceeding fail-safe (no bounds -> every tick is forwarded)",
            self.source_id, register_timeout)

    def _on_dab_update(self, message: Mapping[str, Any]) -> None:
        self.apply_dab_update(message["bounds"], message["epochs"],
                              message.get("seqs"))

    async def _after_dab_update(self, message: Mapping[str, Any],
                                applied: None, stream: MessageStream) -> None:
        """Count the ack just sent and answer value probes."""
        if message.get("msg_id") is not None:
            self.stats["dab_acks_sent"] += 1
        probe = message.get("probe")
        if probe:
            await self._answer_probe(probe, stream)

    async def _answer_probe(self, items: Iterable[str],
                            stream: MessageStream) -> None:
        """Immediately resend the probed items' current values.

        A probe means the coordinator suspects it missed a refresh (seq
        gap, expired lease): the authoritative cure is a fresh value, so
        each probed item gets an unconditional refresh with a bumped seq,
        all in one ``resync`` frame — the filter is bypassed exactly like
        the post-reconnect resync path.
        """
        refreshes = [self._take(item, True) for item in sorted(items)
                     if item in self.values]
        if refreshes:
            self.stats["probes_answered"] += len(refreshes)
            await stream.send(self._refresh_frame(refreshes))

    # -- trace replay ----------------------------------------------------------------

    async def replay(
        self,
        traces: "Any",
        start_step: int = 1,
        max_steps: Optional[int] = None,
        reconnect: Optional[Callable[[], "Any"]] = None,
    ) -> int:
        """Replay a :class:`~repro.dynamics.traces.TraceSet` through the
        filter; returns the number of refreshes pushed.

        ``reconnect``, if given, is an async factory returning a fresh
        connected :class:`MessageStream`; on a transport drop mid-replay
        the agent reconnects through it (re-registering, resyncing) and
        retries the step that failed — every item is then force-resent
        (``resync=True``), so a refresh whose send died on the old
        connection is re-delivered even though the local filter state had
        already recentred on it.  A failed reconnect propagates.
        """
        lengths = [len(traces[item]) for item in self.items]
        last = min(lengths) if lengths else 0
        if max_steps is not None:
            last = min(last, start_step + max_steps)
        sent = 0
        step = start_step
        while step < last:
            updates = {item: traces[item].at(step) for item in self.items}
            try:
                sent += await self.tick(updates)
            except TransportClosed:
                if reconnect is None:
                    raise
                await self.connect(await reconnect())
                continue            # retry the same step after resync
            step += 1
            # A trace is a stream over time: the loop gets a turn between
            # ticks, so an in-process coordinator takes each tick as it
            # lands instead of the whole trace as one backlogged batch.
            await asyncio.sleep(0)
        return sent

    async def run(self, host: str, port: int, traces: "Any",
                  max_steps: Optional[int] = None,
                  resolve: Optional[Callable[[], Any]] = None) -> int:
        """Connect over TCP, replay, and close — the ``repro agent`` body.

        ``resolve``, if given, is called before *every* dial (initial and
        reconnect) and must return the current ``(host, port)`` target —
        it may be async.  Without it the original address is pinned,
        which is wrong the moment a supervisor restores a dead
        coordinator shard on a new port: the old behaviour had every
        reconnect attempt dial the corpse's address forever.
        """
        async def _dial() -> MessageStream:
            target_host, target_port = host, port
            if resolve is not None:
                target = resolve()
                if asyncio.iscoroutine(target):
                    target = await target
                target_host, target_port = target
            return await open_tcp_stream(target_host, target_port)

        await self.connect(await _dial())
        try:
            return await self.replay(traces, max_steps=max_steps,
                                     reconnect=_dial)
        finally:
            await self.close()


def agents_for_scenario(scenario: "Any", item_to_source: Mapping[str, int],
                        timestamp_refreshes: bool = False,
                        ) -> Dict[int, SourceAgent]:
    """One agent per source id, owning exactly the items the coordinator
    routes to it (same round-robin assignment on both sides)."""
    initial = scenario.traces.initial_values()
    owned: Dict[int, List[str]] = {}
    for item, source_id in item_to_source.items():
        owned.setdefault(source_id, []).append(item)
    return {
        source_id: SourceAgent(source_id, items, initial,
                               timestamp_refreshes=timestamp_refreshes)
        for source_id, items in sorted(owned.items())
    }
