"""The live source: trace replay (or programmatic ticks) behind a DAB filter.

A :class:`SourceAgent` is the deployed counterpart of the simulator's
``SourceNode``: it owns a set of items, watches their values change, and
pushes a ``REFRESH`` upstream only when a value escapes the primary DAB
window the coordinator programmed — the paper's source-side filtering,
which is where all the bandwidth savings come from.  Both decide through
one :class:`~repro.service.source_plane.PushTable` (``push``: per item
the window, its epoch and the refresh seq); the agent keeps its view of
the values, its counters, its ``Refresh`` frames and its connection.

The refreshes of one write travel as one columnar ``REFRESH`` frame, each
entry with its own seq.  After a reconnect the coordinator re-programs
its bounds (and its accepted-seq high-water marks) in the registration
reply, and the agent *force-resends* every item on its next tick with
``resync=True`` (``push.resync_all()``): a refresh whose send
failed has already recentred its window and would otherwise never be
retried.

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
from repro.service.source_plane import PushTable
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
        self.push = PushTable(self.items, self.values.values())
        self.timestamp_refreshes = timestamp_refreshes
        self.clock = clock
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
        admitted, stale, _ = self.push.admit(bounds, epochs)
        self.stats["dab_updates_applied"] += len(admitted)
        self.stats["dab_updates_rejected_stale_epoch"] += stale
        if seqs:
            self.push.raise_seqs(seqs)

    # -- ticking ------------------------------------------------------------------

    def pending_refreshes(self, updates: Mapping[str, float]
                          ) -> List[Refresh]:
        """Apply ``updates`` locally; return the refreshes to send, one
        entry per refresh.

        This is the pure (transport-free) half of a tick, so tests can
        exercise the filter without any I/O.  An item pending a resync is
        sent whatever its drift.
        """
        values, index, crosses = self.values, self.push.index, self.push.crosses
        refreshes: List[Refresh] = []
        ticks = 0
        for item, value in updates.items():
            row = index.get(item)
            if row is not None:
                values[item] = value = float(value)
                ticks += 1
                if crosses(row, value):
                    refreshes.append(self._take(row, value))
        self.stats["ticks"] += ticks
        self.stats["refreshes_filtered"] += ticks - len(refreshes)
        return refreshes

    def _take(self, row: int, value: float, resync: bool = False) -> Refresh:
        """Push ``value`` for ``row``'s item (numbered; window recentred)."""
        seq, pending = self.push.take(row, value)
        self.stats["refreshes_sent"] += 1
        return Refresh(self.push.items[row], value, seq, resync or pending)

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
        if refreshes:
            await self._send(self._refresh_frame(refreshes))
        return len(refreshes)

    async def _send(self, message: Dict[str, Any]) -> None:
        if self._stream is None:
            raise TransportClosed(f"source {self.source_id} is disconnected")
        await self._stream.send(message)

    # -- connection lifecycle -------------------------------------------------------

    async def connect(self, stream: MessageStream,
                      register_timeout: float = 5.0) -> None:
        """Register on ``stream`` (:meth:`SourceLink.connect`); on a
        reconnect, every item is first marked for a forced resend."""
        if self._stream is not None:
            self.stats["reconnects"] += 1
            self.push.resync_all()
        await super().connect(stream, register_timeout)

    async def send_heartbeat(self) -> None:
        """A HEARTBEAT with every item's seq: lost refreshes show as gaps."""
        await self._send(protocol.heartbeat(self.source_id, self.push.seq))
        self.stats["heartbeats_sent"] += 1

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
        gap, expired lease): each probed item gets an unconditional
        refresh, all in one ``resync`` frame.
        """
        index = self.push.index
        refreshes = [self._take(index[item], self.values[item], True)
                     for item in sorted(items) if item in index]
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
