"""The live source: trace replay (or programmatic ticks) behind a DAB filter.

A :class:`SourceAgent` is the deployed counterpart of the simulator's
``SourceNode``: it owns a set of items, watches their values change, and
pushes a ``REFRESH`` upstream only when a value escapes the primary DAB
window the coordinator programmed — the paper's source-side filtering,
which is where all the bandwidth savings come from.

Semantics carried over from the simulator (and its fault suite):

* **per-item monotone DAB epochs** — a ``DAB_UPDATE`` is applied per item
  only if its epoch is newer than the one held, so duplicated or
  reordered bound messages are idempotent (``SourceNode.set_bounds``);
* **per-item refresh seq numbers** — every refresh carries a
  monotonically increasing ``seq`` so the coordinator can reject
  duplicates and detect gaps from heartbeats;
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
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.service import protocol
from repro.service.client import SourceLink
from repro.service.protocol import ProtocolError
from repro.service.resilience import RetryPolicy, retry_async
from repro.service.transports import MessageStream, TransportClosed, open_tcp_stream

_LOG = logging.getLogger(__name__)


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

    # -- DAB handling (mirrors SourceNode.set_bounds) -----------------------------

    def apply_dab_update(self, bounds: Mapping[str, float],
                         epochs: Mapping[str, Any],
                         seqs: Optional[Mapping[str, Any]] = None) -> None:
        """Adopt new primary DABs, item by item, newest epoch wins.

        ``seqs`` (present in the registration reply) floors our per-item
        refresh counters at the server's accepted high-water marks: a
        restarted process whose counters are back at 0 would otherwise
        have every refresh rejected as a stale duplicate until it climbed
        past the previous incarnation's numbering.
        """
        for name, bound in bounds.items():
            if name not in self.values:
                continue        # misrouted — not ours to filter
            epoch = int(epochs.get(name, 0))
            if epoch <= self.epochs.get(name, -1):
                self.stats["dab_updates_rejected_stale_epoch"] += 1
                continue
            self.epochs[name] = epoch
            self.bounds[name] = float(bound)
            self.stats["dab_updates_applied"] += 1
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
                          ) -> List[Dict[str, Any]]:
        """Apply ``updates`` locally; return the REFRESH messages to send.

        This is the pure (transport-free) half of a tick, so tests can
        exercise the filter without any I/O.

        An item in ``_resync_pending`` is sent *unconditionally*, DAB or
        no DAB: after a reconnect, ``sent_values`` may hold a value whose
        send failed mid-flight — the filter would judge the retried value
        in-window against it and silently drop the refresh the
        coordinator never received.
        """
        messages: List[Dict[str, Any]] = []
        for item, value in updates.items():
            if item not in self.values:
                continue
            self.values[item] = float(value)
            self.stats["ticks"] += 1
            resync = item in self._resync_pending
            if not resync and not self._violates(item):
                self.stats["refreshes_filtered"] += 1
                continue
            self.seq[item] += 1
            self.sent_values[item] = self.values[item]
            messages.append(protocol.refresh(
                self.source_id, item, self.values[item], self.seq[item],
                resync=resync,
                sent_at=self.clock() if self.timestamp_refreshes else None,
            ))
            self._resync_pending.discard(item)
            self.stats["refreshes_sent"] += 1
        return messages

    async def tick(self, updates: Mapping[str, float]) -> int:
        """Programmatic tick: new values in, filtered refreshes out.

        Returns how many refreshes were actually pushed upstream."""
        messages = self.pending_refreshes(updates)
        stream = self._stream
        if messages and stream is None:
            raise TransportClosed(
                f"source {self.source_id} ticked while disconnected")
        for message in messages:
            await stream.send(message)
        return len(messages)

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
        each probed item gets an unconditional ``resync`` refresh with a
        bumped seq — the filter is bypassed exactly like the
        post-reconnect resync path.
        """
        for item in sorted(items):
            if item not in self.values:
                continue
            self.seq[item] += 1
            self.sent_values[item] = self.values[item]
            self._resync_pending.discard(item)
            await stream.send(protocol.refresh(
                self.source_id, item, self.values[item], self.seq[item],
                resync=True,
                sent_at=self.clock() if self.timestamp_refreshes else None))
            self.stats["probes_answered"] += 1
            self.stats["refreshes_sent"] += 1

    # -- trace replay ----------------------------------------------------------------

    async def replay(
        self,
        traces: "Any",
        start_step: int = 1,
        max_steps: Optional[int] = None,
        reconnect: Optional[Callable[[], "Any"]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> int:
        """Replay a :class:`~repro.dynamics.traces.TraceSet` through the
        filter; returns the number of refreshes pushed.

        ``reconnect``, if given, is an async factory returning a fresh
        connected :class:`MessageStream`; on a transport drop mid-replay
        the agent reconnects through it (re-registering, resyncing) and
        retries the step that failed — every item is then force-resent
        (``resync=True``), so a refresh whose send died on the old
        connection is re-delivered even though the local filter state had
        already recentred on it.

        ``retry_policy`` governs *repeated* reconnect failures: instead
        of one bare attempt per dropped step, the agent backs off between
        attempts (exponential + deterministic jitter) and raises
        :class:`~repro.service.resilience.RetryExhausted` once the policy
        gives up.
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
                await self._reconnect(reconnect, retry_policy)
                continue            # retry the same step after resync
            step += 1
        return sent

    async def _reconnect(self, reconnect: Callable[[], "Any"],
                         retry_policy: Optional[RetryPolicy]) -> None:
        if retry_policy is None:
            await self.connect(await reconnect())
            return

        async def _attempt() -> None:
            await self.connect(await reconnect())

        await retry_async(
            retry_policy, _attempt,
            retry_on=(TransportClosed, ConnectionError, OSError))

    async def run(self, host: str, port: int, traces: "Any",
                  max_steps: Optional[int] = None,
                  retry_policy: Optional[RetryPolicy] = None,
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
                                     reconnect=_dial,
                                     retry_policy=retry_policy)
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
