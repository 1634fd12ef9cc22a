"""Push sources.

Each :class:`SourceNode` serves a set of data items: at every tick it
samples its traces and pushes a refresh to the coordinator for each item
its :class:`~repro.service.source_plane.PushTable` says has crossed (the
paper's push model, the rule the live ``SourceAgent`` shares).  New DABs
arrive asynchronously as DAB-change messages, possibly reordered or
duplicated; the table applies the newest epoch.  The node keeps the trace
slab, its crash windows, the heartbeat timing and the event sends.

Under an enabled :class:`~repro.simulation.faults.FaultModel` the source
additionally honours crash windows (no pushes, no receipt while down,
followed by a resync push of every owned item on recovery), emits low-rate
heartbeats so the coordinator's staleness leases renew even for quiet
items, answers value probes, and acks DAB-changes so the coordinator can
retransmit lost ones.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.dynamics.traces import TraceSet
from repro.service.source_plane import PushTable
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.faults import DISABLED, FaultModel
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import DelayModel


def assign_items_to_sources(items: Sequence[str], source_count: int) -> Dict[str, int]:
    """Round-robin item→source placement (the paper's 100 items over 20
    sources)."""
    if source_count < 1:
        raise SimulationError(f"source count must be >= 1, got {source_count!r}")
    return {name: index % source_count for index, name in enumerate(items)}


class SourceNode:
    """One push source serving a subset of the items."""

    def __init__(
        self,
        source_id: int,
        items: Iterable[str],
        traces: TraceSet,
        queue: EventQueue,
        metrics: MetricsCollector,
        network_delay: DelayModel,
        fault_model: Optional[FaultModel] = None,
    ):
        self.source_id = source_id
        self.items: List[str] = list(items)
        if not self.items:
            raise SimulationError(f"source {source_id} has no items")
        self.traces = traces
        self.queue = queue
        self.metrics = metrics
        self.network_delay = network_delay
        self.faults = fault_model if fault_model is not None else DISABLED
        self._was_crashed = False
        self._uplink = f"src{source_id}->coord"
        # Hot-loop precomputation: the heartbeat period and this source's
        # crash windows are fixed for a run, so resolve them once here
        # instead of per tick.
        config = self.faults.config
        self._heartbeat_every = (
            int(max(1, round(config.heartbeat_interval)))
            if self.faults.enabled and config.heartbeat_interval > 0 else 0
        )
        self._crash_windows = tuple(
            w for w in config.crash_windows if w.source_id == source_id
        ) if self.faults.enabled else ()
        # (ticks × items) slab, row-contiguous so each tick is one view.
        self._slab = np.ascontiguousarray(traces.values_matrix(self.items).T)
        #: The push rule: centres, bounds, epochs and seqs per item.
        self.push = PushTable(self.items, self._slab[0])

    def _crashed(self, time: float) -> bool:
        """``faults.is_crashed(self.source_id, time)`` over the precomputed
        per-source windows (no string/id scan per tick)."""
        for window in self._crash_windows:
            if window.covers(time):
                return True
        return False

    # -- network -----------------------------------------------------------------

    def _send(self, time: float, kind: EventKind, payload: Dict[str, Any]) -> None:
        """Push one message towards the coordinator, subject to faults."""
        faults = self.faults
        if faults.drop(self._uplink, time):
            self.metrics.record_message_dropped()
            return
        delay = self.network_delay.sample() * faults.delay_factor(time)
        self.queue.push(Event(time=time + delay, kind=kind, payload=payload))
        if faults.duplicate(self._uplink, time):
            self.metrics.record_message_duplicated()
            self.queue.push(Event(time=time + self.network_delay.sample(),
                                  kind=kind, payload=dict(payload)))

    # -- control-plane ---------------------------------------------------------

    def set_bounds(self, bounds: Mapping[str, float],
                   epochs: Optional[Mapping[str, int]] = None) -> None:
        """Apply new primary DABs, newest epoch first; without ``epochs``
        (the bootstrap path) every bound applies.  Stale or duplicate
        deliveries are counted no-ops, and so are misrouted bounds (not
        silently ignored: the coordinator's routing is wrong)."""
        _, stale, unknown = self.push.admit(bounds, epochs)
        self.metrics.record_misrouted_bounds(unknown)
        self.metrics.record_duplicate_reject(stale)

    def on_dab_change(self, event: Event) -> None:
        """A DAB-change message arrived from the coordinator."""
        if self._crashed(event.time):
            # Delivered to a dead node: lost.  The coordinator's ack/retry
            # machinery redelivers after recovery.
            self.metrics.record_message_dropped()
            return
        self.set_bounds(event.payload["bounds"], event.payload.get("epochs"))
        msg_id = event.payload.get("msg_id")
        if msg_id is not None and self.faults.enabled:
            # Ack even a stale/duplicate message — delivery is what the
            # coordinator retries on; application is idempotent anyway.
            self._send(event.time, EventKind.DAB_ACK_ARRIVAL,
                       {"source_id": self.source_id, "msg_id": msg_id})

    def on_value_probe(self, event: Event) -> None:
        """The coordinator re-requested an item's value (lease expiry)."""
        if self._crashed(event.time):
            self.metrics.record_message_dropped()
            return
        name = event.payload["item"]
        row = self.push.index.get(name)
        if row is None:
            self.metrics.record_misrouted_bounds()
            return
        tick = min(int(event.time), self.traces.duration)
        value = self.traces[name].at(tick)
        seq, _ = self.push.take(row, value)
        self._send(event.time, EventKind.REFRESH_ARRIVAL,
                   {"item": name, "value": value, "source_id": self.source_id,
                    "seq": seq, "probe_reply": True})

    # -- data-plane --------------------------------------------------------------

    def on_tick(self, tick: int) -> None:
        """Sample traces; push refreshes for the items the table says have
        crossed: one vectorised compare over the trace slab's row.

        ``crossed`` yields ascending indices, so pushes happen in
        ``self.items`` order — the network-RNG draw order the golden
        metrics pin.  The first tick back after a crash pushes every owned
        item's current value (``resync``), so the coordinator's cache stops
        serving crash-stale data.
        """
        push = self.push
        if self.faults.enabled:
            if self._crashed(float(tick)):
                self._was_crashed = True
                return
            if self._was_crashed:
                self._was_crashed = False
                self.metrics.record_recovery_resync()
                push.resync_all()
            elif (self._heartbeat_every > 0 and tick > 0
                    and tick % self._heartbeat_every == 0):
                self.metrics.record_heartbeat()
                # The beacon carries per-item refresh sequence numbers so
                # the coordinator can tell "quiet because in-bound" apart
                # from "quiet because my refreshes were lost".
                self._send(float(tick), EventKind.HEARTBEAT_ARRIVAL,
                           {"source_id": self.source_id, "seqs": dict(push.seq)})
        values = self._slab[tick] if tick < self._slab.shape[0] else self._slab[-1]
        for index in push.crossed(values):
            value = float(values[index])
            seq, resync = push.take(index, value)
            payload = {"item": self.items[index], "value": value,
                       "source_id": self.source_id, "seq": seq}
            if resync:
                payload["resync"] = True
            self._send(float(tick), EventKind.REFRESH_ARRIVAL, payload)

    def __repr__(self) -> str:
        return f"SourceNode(id={self.source_id}, items={len(self.items)})"
