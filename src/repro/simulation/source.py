"""Push sources.

Each :class:`SourceNode` serves a set of data items: at every tick it
samples its traces and pushes a refresh to the coordinator whenever a value
has drifted more than the item's *primary* DAB from the last pushed value
(the paper's push model: with value 5 and ``b = 1``, the next refresh fires
when the source value leaves ``[4, 6]``).  New DABs arrive asynchronously
as DAB-change messages.

Because DAB-change messages travel over the same heavy-tailed network as
refreshes, two changes for one item can arrive out of order.  Every bound
therefore carries a per-item monotone *epoch*; a source applies a bound
only if its epoch is newer than the one it holds, so the source always
ends on the newest filter regardless of arrival order (and duplicate or
retransmitted messages are idempotent).

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
        #: Last value pushed (and acknowledged as the filter centre).
        self.last_pushed: Dict[str, float] = {
            name: traces[name].at(0) for name in self.items
        }
        #: Current primary DABs; items without a bound push every change.
        self.bounds: Dict[str, float] = {}
        #: Highest DAB epoch applied per item (reorder/duplicate guard).
        self.epochs: Dict[str, int] = {}
        #: Per-item refresh sequence numbers; heartbeats carry them so the
        #: coordinator can detect lost refreshes as sequence gaps.
        self.seq: Dict[str, int] = {name: 0 for name in self.items}
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
        # (ticks × items) slab, row-contiguous so each tick is one view;
        # plus array mirrors of last_pushed/bounds for the vector compare.
        self._slab = np.ascontiguousarray(traces.values_matrix(self.items).T)
        self._row = {name: i for i, name in enumerate(self.items)}
        self._last_arr = self._slab[0].copy()
        self._bounds_arr = np.full(len(self.items), np.inf)

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
        """Apply new primary DABs; reject unknown items and stale epochs.

        Without ``epochs`` (the bootstrap path) bounds apply
        unconditionally.  With ``epochs`` an item's bound is applied only
        when its epoch is strictly newer than the last applied one —
        stale-reorder and duplicate deliveries become counted no-ops.
        """
        for name, value in bounds.items():
            if name not in self.last_pushed:
                # A misrouted payload: surface it instead of silently
                # ignoring it — the coordinator's routing is wrong.
                self.metrics.record_misrouted_bounds()
                continue
            if epochs is not None:
                epoch = epochs.get(name)
                if epoch is not None and epoch <= self.epochs.get(name, -1):
                    self.metrics.record_duplicate_reject()
                    continue
                if epoch is not None:
                    self.epochs[name] = int(epoch)
            self.bounds[name] = float(value)
            self._bounds_arr[self._row[name]] = self.bounds[name]

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
        if name not in self.last_pushed:
            self.metrics.record_misrouted_bounds()
            return
        tick = min(int(event.time), self.traces.duration)
        value = self.traces[name].at(tick)
        self.last_pushed[name] = value
        self._last_arr[self._row[name]] = value
        self.seq[name] += 1
        self._send(event.time, EventKind.REFRESH_ARRIVAL,
                   {"item": name, "value": value, "source_id": self.source_id,
                    "seq": self.seq[name], "probe_reply": True})

    # -- data-plane --------------------------------------------------------------

    def on_tick(self, tick: int) -> None:
        """Sample traces; push refreshes for items outside their filter:
        one vector compare ``|value - cached| > dab`` over the trace slab.

        Items without a DAB hold ``inf`` in the bounds array, so the strict
        ``>`` never fires for them (finite traces): no DAB yet means stay
        silent — the coordinator planned against the same initial values,
        so nothing is stale.  ``flatnonzero`` yields ascending indices, so
        pushes happen in ``self.items`` order — the network-RNG draw order
        the golden metrics pin.
        """
        if self.faults.enabled:
            if self._crashed(float(tick)):
                self._was_crashed = True
                return
            if self._was_crashed:
                self._was_crashed = False
                self._resync(tick)
                return
            if (self._heartbeat_every > 0 and tick > 0
                    and tick % self._heartbeat_every == 0):
                self.metrics.record_heartbeat()
                # The beacon carries per-item refresh sequence numbers so
                # the coordinator can tell "quiet because in-bound" apart
                # from "quiet because my refreshes were lost".
                self._send(float(tick), EventKind.HEARTBEAT_ARRIVAL,
                           {"source_id": self.source_id, "seqs": dict(self.seq)})
        values = self._slab[tick] if tick < self._slab.shape[0] else self._slab[-1]
        crossed = np.flatnonzero(np.abs(values - self._last_arr) > self._bounds_arr)
        if crossed.size == 0:
            return
        for index in crossed.tolist():
            name = self.items[index]
            value = float(values[index])
            self._last_arr[index] = value
            self.last_pushed[name] = value
            self.seq[name] += 1
            self._send(float(tick), EventKind.REFRESH_ARRIVAL,
                       {"item": name, "value": value,
                        "source_id": self.source_id, "seq": self.seq[name]})

    def _resync(self, tick: int) -> None:
        """First tick back after a crash: push every owned item's current
        value so the coordinator's cache stops serving crash-stale data."""
        self.metrics.record_recovery_resync()
        for name in self.items:
            value = self.traces[name].at(tick)
            self.last_pushed[name] = value
            self._last_arr[self._row[name]] = value
            self.seq[name] += 1
            self._send(float(tick), EventKind.REFRESH_ARRIVAL,
                       {"item": name, "value": value, "source_id": self.source_id,
                        "seq": self.seq[name], "resync": True})

    def __repr__(self) -> str:
        return f"SourceNode(id={self.source_id}, items={len(self.items)})"
