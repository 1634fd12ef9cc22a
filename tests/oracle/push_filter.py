"""The push rule as two hand-written copies, kept as an oracle.

The simulated ``SourceNode`` and the live ``SourceAgent`` each carried
their own copy of the rule :class:`repro.service.source_plane.PushTable`
now holds once (DESIGN.md §7.2): push an item when its value has drifted
more than its DAB from the value last pushed, number the refresh and
recentre the window on it — on a tick, on a crash resync and on a probe
answer alike — and floor the numbering at a registration's seqs.  The
copies below are those bodies, verbatim but for the state they reach
(plain attributes here), the trace reads (from one slab) and the sends
(recorded, not scheduled), so ``tests/service/test_push_filter.py`` can
drive them and the shipped adapters with the same sequences.

The two copies disagreed on an item with no DAB: the node stayed silent
and the agent forwarded it.  The table keeps the agent's fail-safe.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.service.agent import Refresh
from repro.service.source_plane import admit_newest
from repro.simulation.events import Event, EventKind
from repro.simulation.faults import DISABLED, FaultModel
from repro.simulation.metrics import MetricsCollector


class NodeFilter:
    """``SourceNode.set_bounds``, ``on_value_probe``, ``on_tick`` and
    ``_resync`` over the node's own state; ``sent`` collects each
    ``(time, kind, payload)`` the node handed to its network."""

    def __init__(self, source_id: int, items: Iterable[str], slab: np.ndarray,
                 metrics: MetricsCollector,
                 fault_model: Optional[FaultModel] = None):
        self.source_id = source_id
        self.items: List[str] = list(items)
        self.metrics = metrics
        self.faults = fault_model if fault_model is not None else DISABLED
        #: (ticks × items), as the node's trace slab.
        self._slab = slab
        self.duration = slab.shape[0] - 1
        self.sent: List[Tuple[float, EventKind, Dict[str, Any]]] = []
        self.last_pushed: Dict[str, float] = {
            name: float(slab[0, i]) for i, name in enumerate(self.items)
        }
        self.bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.seq: Dict[str, int] = {name: 0 for name in self.items}
        self._was_crashed = False
        config = self.faults.config
        self._heartbeat_every = (
            int(max(1, round(config.heartbeat_interval)))
            if self.faults.enabled and config.heartbeat_interval > 0 else 0
        )
        self._crash_windows = tuple(
            w for w in config.crash_windows if w.source_id == source_id
        ) if self.faults.enabled else ()
        self._row = {name: i for i, name in enumerate(self.items)}
        self._last_arr = self._slab[0].copy()
        self._bounds_arr = np.full(len(self.items), np.inf)

    def _at(self, name: str, tick: int) -> float:
        """``traces[name].at(tick)``."""
        return float(self._slab[min(tick, self.duration), self._row[name]])

    def _crashed(self, time: float) -> bool:
        for window in self._crash_windows:
            if window.covers(time):
                return True
        return False

    def _send(self, time: float, kind: EventKind, payload: Dict[str, Any]) -> None:
        self.sent.append((time, kind, payload))

    def set_bounds(self, bounds: Mapping[str, float],
                   epochs: Optional[Mapping[str, int]] = None) -> None:
        admitted, stale, unknown = admit_newest(self.epochs, self.last_pushed,
                                                bounds, epochs)
        self.metrics.record_misrouted_bounds(unknown)
        self.metrics.record_duplicate_reject(stale)
        self.bounds.update(admitted)
        row = self._row
        for name, bound in admitted.items():
            self._bounds_arr[row[name]] = bound

    def on_value_probe(self, event: Event) -> None:
        if self._crashed(event.time):
            self.metrics.record_message_dropped()
            return
        name = event.payload["item"]
        if name not in self.last_pushed:
            self.metrics.record_misrouted_bounds()
            return
        tick = min(int(event.time), self.duration)
        value = self._at(name, tick)
        self.last_pushed[name] = value
        self._last_arr[self._row[name]] = value
        self.seq[name] += 1
        self._send(event.time, EventKind.REFRESH_ARRIVAL,
                   {"item": name, "value": value, "source_id": self.source_id,
                    "seq": self.seq[name], "probe_reply": True})

    def on_tick(self, tick: int) -> None:
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
        self.metrics.record_recovery_resync()
        for name in self.items:
            value = self._at(name, tick)
            self.last_pushed[name] = value
            self._last_arr[self._row[name]] = value
            self.seq[name] += 1
            self._send(float(tick), EventKind.REFRESH_ARRIVAL,
                       {"item": name, "value": value, "source_id": self.source_id,
                        "seq": self.seq[name], "resync": True})


class AgentFilter:
    """``SourceAgent.apply_dab_update``, ``_violates``,
    ``pending_refreshes`` and ``_take``, with the counters they kept; a
    reconnect's resync mark (``connect``) and a probe answer's refreshes
    (``_answer_probe``) as :meth:`resync_all` and :meth:`answer_probe`."""

    def __init__(self, items: Iterable[str],
                 initial_values: Mapping[str, float]):
        self.items: List[str] = sorted(items)
        self.values: Dict[str, float] = {name: float(initial_values[name])
                                         for name in self.items}
        self.sent_values: Dict[str, float] = dict(self.values)
        self.bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.seq: Dict[str, int] = {name: 0 for name in self.items}
        self._resync_pending: set = set()
        self.stats = {"ticks": 0, "refreshes_sent": 0, "refreshes_filtered": 0,
                      "dab_updates_applied": 0,
                      "dab_updates_rejected_stale_epoch": 0,
                      "probes_answered": 0}

    def apply_dab_update(self, bounds: Mapping[str, float],
                         epochs: Mapping[str, Any],
                         seqs: Optional[Mapping[str, Any]] = None) -> None:
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
            return True
        return abs(self.values[item] - self.sent_values[item]) > bound

    def pending_refreshes(self, updates: Mapping[str, float]) -> List[Refresh]:
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
        self.seq[item] += 1
        value = self.sent_values[item] = self.values[item]
        self._resync_pending.discard(item)
        self.stats["refreshes_sent"] += 1
        return Refresh(item, value, self.seq[item], resync)

    def resync_all(self) -> None:
        self._resync_pending = set(self.items)

    def answer_probe(self, items: Iterable[str]) -> List[Refresh]:
        refreshes = [self._take(item, True) for item in sorted(items)
                     if item in self.values]
        if refreshes:
            self.stats["probes_answered"] += len(refreshes)
        return refreshes
