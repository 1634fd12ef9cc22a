"""The coordinator: cache, query service, recompute policy, DAB fanout.

The coordinator receives refreshes, keeps the latest value per item, and on
every refresh (a) notifies users whose query value moved beyond its QAB
since the last notification, and (b) recomputes each plan the refresh made
stale — the plan's own DAB assignment says when that is:

* a single-DAB plan (Optimal Refresh and the baselines) has no window, so
  the arriving refresh invalidates the DABs of every query that uses the
  item and each is recomputed (the behaviour Figure 5 shows to be ruinous
  at scale);
* a dual-DAB plan is recomputed only when some item left its secondary
  window;
* with an ``aao_planner`` attached — the Figure-7 AAO-T hybrid — a full
  joint AAO solve runs every ``aao_period`` ticks, window-violation
  patches with the per-query planner in between.

The planning/recomputation state machine lives in the shared
:class:`~repro.service.core.CoordinatorCore`, and the fault-side protocol
(seq dedup, staleness leases, heartbeat gaps, honest widening, DAB
ack/retry) in the shared tables of :mod:`repro.service.source_plane`; this
class is the simulator's *event-loop adapter* over both — it owns only
what is tied to simulated time and the simulated network: the busy-server
clock, Pareto message delays and fault injection, turning the tables'
effects into events.  The live asyncio service (:mod:`repro.service.server`)
wraps the very same core and tables, so the simulator's golden metrics pin
the service's planning and degradation behaviour too.

After recomputations the coordinator ships changed primary DABs to the
owning sources as DAB-change messages (one message per source notified —
the overhead μ approximates).  Every bound carries a per-item monotone
epoch so a source always lands on the newest filter even when the Pareto
network reorders two in-flight changes.

The degradation protocol (DESIGN.md §7.2) runs only under an enabled
:class:`~repro.simulation.faults.FaultModel`: the fault-free network is
the paper's last-writer-wins model, so refresh sequence numbers go
unchecked there.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence

from repro.exceptions import SimulationError
from repro.queries.polynomial import PolynomialQuery
from repro.service.core import CoordinatorCore
from repro.service.source_plane import DabRetryTable, SourceLeases
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.faults import DAB_RETRY, DISABLED, FaultModel
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import DelayModel, ZeroDelayModel

__all__ = ["Coordinator"]


class Coordinator:
    """Single-coordinator query service (the simulator's core adapter)."""

    def __init__(
        self,
        queries: Sequence[PolynomialQuery],
        planner: object,
        queue: EventQueue,
        metrics: MetricsCollector,
        initial_values: Mapping[str, float],
        item_to_source: Mapping[str, int],
        network_delay: Optional[DelayModel] = None,
        aao_planner: Optional[object] = None,
        aao_period: Optional[int] = None,
        check_delay: Optional[DelayModel] = None,
        recompute_delay: Optional[DelayModel] = None,
        rate_tracker: Optional[object] = None,
        fault_model: Optional[FaultModel] = None,
    ):
        if aao_planner is not None and (aao_period is None or aao_period < 1):
            raise SimulationError("AAO-T needs an aao_period >= 1")
        self.core = CoordinatorCore(
            queries=queries,
            planner=planner,
            metrics=metrics,
            initial_values=initial_values,
            item_to_source=item_to_source,
            aao_planner=aao_planner,
            recompute_hook=self._charge_recompute_time,
        )
        #: Ticks between joint AAO solves (AAO-T only).
        self.aao_period = aao_period
        self.queue = queue
        self.metrics = metrics
        self.network_delay = network_delay if network_delay is not None else ZeroDelayModel()
        #: Coordinator compute costs: QAB-check per refresh, GP solve per
        #: recomputation.  While the coordinator is busy, arriving
        #: refreshes queue — the load effect behind the paper's fidelity
        #: differences ("the lower the number of refreshes at C, the lesser
        #: is the computational load on C and the smaller the delay
        #: perceived by the user").
        self.check_delay = check_delay if check_delay is not None else ZeroDelayModel()
        self.recompute_delay = (recompute_delay if recompute_delay is not None
                                else ZeroDelayModel())
        self.busy_until = 0.0
        #: Optional OnlineRateTracker: refreshed rates flow into subsequent
        #: recomputations through the shared cost-model dict.
        self.rate_tracker = rate_tracker
        self.faults = fault_model if fault_model is not None else DISABLED
        self._sources: Dict[int, object] = {}
        # Seq floors, leases and DAB retries: live in fault mode only.
        config = self.faults.config
        self.leases = SourceLeases(
            self.core.item_to_source,
            lease_duration=config.lease_duration if self.faults.enabled else None,
            drift_rel=config.suspect_drift_rel, metrics=metrics)
        self.dab_retries = DabRetryTable(DAB_RETRY)

    def _charge_recompute_time(self) -> None:
        """Core recomputation hook: one solve occupies the busy server."""
        self.busy_until += self.recompute_delay.sample()

    # -- wiring ---------------------------------------------------------------------

    def attach_sources(self, sources: Iterable[object]) -> None:
        """Register source nodes for direct bootstrap and DAB fanout."""
        for source in sources:
            self._sources[source.source_id] = source

    # -- bootstrap --------------------------------------------------------------------

    def initial_plan(self) -> None:
        """Plan every query at the initial values and seed the sources'
        filters directly (time-zero configuration is assumed in place when
        the paper's observation window starts)."""
        self.core.bootstrap()
        if self.core.aao_planner is not None:
            self.queue.push(Event(float(self.aao_period),
                                  EventKind.AAO_PERIODIC))
        for source_id, source in self._sources.items():
            source.set_bounds(self.core.current_bounds_for(source_id)[0])
        if self.faults.enabled:
            # Every lease starts now, with the observation window.
            self.leases.sweep(0.0, self.core.cache)
            interval = self.faults.config.lease_check_interval
            self.queue.push(Event(interval, EventKind.LEASE_CHECK))

    # -- fanout -----------------------------------------------------------------------

    def _fanout_bound_changes(self, time: float) -> None:
        """Ship changed merged DABs to the owning sources."""
        for source_id, (bounds, epochs) in self.core.changed_bound_updates().items():
            self._send_dab_change(source_id, bounds, epochs, time)

    def _send_dab_change(self, source_id: int, bounds: Mapping[str, float],
                         epochs: Mapping[str, int], time: float) -> None:
        """Deliver one DAB-change message, subject to faults; in fault mode
        track it for ack/retry."""
        payload: Dict[str, Any] = {"source_id": source_id, "bounds": dict(bounds),
                                   "epochs": dict(epochs)}
        if self.faults.enabled:
            msg_id = self.dab_retries.track(source_id, dict(bounds),
                                            dict(epochs), time)
            payload["msg_id"] = msg_id
            self._schedule_retry_check(msg_id)
        if (self._transmit(source_id, EventKind.DAB_CHANGE_ARRIVAL, payload, time)
                and self.faults.duplicate(f"coord->src{source_id}", time)):
            self.metrics.record_message_duplicated()
            self.queue.push(Event(time + self.network_delay.sample(),
                                  EventKind.DAB_CHANGE_ARRIVAL, dict(payload)))

    def _transmit(self, source_id: int, kind: EventKind,
                  payload: Dict[str, Any], time: float) -> bool:
        """Put one message on the coordinator→source link, subject to
        faults; ``False`` if the link dropped it."""
        if self.faults.drop(f"coord->src{source_id}", time):
            self.metrics.record_message_dropped()
            return False
        delay = self.network_delay.sample() * self.faults.delay_factor(time)
        self.queue.push(Event(time + delay, kind, payload))
        return True

    def _schedule_retry_check(self, msg_id: int) -> None:
        self.queue.push(Event(self.dab_retries.outstanding[msg_id].due,
                              EventKind.RETRY_CHECK, {"msg_id": msg_id}))

    def reported_bound(self, query: PolynomialQuery, time: float) -> float:
        """The accuracy bound the coordinator honestly reports *now*: the
        query's QAB, widened for each suspect input by its response to a
        drift that grows with the item's staleness (the same widening the
        live server serves degraded queries with)."""
        return self.leases.widened_bound(query, time, self.core)

    # -- event handlers -----------------------------------------------------------------

    def on_refresh(self, event: Event) -> None:
        if event.time < self.busy_until - 1e-12:
            # The coordinator is still working through earlier arrivals; the
            # refresh waits in its input queue.  Priority -1 keeps this
            # already-arrived refresh ahead of any later event that lands on
            # exactly ``busy_until`` (FIFO service, no tie starvation).
            self.queue.push(Event(self.busy_until, EventKind.REFRESH_ARRIVAL,
                                  event.payload), priority=-1)
            return
        self.busy_until = event.time + self.check_delay.sample()
        item = event.payload["item"]
        seq = event.payload.get("seq")
        if (seq is not None and self.faults.enabled
                and not self.leases.accept((item,), (int(seq),))):
            # Sequence numbers order refresh deliveries: a duplicate or a
            # refresh that was overtaken by a newer one must not clobber
            # the cache with a stale value.  (Gated to fault mode so the
            # fault-free path is bit-identical to the original simulator.)
            return
        self.core.apply_refresh((item,), (event.payload["value"],))
        self.leases.heard(item, event.time)
        if self.faults.enabled and event.payload.get("resync"):
            self.core.clear_planner_warm_starts()
        if self.rate_tracker is not None:
            self.rate_tracker.observe(item, self.core.cache[item], event.time)

        _notifications, recomputed = self.core.react_to_refresh((item,))
        if recomputed:
            self._fanout_bound_changes(event.time)

    def on_aao_periodic(self, event: Event) -> None:
        """Full joint recomputation on the AAO-T schedule."""
        self.core.aao_replan()
        # A joint solve occupies the coordinator roughly per-query as long
        # as a single-query solve (the paper: 600-750 ms for 10 PPQs).
        self.busy_until = max(self.busy_until, event.time)
        for _ in self.core.queries:
            self.busy_until += self.recompute_delay.sample()
        self._fanout_bound_changes(event.time)
        self.queue.push(Event(event.time + self.aao_period,
                              EventKind.AAO_PERIODIC))

    def on_dab_change(self, event: Event) -> None:
        source = self._sources.get(event.payload["source_id"])
        if source is None:
            raise SimulationError(
                f"DAB change addressed to unknown source {event.payload['source_id']!r}"
            )
        source.on_dab_change(event)

    # -- fault-mode handlers -------------------------------------------------------------

    def on_dab_ack(self, event: Event) -> None:
        """A source acknowledged a DAB-change message: stop retrying it."""
        self.dab_retries.ack(event.payload["msg_id"])

    def on_retry_check(self, event: Event) -> None:
        """Retransmit a still-unacknowledged DAB-change, or give up on it
        once out of attempts, marking its items suspect (the source may
        still filter on a wider, stale bound)."""
        msg_id = event.payload["msg_id"]
        entry, resend = self.dab_retries.check(msg_id, event.time)
        if entry is None:
            return
        if not resend:
            self.metrics.record_dab_retry_exhausted()
            self.leases.mark_suspect(entry.bounds, event.time)
            return
        self.metrics.record_dab_retry()
        self._transmit(entry.source_id, EventKind.DAB_CHANGE_ARRIVAL,
                       {"source_id": entry.source_id, "bounds": dict(entry.bounds),
                        "epochs": dict(entry.epochs), "msg_id": msg_id},
                       event.time)
        self._schedule_retry_check(msg_id)

    def on_heartbeat(self, event: Event) -> None:
        """A source's liveness beacon: in-step items renew their leases;
        one the source numbers ahead of us lost refreshes, so it goes
        suspect and its value is re-requested (the source is alive, so it
        answers)."""
        # A simulated source never renumbers: a beacon numbering behind us
        # was overtaken by a newer refresh on the reordering network, and
        # vouches for the item like an in-step one.
        floor = self.leases.last_seq
        seqs = {name: max(int(seq), floor.get(name, 0))
                for name, seq in (event.payload.get("seqs") or {}).items()}
        probe, _resync = self.leases.heartbeat(event.payload["source_id"],
                                               seqs, event.time)
        for name in probe:
            self._probe(event.payload["source_id"], name, event.time)

    def on_lease_check(self, event: Event) -> None:
        """Expire leases, mark items suspect, and re-request their values."""
        time = event.time
        due = self.leases.sweep(time, self.core.cache)
        probed = {name for names in due.values() for name in names}
        # One probe per item, in item order (the network-RNG draw order).
        for name in self.core.cache:
            if name in probed:
                self._probe(self.core.item_to_source[name], name, time)
        self.queue.push(Event(time + self.faults.config.lease_check_interval,
                              EventKind.LEASE_CHECK))

    def _probe(self, source_id: int, name: str, time: float) -> None:
        """Re-request a suspect item's value from its owning source."""
        self.metrics.record_value_probe()
        self._transmit(source_id, EventKind.VALUE_PROBE_ARRIVAL,
                       {"item": name, "source_id": source_id}, time)
