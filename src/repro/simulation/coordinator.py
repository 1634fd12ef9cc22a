"""The coordinator: cache, query service, recompute policy, DAB fanout.

The coordinator receives refreshes, keeps the latest value per item, and on
every refresh (a) notifies users whose query value moved beyond its QAB
since the last notification, and (b) applies the configured *recompute
policy*:

* ``EVERY_REFRESH`` — single-DAB semantics (Optimal Refresh and the
  baselines): the arriving refresh invalidates the DABs of every query that
  uses the item, so each is recomputed (the behaviour Figure 5 shows to be
  ruinous at scale);
* ``ON_WINDOW_VIOLATION`` — dual-DAB semantics: recompute a query only
  when some item left its secondary window;
* ``AAO_PERIODIC`` — the Figure-7 AAO-T hybrid: a full joint AAO solve
  every ``T`` ticks, window-violation patches with the per-query planner in
  between.

Since PR 4 the planning/recomputation state machine lives in the shared
:class:`~repro.service.core.CoordinatorCore`; this class is the simulator's
*event-loop adapter* over it — it owns everything tied to simulated time
and the simulated network: the busy-server clock, Pareto message delays,
fault injection, reliable DAB delivery (ack/retry), staleness leases and
the honest-uncertainty degradation.  The live asyncio service
(:mod:`repro.service.server`) wraps the very same core, so the simulator's
golden metrics pin the service's planning behaviour too.

After recomputations the coordinator ships changed primary DABs to the
owning sources as DAB-change messages (one message per source notified —
the overhead μ approximates).  Every bound carries a per-item monotone
epoch so a source always lands on the newest filter even when the Pareto
network reorders two in-flight changes.

Under an enabled :class:`~repro.simulation.faults.FaultModel` the
coordinator additionally runs the degradation protocol:

* **Reliable DAB delivery** — each DAB-change message gets an id and is
  retransmitted with bounded exponential backoff until the source acks it
  (application stays idempotent thanks to the epochs).
* **Staleness leases** — an item unheard-from (refresh or heartbeat) for
  longer than the lease is marked *suspect*: the coordinator re-requests
  its value from the owning source and conservatively widens the affected
  queries' reported uncertainty (:meth:`reported_bound`) instead of
  serving silently-wrong answers.
* **Solver-failure degradation** — a runtime GP solve that raises
  (infeasible / non-convergent) falls back to the previous valid plan, or
  a uniform single-DAB allocation on cold start; the failure is counted,
  never raised out of the event loop.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.filters.assignment import DABAssignment
from repro.queries.compiled import CompiledPolynomial, PowerTable
from repro.queries.polynomial import PolynomialQuery
from repro.service.core import CoordinatorCore, RecomputeMode
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.faults import DISABLED, FaultModel
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import DelayModel, ZeroDelayModel

__all__ = ["Coordinator", "RecomputeMode"]


class Coordinator:
    """Single-coordinator query service (the simulator's core adapter)."""

    def __init__(
        self,
        queries: Sequence[PolynomialQuery],
        planner: object,
        mode: RecomputeMode,
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
        self.core = CoordinatorCore(
            queries=queries,
            planner=planner,
            mode=mode,
            metrics=metrics,
            initial_values=initial_values,
            item_to_source=item_to_source,
            aao_planner=aao_planner,
            aao_period=aao_period,
            recompute_hook=self._charge_recompute_time,
        )
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
        self.item_to_source = self.core.item_to_source
        self.faults = fault_model if fault_model is not None else DISABLED
        self._sources: Dict[int, object] = {}

        # -- reliable-delivery state (fault mode only) ------------------------
        self._msg_counter = 0
        #: msg_id -> {"source_id", "bounds", "epochs", "attempt"}
        self._outstanding: Dict[int, Dict[str, Any]] = {}
        # -- staleness leases (fault mode only) -------------------------------
        #: item -> last time a refresh/heartbeat vouched for it.
        self.last_heard: Dict[str, float] = {name: 0.0 for name in self.core.item_index}
        #: item -> highest refresh sequence number received (gap detection).
        self.last_seq: Dict[str, int] = {}
        #: item -> time it became suspect (lease expired, value re-requested).
        self.suspect_since: Dict[str, float] = {}
        #: item -> last time its staleness exposure was accumulated.
        self._exposure_accounted: Dict[str, float] = {}
        self._source_items: Dict[int, List[str]] = {}
        for name, source_id in self.item_to_source.items():
            self._source_items.setdefault(source_id, []).append(name)

    def _charge_recompute_time(self) -> None:
        """Core recomputation hook: one solve occupies the busy server."""
        self.busy_until += self.recompute_delay.sample()

    # -- core delegation ----------------------------------------------------------

    @property
    def queries(self) -> List[PolynomialQuery]:
        return self.core.queries

    @property
    def planner(self) -> object:
        return self.core.planner

    @property
    def mode(self) -> RecomputeMode:
        return self.core.mode

    @property
    def aao_planner(self) -> Optional[object]:
        return self.core.aao_planner

    @property
    def aao_period(self) -> Optional[int]:
        return self.core.aao_period

    @property
    def cache(self) -> Dict[str, float]:
        return self.core.cache

    @property
    def plans(self) -> Dict[str, DABAssignment]:
        return self.core.plans

    @property
    def last_user_values(self) -> Dict[str, float]:
        return self.core.last_user_values

    @property
    def epochs(self) -> Dict[str, int]:
        return self.core.epochs

    @property
    def item_index(self) -> Dict[str, List[PolynomialQuery]]:
        return self.core.item_index

    @property
    def power_table(self) -> PowerTable:
        """The shared (item, exponent) slot registry."""
        return self.core.power_table

    def compiled_query(self, query: PolynomialQuery) -> CompiledPolynomial:
        """The compiled evaluator for ``query``."""
        return self.core.compiled_query(query)

    def query_value(self, query: PolynomialQuery) -> float:
        return self.core.query_value(query)

    def query_values(self) -> List[float]:
        return self.core.query_values()

    def query_values_array(self) -> np.ndarray:
        return self.core.query_values_array()

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
        merged = self.core.bootstrap()
        if self.core.mode is RecomputeMode.AAO_PERIODIC:
            self.queue.push(Event(float(self.core.aao_period),
                                  EventKind.AAO_PERIODIC))
        for source_id, source in self._sources.items():
            source.set_bounds(self.core.owned_bounds(merged, source_id))
        if self.faults.enabled:
            interval = self.faults.config.lease_check_interval
            self.queue.push(Event(interval, EventKind.LEASE_CHECK))

    # -- fanout -----------------------------------------------------------------------

    def _fanout_bound_changes(self, time: float) -> None:
        """Ship changed merged DABs to the owning sources."""
        for source_id, (bounds, epochs) in self.core.changed_bound_updates().items():
            self._send_dab_change(source_id, bounds, epochs, time)

    def _send_dab_change(self, source_id: int, bounds: Mapping[str, float],
                         epochs: Mapping[str, int], time: float,
                         msg_id: Optional[int] = None) -> None:
        """Deliver one DAB-change message, subject to faults; in fault mode
        track it for ack/retry."""
        payload: Dict[str, Any] = {"source_id": source_id, "bounds": dict(bounds),
                                   "epochs": dict(epochs)}
        if self.faults.enabled:
            if msg_id is None:
                self._msg_counter += 1
                msg_id = self._msg_counter
                self._outstanding[msg_id] = {
                    "source_id": source_id, "bounds": dict(bounds),
                    "epochs": dict(epochs), "attempt": 0,
                }
            payload["msg_id"] = msg_id
            self.queue.push(Event(
                time + self.faults.config.retry_timeout, EventKind.RETRY_CHECK,
                {"msg_id": msg_id}))
        link = f"coord->src{source_id}"
        if self.faults.drop(link, time):
            self.metrics.record_message_dropped()
            return
        delay = self.network_delay.sample() * self.faults.delay_factor(time)
        self.queue.push(Event(time=time + delay, kind=EventKind.DAB_CHANGE_ARRIVAL,
                              payload=payload))
        if self.faults.duplicate(link, time):
            self.metrics.record_message_duplicated()
            self.queue.push(Event(time=time + self.network_delay.sample(),
                                  kind=EventKind.DAB_CHANGE_ARRIVAL,
                                  payload=dict(payload)))

    # -- degradation accounting ------------------------------------------------------

    def _hear_from_item(self, name: str, time: float) -> None:
        """A refresh (or probe reply) vouched for ``name``: renew its lease
        and clear any suspicion, closing the staleness-exposure interval."""
        self.last_heard[name] = time
        if name in self.suspect_since:
            accounted = self._exposure_accounted.pop(name, time)
            self.metrics.record_staleness_exposure(max(0.0, time - accounted))
            del self.suspect_since[name]

    def suspect_items_of(self, query: PolynomialQuery) -> List[str]:
        """The query's items currently marked suspect (stale leases)."""
        return [name for name in query.variables if name in self.suspect_since]

    def reported_bound(self, query: PolynomialQuery, time: float) -> float:
        """The accuracy bound the coordinator honestly reports *now*.

        With no suspect inputs this is the query's QAB.  For each suspect
        item the bound is conservatively widened by the query's response to
        an assumed drift that grows with the item's staleness — the served
        answer carries its real uncertainty instead of a silently-broken
        QAB (the degradation Condition 1 cannot cover once deliveries are
        lost).  The widening itself lives in
        ``CoordinatorCore.uncertainty_widened_bound`` so the live server
        degrades with exactly the same float math."""
        config = self.faults.config
        cache = self.core.cache
        drifts = {}
        for name in self.suspect_items_of(query):
            staleness = max(0.0, time - self.suspect_since[name])
            drifts[name] = (config.suspect_drift_rel
                            * max(abs(cache[name]), 1e-12)
                            * (1.0 + staleness / config.lease_duration))
        return self.core.uncertainty_widened_bound(query, drifts)

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
        if seq is not None and self.faults.enabled:
            # Sequence numbers order refresh deliveries: a duplicate or a
            # refresh that was overtaken by a newer one must not clobber
            # the cache with a stale value.  (Gated to fault mode so the
            # fault-free path is bit-identical to the original simulator.)
            if seq <= self.last_seq.get(item, 0):
                self.metrics.record_refresh()
                self.metrics.record_duplicate_reject()
                return
            self.last_seq[item] = int(seq)
        self.core.apply_refresh(item, float(event.payload["value"]))
        self._hear_from_item(item, event.time)
        if self.faults.enabled and event.payload.get("resync"):
            self.core.clear_planner_warm_starts()
        if self.rate_tracker is not None:
            self.rate_tracker.observe(item, self.core.cache[item], event.time)

        _notifications, recomputed = self.core.react_to_refresh(item)
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
        self.queue.push(Event(event.time + self.core.aao_period,
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
        self._outstanding.pop(event.payload["msg_id"], None)

    def on_retry_check(self, event: Event) -> None:
        """Retransmit a still-unacknowledged DAB-change with backoff."""
        msg_id = event.payload["msg_id"]
        pending = self._outstanding.get(msg_id)
        if pending is None:
            return
        config = self.faults.config
        pending["attempt"] += 1
        if pending["attempt"] > config.retry_max:
            # Give up; the epoch/lease machinery bounds the damage and the
            # next genuine DAB change supersedes these bounds anyway.
            self.metrics.record_dab_retry_exhausted()
            del self._outstanding[msg_id]
            return
        self.metrics.record_dab_retry()
        backoff = min(config.retry_cap,
                      config.retry_timeout * config.retry_backoff ** pending["attempt"])
        payload = {"source_id": pending["source_id"], "bounds": dict(pending["bounds"]),
                   "epochs": dict(pending["epochs"]), "msg_id": msg_id}
        link = f"coord->src{pending['source_id']}"
        if self.faults.drop(link, event.time):
            self.metrics.record_message_dropped()
        else:
            delay = self.network_delay.sample() * self.faults.delay_factor(event.time)
            self.queue.push(Event(event.time + delay, EventKind.DAB_CHANGE_ARRIVAL,
                                  payload))
        self.queue.push(Event(event.time + backoff, EventKind.RETRY_CHECK,
                              {"msg_id": msg_id}))

    def on_heartbeat(self, event: Event) -> None:
        """A source's liveness beacon.

        A quiet item whose sequence number matches is fresh (the push
        filter guarantees an in-bound value), so its lease renews.  A
        sequence number *ahead* of what we received means refreshes were
        lost in flight — the cache may be arbitrarily stale even though
        the source is alive — so the item goes suspect and its value is
        re-requested immediately."""
        seqs = event.payload.get("seqs") or {}
        for name in self._source_items.get(event.payload["source_id"], ()):
            if name not in self.last_heard:
                continue
            expected = seqs.get(name)
            if expected is not None and expected > self.last_seq.get(name, 0):
                if name not in self.suspect_since:
                    self.suspect_since[name] = event.time
                    self._exposure_accounted[name] = event.time
                    self.metrics.record_refresh_gap()
                    self._probe(name, event.time)
            else:
                self._hear_from_item(name, event.time)

    def on_lease_check(self, event: Event) -> None:
        """Expire leases, mark items suspect, and re-request their values."""
        config = self.faults.config
        time = event.time
        for name in self.core.item_index:
            if name in self.suspect_since:
                # Accumulate exposure since the last accounting and keep
                # probing until the source answers.
                accounted = self._exposure_accounted.get(name, self.suspect_since[name])
                self.metrics.record_staleness_exposure(max(0.0, time - accounted))
                self._exposure_accounted[name] = time
                self._probe(name, time)
            elif time - self.last_heard.get(name, 0.0) > config.lease_duration:
                self.suspect_since[name] = time
                self._exposure_accounted[name] = time
                self.metrics.record_lease_expiry()
                self._probe(name, time)
        self.queue.push(Event(time + config.lease_check_interval,
                              EventKind.LEASE_CHECK))

    def _probe(self, name: str, time: float) -> None:
        """Re-request a suspect item's value from its owning source."""
        source_id = self.item_to_source.get(name)
        if source_id is None:
            return
        self.metrics.record_value_probe()
        link = f"coord->src{source_id}"
        if self.faults.drop(link, time):
            self.metrics.record_message_dropped()
            return
        delay = self.network_delay.sample() * self.faults.delay_factor(time)
        self.queue.push(Event(time + delay, EventKind.VALUE_PROBE_ARRIVAL,
                              {"item": name, "source_id": source_id}))
