"""Metrics — the paper's four evaluation quantities (Section V-A).

1. **Fidelity**: fraction of observation time each query's QAB is met at
   the coordinator; the paper reports *loss* in fidelity, averaged over
   queries.
2. **Number of refreshes**: refresh messages arriving at a coordinator.
3. **Number of recomputations**: DAB recomputations across all queries.
4. **Total cost**: ``refreshes + μ · recomputations``.

The collector also tracks quantities the paper discusses qualitatively:
DAB-change messages to sources, user notifications, and the GP-solve count
(the plans the solver rung answered rather than a Newton-KKT patch, to
separate algorithmic recomputations from actual solver work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass
class QueryFidelity:
    """Per-query in-bound time accounting."""

    in_bound_ticks: int = 0
    observed_ticks: int = 0

    def record(self, in_bound: bool) -> None:
        self.observed_ticks += 1
        if in_bound:
            self.in_bound_ticks += 1

    @property
    def fidelity(self) -> float:
        """Fraction of observed time the QAB held (1.0 when never observed)."""
        if self.observed_ticks == 0:
            return 1.0
        return self.in_bound_ticks / self.observed_ticks

    @property
    def loss_percent(self) -> float:
        return 100.0 * (1.0 - self.fidelity)


@dataclass
class SimulationMetrics:
    """Immutable summary returned by a finished run."""

    refreshes: int
    recomputations: int
    recompute_cost: float
    fidelity_loss_percent: float
    per_query_loss_percent: Dict[str, float]
    recomputations_per_query: Dict[str, int]
    dab_change_messages: int
    user_notifications: int
    gp_solves: int
    duration_ticks: int
    # -- fault-side counters (all zero on a fault-free run) ---------------------
    messages_dropped: int = 0
    messages_duplicated: int = 0
    duplicate_rejects: int = 0
    misrouted_bounds: int = 0
    dab_retries: int = 0
    dab_retry_exhausted: int = 0
    lease_expiries: int = 0
    refresh_gaps: int = 0
    value_probes: int = 0
    heartbeats: int = 0
    recovery_resyncs: int = 0
    solver_fallbacks: int = 0
    staleness_exposure_seconds: float = 0.0
    degraded_samples: int = 0
    uncertainty_violations: int = 0
    # -- recomputes of the patch-ladder stacks: patched / fell back --------------
    delta_patches: int = 0
    delta_fallbacks: int = 0

    @property
    def total_cost(self) -> float:
        """``refreshes + μ · recomputations`` — the paper's cost metric."""
        return self.refreshes + self.recompute_cost * self.recomputations

    def fault_counters(self) -> Dict[str, float]:
        """The fault-side counters as one dict (for tables / CLI output)."""
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "duplicate_rejects": self.duplicate_rejects,
            "misrouted_bounds": self.misrouted_bounds,
            "dab_retries": self.dab_retries,
            "dab_retry_exhausted": self.dab_retry_exhausted,
            "lease_expiries": self.lease_expiries,
            "refresh_gaps": self.refresh_gaps,
            "value_probes": self.value_probes,
            "heartbeats": self.heartbeats,
            "recovery_resyncs": self.recovery_resyncs,
            "solver_fallbacks": self.solver_fallbacks,
            "staleness_exposure_seconds": self.staleness_exposure_seconds,
            "degraded_samples": self.degraded_samples,
            "uncertainty_violations": self.uncertainty_violations,
        }


class MetricsCollector:
    """Mutable counters updated by the simulator components."""

    def __init__(self, recompute_cost: float):
        self.recompute_cost = recompute_cost
        self.refreshes = 0
        self.dab_change_messages = 0
        self.user_notifications = 0
        self.gp_solves = 0
        self._recomputations: Dict[str, int] = {}
        self._fidelity: Dict[str, QueryFidelity] = {}
        self._duration_ticks = 0
        # fault-side counters
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.duplicate_rejects = 0
        self.misrouted_bounds = 0
        self.dab_retries = 0
        self.dab_retry_exhausted = 0
        self.lease_expiries = 0
        self.refresh_gaps = 0
        self.value_probes = 0
        self.heartbeats = 0
        self.recovery_resyncs = 0
        self.solver_fallbacks = 0
        self.staleness_exposure_seconds = 0.0
        self.degraded_samples = 0
        self.uncertainty_violations = 0
        # delta-recompute counters
        self.delta_patches = 0
        self.delta_fallbacks = 0

    # -- recording ----------------------------------------------------------------

    def record_refresh(self, count: int = 1) -> None:
        self.refreshes += count

    def record_recomputation(self, query_name: str, count: int = 1) -> None:
        self._recomputations[query_name] = self._recomputations.get(query_name, 0) + count

    def record_dab_change_messages(self, count: int) -> None:
        self.dab_change_messages += count

    def record_user_notification(self, count: int = 1) -> None:
        self.user_notifications += count

    def record_gp_solves(self, count: int = 1) -> None:
        self.gp_solves += count

    def record_fidelity(self, query_name: str, in_bound: bool) -> None:
        self._fidelity.setdefault(query_name, QueryFidelity()).record(in_bound)

    def record_fidelity_batch(self, query_names: Sequence[str],
                              in_bound: Sequence[bool]) -> None:
        """One sample per query, recorded in one pass — equivalent to
        calling :meth:`record_fidelity` pairwise (the fidelity sampler's
        hot path)."""
        fidelity = self._fidelity
        for name, good in zip(query_names, in_bound):
            tracker = fidelity.get(name)
            if tracker is None:
                tracker = fidelity[name] = QueryFidelity()
            tracker.observed_ticks += 1
            if good:
                tracker.in_bound_ticks += 1

    def record_tick(self) -> None:
        self._duration_ticks += 1

    # -- fault-side recording ------------------------------------------------------

    def record_message_dropped(self, count: int = 1) -> None:
        self.messages_dropped += count

    def record_message_duplicated(self, count: int = 1) -> None:
        self.messages_duplicated += count

    def record_duplicate_reject(self, count: int = 1) -> None:
        self.duplicate_rejects += count

    def record_misrouted_bounds(self, count: int = 1) -> None:
        self.misrouted_bounds += count

    def record_dab_retry(self, count: int = 1) -> None:
        self.dab_retries += count

    def record_dab_retry_exhausted(self, count: int = 1) -> None:
        self.dab_retry_exhausted += count

    def record_lease_expiry(self, count: int = 1) -> None:
        self.lease_expiries += count

    def record_refresh_gap(self, count: int = 1) -> None:
        self.refresh_gaps += count

    def record_value_probe(self, count: int = 1) -> None:
        self.value_probes += count

    def record_heartbeat(self, count: int = 1) -> None:
        self.heartbeats += count

    def record_recovery_resync(self, count: int = 1) -> None:
        self.recovery_resyncs += count

    def record_solver_fallback(self, count: int = 1) -> None:
        self.solver_fallbacks += count

    def record_staleness_exposure(self, seconds: float) -> None:
        self.staleness_exposure_seconds += seconds

    def record_degraded_sample(self, count: int = 1) -> None:
        self.degraded_samples += count

    def record_uncertainty_violation(self, count: int = 1) -> None:
        self.uncertainty_violations += count

    def record_delta_recompute(self, patches: int, fallbacks: int) -> None:
        """Adopt a delta planner's patch/fallback totals (end of run)."""
        self.delta_patches += patches
        self.delta_fallbacks += fallbacks

    # -- summaries ----------------------------------------------------------------

    @property
    def recomputations(self) -> int:
        return sum(self._recomputations.values())

    def fidelity_of(self, query_name: str) -> QueryFidelity:
        return self._fidelity.setdefault(query_name, QueryFidelity())

    def mean_fidelity_loss_percent(self) -> float:
        if not self._fidelity:
            return 0.0
        losses = [f.loss_percent for f in self._fidelity.values()]
        return sum(losses) / len(losses)

    def summary(self) -> SimulationMetrics:
        return SimulationMetrics(
            refreshes=self.refreshes,
            recomputations=self.recomputations,
            recompute_cost=self.recompute_cost,
            fidelity_loss_percent=self.mean_fidelity_loss_percent(),
            per_query_loss_percent={
                name: f.loss_percent for name, f in self._fidelity.items()
            },
            recomputations_per_query=dict(self._recomputations),
            dab_change_messages=self.dab_change_messages,
            user_notifications=self.user_notifications,
            gp_solves=self.gp_solves,
            duration_ticks=self._duration_ticks,
            messages_dropped=self.messages_dropped,
            messages_duplicated=self.messages_duplicated,
            duplicate_rejects=self.duplicate_rejects,
            misrouted_bounds=self.misrouted_bounds,
            dab_retries=self.dab_retries,
            dab_retry_exhausted=self.dab_retry_exhausted,
            lease_expiries=self.lease_expiries,
            refresh_gaps=self.refresh_gaps,
            value_probes=self.value_probes,
            heartbeats=self.heartbeats,
            recovery_resyncs=self.recovery_resyncs,
            solver_fallbacks=self.solver_fallbacks,
            staleness_exposure_seconds=self.staleness_exposure_seconds,
            degraded_samples=self.degraded_samples,
            uncertainty_violations=self.uncertainty_violations,
            delta_patches=self.delta_patches,
            delta_fallbacks=self.delta_fallbacks,
        )
