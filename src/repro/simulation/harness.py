"""One-call simulation harness.

:func:`run_simulation` wires traces, sources, a coordinator and the metrics
collector into a run of the paper's evaluation loop for a chosen algorithm:

>>> config = SimulationConfig(queries=queries, traces=traces,
...                           algorithm=AlgorithmName.DUAL_DAB,
...                           recompute_cost=5.0, duration=1000)
>>> result = run_simulation(config)
>>> result.metrics.recomputations, result.metrics.refreshes

Every experiment in :mod:`repro.experiments.figures` goes through this
entry point.
"""

from __future__ import annotations

import enum
import time as _time

import numpy as np
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import SimulationError
from repro.dynamics.estimation import RateEstimator, estimate_rates
from repro.dynamics.models import DataDynamicsModel
from repro.dynamics.traces import TraceSet
from repro.filters.baselines import SharfmanStyleBaseline, UniformAllocationBaseline
from repro.filters.cost_model import CostModel
from repro.filters.delta_recompute import find_planner_stats
from repro.filters.dual_dab import DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner, HalfAndHalfPlanner
from repro.filters.multi_query import AAOPlanner
from repro.filters.optimal_refresh import OptimalRefreshPlanner
from repro.queries.polynomial import PolynomialQuery
from repro.simulation.coordinator import Coordinator
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventKind
from repro.simulation.faults import FaultConfig, FaultModel
from repro.simulation.metrics import MetricsCollector, SimulationMetrics
from repro.simulation.network import DelayModel, ParetoDelayModel, ZeroDelayModel
from repro.simulation.source import SourceNode, assign_items_to_sources

#: Coordinator compute costs (Pareto means, seconds): the per-refresh QAB
#: check (paper: 4 ms) and the solve (paper: 40-70 ms on a P4; ours ~10 ms).
CHECK_DELAY_MEAN = 0.004
RECOMPUTE_DELAY_MEAN = 0.01


class AlgorithmName(enum.Enum):
    """The DAB-assignment algorithms the evaluation compares."""

    OPTIMAL_REFRESH = "optimal_refresh"
    DUAL_DAB = "dual_dab"
    HALF_AND_HALF = "half_and_half"
    DIFFERENT_SUM = "different_sum"
    SHARFMAN_BASELINE = "sharfman_baseline"
    UNIFORM_BASELINE = "uniform_baseline"
    AAO_T = "aao_t"
    LAQ = "laq"
    SIGNOMIAL = "signomial"

    @classmethod
    def from_string(cls, value: "AlgorithmName | str") -> "AlgorithmName":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(a.value for a in cls)
            raise SimulationError(f"unknown algorithm {value!r}; expected one of {names}")


@dataclass
class SimulationConfig:
    """Everything one run needs.

    Paper-default knobs: 20 sources, ~110 ms Pareto node delays,
    monotonic ddm.  λ is the paper's whole-trace average sampled at every
    update (``rate_estimator=None``; see :mod:`repro.dynamics.estimation`
    for why not every minute).  Every recomputation plans at the item
    values the coordinator holds.
    """

    queries: Sequence[PolynomialQuery]
    traces: TraceSet
    algorithm: Union[AlgorithmName, str] = AlgorithmName.DUAL_DAB
    ddm: Union[DataDynamicsModel, str] = DataDynamicsModel.MONOTONIC
    recompute_cost: float = 1.0
    duration: Optional[int] = None
    source_count: int = 20
    seed: int = 0
    fidelity_interval: int = 1
    zero_delay: bool = False
    rate_estimator: Optional[RateEstimator] = None
    aao_period: Optional[int] = None
    split_ratio: float = 0.5
    #: When set, the coordinator tracks λ online (EWMA over refresh
    #: arrivals) and recomputations plan with the live estimates.
    adaptive_rate_alpha: Optional[float] = None
    #: When true, the planning objective weights each item's λ by its
    #: co-movement with term partners (see repro.dynamics.correlation).
    correlation_aware: bool = False
    #: Fault injection (message loss, source crashes, partitions, delay
    #: spikes, duplicates) plus the recovery-protocol knobs.  ``None`` or a
    #: default ``FaultConfig()`` leaves the fault machinery provably off —
    #: the run is bit-identical to the fault-free simulator.
    fault_config: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        self.algorithm = AlgorithmName.from_string(self.algorithm)
        self.ddm = DataDynamicsModel.from_string(self.ddm)
        if not self.queries:
            raise SimulationError("at least one query is required")
        if self.duration is None:
            self.duration = self.traces.duration
        if self.duration < 1 or self.duration > self.traces.duration:
            raise SimulationError(
                f"duration must be in [1, {self.traces.duration}], got {self.duration!r}"
            )
        if self.algorithm is AlgorithmName.AAO_T and (self.aao_period or 0) < 1:
            raise SimulationError("AAO_T requires aao_period >= 1")
        missing = [name for q in self.queries for name in q.variables
                   if name not in self.traces]
        if missing:
            raise SimulationError(f"no traces for items: {sorted(set(missing))[:5]} ...")

    @property
    def used_items(self) -> List[str]:
        return sorted({name for q in self.queries for name in q.variables})


@dataclass
class SimulationResult:
    """Metrics plus run provenance."""

    metrics: SimulationMetrics
    algorithm: AlgorithmName
    wall_seconds: float
    #: Wall time of the event loop alone (excludes workload construction,
    #: rate estimation and the time-zero initial plan) — the hot path the
    #: ticks/sec benchmarks measure.
    loop_seconds: float = 0.0
    #: For the planner stacks with a patch ladder (dual-DAB and Optimal
    #: Refresh), the recompute latency summary (percentiles in ms,
    #: patch-hit/fallback rates) from the ladder's stats.
    recompute_latency: Optional[Dict[str, float]] = None
    #: Refreshes the coordinator's per-item safe band answered / sent on
    #: to the per-query window check — how the run was computed, not what
    #: it computed, so they stay out of ``metrics`` (which the goldens pin).
    window_screen_hits: int = 0
    window_screen_misses: int = 0


def build_planner(config: SimulationConfig, cost_model: CostModel):
    """The per-query planner stack for an algorithm.

    Every stack is topped with a Different-Sum (or Half-and-Half) wrapper so
    general polynomials are handled transparently; for PPQ workloads the
    wrapper is a pass-through.
    """
    algorithm = config.algorithm
    if algorithm is AlgorithmName.OPTIMAL_REFRESH:
        return DifferentSumPlanner(cost_model, OptimalRefreshPlanner(cost_model))
    if algorithm in (AlgorithmName.DUAL_DAB, AlgorithmName.DIFFERENT_SUM,
                     AlgorithmName.AAO_T):
        return DifferentSumPlanner(cost_model, DualDABPlanner(cost_model))
    if algorithm is AlgorithmName.HALF_AND_HALF:
        return HalfAndHalfPlanner(cost_model, DualDABPlanner(cost_model),
                                  split_ratio=config.split_ratio)
    if algorithm is AlgorithmName.SHARFMAN_BASELINE:
        return SharfmanStyleBaseline(cost_model)
    if algorithm is AlgorithmName.UNIFORM_BASELINE:
        return UniformAllocationBaseline(cost_model)
    if algorithm is AlgorithmName.SIGNOMIAL:
        from repro.filters.signomial import SignomialPlanner

        return SignomialPlanner(cost_model)
    if algorithm is AlgorithmName.LAQ:
        from repro.filters.laq import LAQPlanner

        for query in config.queries:
            if not query.is_linear:
                raise SimulationError(
                    f"algorithm 'laq' handles degree-1 queries only; "
                    f"{query.name} has degree {query.degree}"
                )
        return LAQPlanner(cost_model)
    raise SimulationError(f"no planner stack for {algorithm!r}")


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run one full trace-driven simulation and return its metrics."""
    started = _time.perf_counter()
    items = config.used_items

    rates = estimate_rates(config.traces, config.rate_estimator, items)
    if config.correlation_aware:
        from repro.dynamics.correlation import (
            correlation_adjusted_rates,
            estimate_correlations,
        )

        correlations = estimate_correlations(config.traces, items=items)
        rates = correlation_adjusted_rates(rates, correlations, config.queries)
    cost_model = CostModel(ddm=config.ddm, rates=rates,
                           recompute_cost=config.recompute_cost)

    rate_tracker = None
    if config.adaptive_rate_alpha is not None:
        from repro.dynamics.correlation import OnlineRateTracker

        rate_tracker = OnlineRateTracker(cost_model.rates,
                                         alpha=config.adaptive_rate_alpha)
        # Share the dict: tracker updates flow straight into the planners.
        rate_tracker.rates = cost_model.rates

    planner = build_planner(config, cost_model)

    metrics = MetricsCollector(recompute_cost=config.recompute_cost)
    engine = SimulationEngine(config.duration, config.fidelity_interval)

    if config.zero_delay:
        network: DelayModel = ZeroDelayModel()
        check_delay: DelayModel = ZeroDelayModel()
        recompute_delay: DelayModel = ZeroDelayModel()
    else:
        root_seed = np.random.SeedSequence(entropy=config.seed)
        streams = [np.random.default_rng(s) for s in root_seed.spawn(3)]
        network = ParetoDelayModel(rng=streams[0])
        check_delay = ParetoDelayModel(CHECK_DELAY_MEAN, rng=streams[1])
        recompute_delay = ParetoDelayModel(RECOMPUTE_DELAY_MEAN, rng=streams[2])

    fault_model = FaultModel(config.fault_config)

    item_to_source = assign_items_to_sources(items, config.source_count)
    sources: Dict[int, SourceNode] = {}
    for source_id in sorted(set(item_to_source.values())):
        owned = [name for name in items if item_to_source[name] == source_id]
        sources[source_id] = SourceNode(
            source_id, owned, config.traces, engine.queue, metrics, network,
            fault_model=fault_model,
        )

    aao_planner = None
    if config.algorithm is AlgorithmName.AAO_T:
        aao_planner = AAOPlanner(cost_model)

    initial_values = config.traces.initial_values(items)
    coordinator = Coordinator(
        queries=config.queries,
        planner=planner,
        queue=engine.queue,
        metrics=metrics,
        initial_values=initial_values,
        item_to_source=item_to_source,
        network_delay=network,
        aao_planner=aao_planner,
        aao_period=config.aao_period,
        check_delay=check_delay,
        recompute_delay=recompute_delay,
        rate_tracker=rate_tracker,
        fault_model=fault_model,
    )
    coordinator.attach_sources(sources.values())
    coordinator.initial_plan()

    engine.on(EventKind.REFRESH_ARRIVAL, coordinator.on_refresh)
    engine.on(EventKind.DAB_CHANGE_ARRIVAL, coordinator.on_dab_change)
    engine.on(EventKind.AAO_PERIODIC, coordinator.on_aao_periodic)
    engine.on(EventKind.HEARTBEAT_ARRIVAL, coordinator.on_heartbeat)
    engine.on(EventKind.DAB_ACK_ARRIVAL, coordinator.on_dab_ack)
    engine.on(EventKind.RETRY_CHECK, coordinator.on_retry_check)
    engine.on(EventKind.LEASE_CHECK, coordinator.on_lease_check)
    engine.on(EventKind.VALUE_PROBE_ARRIVAL,
              lambda event: sources[event.payload["source_id"]].on_value_probe(event))
    for source in sources.values():
        engine.on_tick(source.on_tick)
    engine.on_tick(lambda _tick: metrics.record_tick())

    traces = config.traces
    queries = list(config.queries)

    faults_on = fault_model.enabled

    # Fidelity sampling: the coordinator's power table already knows every
    # (item, exponent) slot the queries need, so one slab built from the
    # traces precomputes every query's truth value at every tick, and one
    # banked evaluation per sample yields all observed values.  Slab
    # powers, compiled evaluators and the bank are bitwise-identical to
    # ``query.evaluate`` (see queries/compiled.py) — metrics cannot drift.
    truth_slab = coordinator.core.power_table.slab(traces)
    truth_matrix = np.array(
        [coordinator.core.compiled_query(query).evaluate_slab(truth_slab)
         for query in queries])
    qab_arr = np.array([query.qab for query in queries], dtype=float)
    query_names = [query.name for query in queries]
    last_row = truth_slab.shape[0] - 1

    def sample_fidelity(tick: int) -> None:
        row = tick if tick <= last_row else last_row
        truth_col = truth_matrix[:, row]
        observed = coordinator.core.query_values_array()
        errors = np.abs(truth_col - observed)
        within = errors <= qab_arr
        metrics.record_fidelity_batch(query_names, within.tolist())
        if faults_on:
            degraded = coordinator.leases.degraded_bounds(float(tick),
                                                          coordinator.core)
            for index, name in enumerate(query_names):
                reported = degraded.get(name)
                if reported is not None:
                    # Served degraded: the answer carries a widened,
                    # honest uncertainty; count it, and flag the (rare)
                    # case where even the widened bound failed to cover
                    # the truth.
                    metrics.record_degraded_sample()
                    if float(errors[index]) > reported:
                        metrics.record_uncertainty_violation()

    engine.on_fidelity_sample(sample_fidelity)
    loop_started = _time.perf_counter()
    engine.run()
    loop_seconds = _time.perf_counter() - loop_started

    recompute_latency: Optional[Dict[str, float]] = None
    stats = find_planner_stats(planner)
    if stats is not None:
        metrics.record_gp_solves(stats.multistart_solves)
        metrics.record_delta_recompute(stats.patches, stats.fallbacks)
        recompute_latency = stats.latency_summary()

    return SimulationResult(
        metrics=metrics.summary(),
        algorithm=config.algorithm,
        wall_seconds=_time.perf_counter() - started,
        loop_seconds=loop_seconds,
        recompute_latency=recompute_latency,
        window_screen_hits=coordinator.core.window_screen_hits,
        window_screen_misses=coordinator.core.window_screen_misses,
    )
