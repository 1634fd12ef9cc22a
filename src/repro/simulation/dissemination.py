"""Multi-coordinator dissemination network — the Figure 8(c) substrate.

The paper builds on its earlier cooperating-repositories work (Shah et al.,
TKDE 2004) to run PPQs over a network of 10 coordinators fed by 2 sources.
We reproduce the cost structure with a two-level tree:

    sources  →  root relay  →  child coordinators (each serving a share
                                 of the queries and its own users)

* Sources push refreshes to the root under the global min primary DAB.
* The root caches values and forwards a refresh to exactly the children
  whose own merged DAB is crossed — per-child filtering, one message per
  interested child per hop.
* Each child runs the standard coordinator logic (user notifications +
  recompute policy); its DAB changes travel back through the root, which
  re-derives the global min per item and re-programs the sources.

What makes recomputation expensive here is exactly what μ models: one
child's recomputation fans out into root bookkeeping and potentially
DAB-change messages to every source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import SimulationError
from repro.dynamics.estimation import RateEstimator, estimate_rates
from repro.dynamics.models import DataDynamicsModel
from repro.dynamics.traces import TraceSet
from repro.filters.cost_model import CostModel
from repro.queries.polynomial import PolynomialQuery
from repro.simulation.coordinator import Coordinator, RecomputeMode
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event, EventKind
from repro.simulation.faults import DISABLED, FaultConfig, FaultModel
from repro.simulation.harness import (
    AlgorithmName,
    SimulationConfig,
    SimulationResult,
    _SINGLE_DAB_MODES,
    build_planner,
)
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import DelayModel, ParetoDelayModel, ZeroDelayModel
from repro.simulation.source import SourceNode, assign_items_to_sources

#: Pseudo source-ids for the root's per-child ports (child DAB changes are
#: addressed here; real sources use ids < _PORT_BASE).
_PORT_BASE = 1_000_000


@dataclass
class DisseminationConfig:
    """Figure-8(c) style run: queries spread over ``coordinator_count``
    children, items served by ``source_count`` sources."""

    queries: Sequence[PolynomialQuery]
    traces: TraceSet
    algorithm: Union[AlgorithmName, str] = AlgorithmName.DUAL_DAB
    ddm: Union[DataDynamicsModel, str] = DataDynamicsModel.MONOTONIC
    recompute_cost: float = 5.0
    duration: Optional[int] = None
    coordinator_count: int = 10
    source_count: int = 2
    seed: int = 0
    fidelity_interval: int = 5
    zero_delay: bool = False
    node_delay_mean: float = 0.110
    rate_estimator: Optional[RateEstimator] = None
    #: Fault injection on the source↔root links (loss, crashes, partitions,
    #: delay spikes, duplicates).  Root↔child forwarding shares the loss
    #: model; the ack/retry and lease machinery stay single-coordinator
    #: features for now.
    fault_config: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        self.algorithm = AlgorithmName.from_string(self.algorithm)
        self.ddm = DataDynamicsModel.from_string(self.ddm)
        if self.coordinator_count < 1:
            raise SimulationError("need at least one child coordinator")
        if not self.queries:
            raise SimulationError("at least one query is required")
        if self.duration is None:
            self.duration = self.traces.duration

    @property
    def used_items(self) -> List[str]:
        return sorted({name for q in self.queries for name in q.variables})


class _RootPort:
    """The root, seen from one child coordinator as its only 'source'."""

    def __init__(self, root: "RootRelay", child_id: int):
        self.root = root
        self.child_id = child_id
        self.source_id = _PORT_BASE + child_id

    def set_bounds(self, bounds: Mapping[str, float]) -> None:
        self.root.update_child_bounds(self.child_id, bounds, time=0.0)

    def on_dab_change(self, event: Event) -> None:
        self.root.update_child_bounds(self.child_id, event.payload["bounds"],
                                      time=event.time)


class RootRelay:
    """Caches source refreshes and forwards them per child filter."""

    def __init__(self, queue, metrics: MetricsCollector, network_delay: DelayModel,
                 initial_values: Mapping[str, float],
                 item_to_source: Mapping[str, int],
                 fault_model: Optional[FaultModel] = None):
        self.queue = queue
        self.metrics = metrics
        self.network_delay = network_delay
        self.faults = fault_model if fault_model is not None else DISABLED
        self.cache: Dict[str, float] = dict(initial_values)
        self.item_to_source = dict(item_to_source)
        #: Per-item monotone epoch for root→source DAB changes.
        self.epochs: Dict[str, int] = {}
        #: child_id -> {item: b} as last announced by that child.
        self.child_bounds: Dict[int, Dict[str, float]] = {}
        #: child_id -> {item: value} last forwarded to that child.
        self.forwarded: Dict[int, Dict[str, float]] = {}
        self._sources: Dict[int, SourceNode] = {}
        self._bootstrapped = False

    def attach_sources(self, sources: Sequence[SourceNode]) -> None:
        for source in sources:
            self._sources[source.source_id] = source

    # -- control plane -----------------------------------------------------------------

    def update_child_bounds(self, child_id: int, bounds: Mapping[str, float],
                            time: float = 0.0) -> None:
        store = self.child_bounds.setdefault(child_id, {})
        store.update({name: float(b) for name, b in bounds.items()})
        self.forwarded.setdefault(child_id, {}).update({
            name: self.cache[name] for name in bounds if name in self.cache
        })
        if self._bootstrapped:
            self._reprogram_sources(send=True, time=time)

    def bootstrap(self) -> None:
        """Push the initial global min-DABs straight into the sources."""
        self._reprogram_sources(send=False, time=0.0)
        self._bootstrapped = True

    def _global_min_bounds(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for bounds in self.child_bounds.values():
            for name, b in bounds.items():
                current = merged.get(name)
                if current is None or b < current:
                    merged[name] = b
        return merged

    def _reprogram_sources(self, send: bool, time: float) -> None:
        merged = self._global_min_bounds()
        if not send:
            for source_id, source in self._sources.items():
                source.set_bounds({name: bound for name, bound in merged.items()
                                   if self.item_to_source.get(name) == source_id})
            self._last_sent = dict(merged)
            return
        changed_by_source: Dict[int, Dict[str, float]] = {}
        last = getattr(self, "_last_sent", {})
        for name, bound in merged.items():
            previous = last.get(name)
            if previous is not None and abs(bound - previous) <= 1e-9 * previous:
                continue
            last[name] = bound
            self.epochs[name] = self.epochs.get(name, 0) + 1
            changed_by_source.setdefault(self.item_to_source[name], {})[name] = bound
        self._last_sent = last
        for source_id, bounds in changed_by_source.items():
            self.metrics.record_dab_change_messages(1)
            payload = {"source_id": source_id, "bounds": bounds,
                       "epochs": {name: self.epochs[name] for name in bounds}}
            link = f"root->src{source_id}"
            if self.faults.drop(link, time):
                self.metrics.record_message_dropped()
                continue
            delay = self.network_delay.sample() * self.faults.delay_factor(time)
            self.queue.push(Event(time=time + delay,
                                  kind=EventKind.DAB_CHANGE_ARRIVAL,
                                  payload=payload))
            if self.faults.duplicate(link, time):
                self.metrics.record_message_duplicated()
                self.queue.push(Event(time=time + self.network_delay.sample(),
                                      kind=EventKind.DAB_CHANGE_ARRIVAL,
                                      payload=dict(payload)))

    # -- data plane ---------------------------------------------------------------------

    def on_source_refresh(self, event: Event) -> None:
        item = event.payload["item"]
        value = float(event.payload["value"])
        self.cache[item] = value
        self.metrics.record_refresh()  # arrival at the root coordinator
        for child_id, bounds in self.child_bounds.items():
            bound = bounds.get(item)
            if bound is None:
                continue
            seen = self.forwarded.setdefault(child_id, {})
            last = seen.get(item, value)
            if item not in seen or abs(value - last) > bound:
                seen[item] = value
                if self.faults.drop(f"root->child{child_id}", event.time):
                    self.metrics.record_message_dropped()
                    continue
                delay = self.network_delay.sample() * self.faults.delay_factor(event.time)
                self.queue.push(Event(
                    time=event.time + delay,
                    kind=EventKind.REFRESH_ARRIVAL,
                    payload={"item": item, "value": value,
                             "source_id": event.payload["source_id"],
                             "dest": child_id},
                ))


@dataclass
class DisseminationResult:
    metrics: object
    algorithm: AlgorithmName
    coordinator_count: int


def run_dissemination(config: DisseminationConfig) -> DisseminationResult:
    """Run the two-level dissemination network and return summed metrics."""
    items = config.used_items
    rates = estimate_rates(config.traces, config.rate_estimator, items)
    cost_model = CostModel(ddm=config.ddm, rates=rates,
                           recompute_cost=config.recompute_cost)

    metrics = MetricsCollector(recompute_cost=config.recompute_cost)
    engine = SimulationEngine(config.duration, config.fidelity_interval)
    if config.zero_delay:
        network: DelayModel = ZeroDelayModel()
    else:
        network = ParetoDelayModel(config.node_delay_mean,
                                   rng=np.random.default_rng(config.seed))

    fault_model = FaultModel(config.fault_config)

    item_to_source = assign_items_to_sources(items, config.source_count)
    sources: Dict[int, SourceNode] = {}
    for source_id in sorted(set(item_to_source.values())):
        owned = [name for name in items if item_to_source[name] == source_id]
        sources[source_id] = SourceNode(source_id, owned, config.traces,
                                        engine.queue, metrics, network,
                                        fault_model=fault_model)

    initial_values = config.traces.initial_values(items)
    root = RootRelay(engine.queue, metrics, network, initial_values, item_to_source,
                     fault_model=fault_model)
    root.attach_sources(list(sources.values()))

    # Partition queries round-robin over child coordinators.
    children: Dict[int, Coordinator] = {}
    ports: Dict[int, _RootPort] = {}
    mode = _SINGLE_DAB_MODES[config.algorithm]
    if mode is RecomputeMode.AAO_PERIODIC:
        raise SimulationError("AAO-T is not part of the dissemination experiment")
    for child_id in range(config.coordinator_count):
        child_queries = [q for i, q in enumerate(config.queries)
                         if i % config.coordinator_count == child_id]
        if not child_queries:
            continue
        # Each child gets its own planner stack (its own warm starts).
        child_config = SimulationConfig(
            queries=child_queries, traces=config.traces,
            algorithm=config.algorithm, ddm=config.ddm,
            recompute_cost=config.recompute_cost, duration=config.duration,
        )
        planner = build_planner(child_config, cost_model)
        port = _RootPort(root, child_id)
        child_items = sorted({n for q in child_queries for n in q.variables})
        coordinator = Coordinator(
            queries=child_queries,
            planner=planner,
            mode=mode,
            queue=engine.queue,
            metrics=metrics,
            initial_values=initial_values,
            item_to_source={name: port.source_id for name in child_items},
            network_delay=network,
        )
        coordinator.attach_sources([port])
        children[child_id] = coordinator
        ports[port.source_id] = port

    for child in children.values():
        child.initial_plan()
    root.bootstrap()

    def route_refresh(event: Event) -> None:
        dest = event.payload.get("dest")
        if dest is None:
            root.on_source_refresh(event)
        else:
            children[dest].on_refresh(event)

    def route_dab_change(event: Event) -> None:
        source_id = event.payload["source_id"]
        if source_id >= _PORT_BASE:
            ports[source_id].on_dab_change(event)
        else:
            sources[source_id].on_dab_change(event)

    engine.on(EventKind.REFRESH_ARRIVAL, route_refresh)
    engine.on(EventKind.DAB_CHANGE_ARRIVAL, route_dab_change)
    # Sources heartbeat when faults are on; the root has no lease table,
    # so the beacons are absorbed here (counted at the sending source).
    engine.on(EventKind.HEARTBEAT_ARRIVAL, lambda _event: None)
    for source in sources.values():
        engine.on_tick(source.on_tick)
    engine.on_tick(lambda _tick: metrics.record_tick())

    traces = config.traces

    def sample_fidelity(tick: int) -> None:
        truth_values = traces.values_at(tick, items)
        for child in children.values():
            for query in child.queries:
                truth = query.evaluate(truth_values)
                observed = query.evaluate(child.cache)
                metrics.record_fidelity(query.name, abs(truth - observed) <= query.qab)

    engine.on_fidelity_sample(sample_fidelity)
    engine.run()

    return DisseminationResult(
        metrics=metrics.summary(),
        algorithm=config.algorithm,
        coordinator_count=config.coordinator_count,
    )
