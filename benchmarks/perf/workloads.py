"""The four named workloads and the update stream the generator replays.

A workload is a *deployment* (queries, items, sources — frozen, built on
both sides from :data:`SCENARIO_SEED`) plus a *traffic mix* (tick rate,
``amp``, ``period``).  ``--seed`` draws the traffic, never the
deployment: where the ping-pong stream starts, which queries each
subscriber and the prober watch, where the churn client's rotation of
definitions starts.  Every metric is gated on its spread across seeds, and a
different query bank per seed moves the paper's message cost by ±8 %
(README, "Calibration record"), so the bank is a workload constant like
the rate.

The parameters below were calibrated once on the seed commit (README,
"Calibration record") and must never change afterwards: every later
performance claim is a delta against numbers measured with them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Seed of the frozen deployment (queries, initial values, trace shapes).
SCENARIO_SEED = 0
ITEM_COUNT = 40
SOURCE_COUNT = 4
QUERY_KIND = "portfolio"
SUBSCRIBERS = 8
#: Each subscriber watches one of this many slices of the query names, so
#: with 8 subscribers every query has exactly two watchers.
SLICES = 4
#: Names the prober subscribes to per probe.
PROBE_NAMES = 4
#: Definitions the churn client rotates through: one rotation per
#: open-loop phase at 2 registrations/s and the manifest's ``run_seconds``.
CHURN_POOL = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query_count: int
    #: Open-loop ticks per second; one tick updates every item once.
    tick_rate: int
    #: Log-return scale of the stream (1 = the scenario's own traces).
    amp: float
    #: Trace steps the ping-pong stream walks forward before turning back.
    period: int
    #: Depth of the slow common factor (0 = none); see :class:`UpdateStream`.
    drift: float = 0.0
    #: 0 = one ``CoordinatorServer``; N = an N-shard ``ClusterCoordinator``
    #: with its subscribers behind a 2-broker tier.
    shards: int = 0
    #: Churn registrations per second (``query_churn`` only).
    churn_rate: float = 0.0
    #: How long a churn client holds its dynamic query (seconds).
    churn_hold: float = 2.0

    @property
    def cycle_ticks(self) -> int:
        """Ticks in one forward-and-back sweep of the stream."""
        return 2 * self.period - 2

    def shape(self) -> Dict[str, Any]:
        """The builders' *shape* arguments — the only ones the benchmark
        may pass (no mode flag: it measures what ships)."""
        shape: Dict[str, Any] = dict(
            query_count=self.query_count, item_count=ITEM_COUNT,
            source_count=SOURCE_COUNT, trace_length=self.period + 1,
            seed=SCENARIO_SEED, workload=QUERY_KIND)
        if self.shards:
            shape["shards"] = self.shards
        return shape


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady_fanout",
        why="monitoring steady state, no DAB breaches: wire, core window "
            "checks, bank evaluation and notify fan-out do all the work, "
            "the planner none; codec/core/bank gains must show here",
        query_count=100, tick_rate=200, amp=1.0, period=101),
    Workload(
        name="breach_storm",
        why="secondary windows break several times a second: planner.plan "
            "and gp.solver dominate server CPU, solves block the loop and "
            "DAB_UPDATEs flow back to sources; idle in steady_fanout",
        query_count=40, tick_rate=25, amp=3.0, period=76, drift=0.04),
    Workload(
        name="query_churn",
        why="steady traffic plus 2 QUERY_SUB registrations/s: writes the "
            "bank and planner caches the others only read, so a faster "
            "evaluation paid for by slower add/remove_query shows here",
        query_count=100, tick_rate=100, amp=1.0, period=101,
        churn_rate=2.0),
    Workload(
        name="cluster_fanout",
        why="steady_fanout's queries through a 2-shard cluster and a "
            "2-broker tier: router, B/k recombination, shard trunks and "
            "brokers do most of the work here and none elsewhere",
        query_count=100, tick_rate=50, amp=1.0, period=26, shards=2),
)}


def ping_pong_index(step: int, period: int) -> int:
    """Trace index at ``step`` of a walk that sweeps ``0..period-1``
    forward, then back, then forward again.  Every window of
    ``2*period-2`` consecutive steps visits the same multiset of indices,
    which keeps the value distribution stationary for any run length."""
    cycle = 2 * period - 2
    position = step % cycle
    return position if position < period else cycle - position


def build_scenario(workload: Workload) -> Tuple[Any, Dict[str, int]]:
    """The generator's copy of the deployment: same shape and seed as the
    server's builder, so both sides hold identical items, initial values
    and queries (the pattern of ``repro.service.loadgen``)."""
    from repro.simulation.source import assign_items_to_sources
    from repro.workloads import scaled_scenario

    shape = workload.shape()
    scenario = scaled_scenario(
        query_count=shape["query_count"], item_count=shape["item_count"],
        trace_length=shape["trace_length"],
        source_count=shape["source_count"], query_kind=shape["workload"],
        seed=shape["seed"])
    items = sorted({name for query in scenario.queries
                    for name in query.variables})
    return scenario, assign_items_to_sources(items, shape["source_count"])


#: The common factor's triangle wave lasts this many sweeps: irrational,
#: so the (sweep position, factor) pair does not repeat within a run.
DRIFT_SWEEPS = 5 * (1 + 5 ** 0.5) / 2


class UpdateStream:
    """``x_i(k) = v0_i * (trace_i(pp(s)) / v0_i) ** amp * m(s)``, per
    source, at stream position ``s = phase + k``.

    ``amp`` scales log-returns, so one trace family gives both quiet and
    window-breaching traffic.  ``phase`` (drawn from the run's seed) is
    where in the sweep tick 0 sits; the first tick therefore jumps every
    item from its initial value to that point, which is why a run starts
    with a discarded warm-up.

    ``m(s) = 1 + drift * triangle(s)`` is a slow factor common to all
    items.  A ping-pong walk revisits every joint state twice a sweep,
    and the shipped planner caches plans keyed on (2 %-quantised) item
    values, so on the second visit a "recomputation" is a dictionary
    probe.  Live prices do not retrace their steps; a few percent of
    common drift per sweep keeps the states fresh, so ``breach_storm``
    measures the solver it is named for.  Workloads without breaches
    leave it at 0.
    """

    def __init__(self, workload: Workload, scenario: Any,
                 item_to_source: Mapping[str, int], phase: int = 0):
        self.period = workload.period
        self.cycle_ticks = workload.cycle_ticks
        self.phase = int(phase) % self.cycle_ticks
        self.drift = workload.drift
        self._drift_ticks = DRIFT_SWEEPS * self.cycle_ticks
        self.items = sorted(item_to_source)
        paths: Dict[str, np.ndarray] = {}
        for name in self.items:
            trace = scenario.traces[name].values[: self.period]
            paths[name] = trace[0] * (trace / trace[0]) ** workload.amp
        #: source id -> one ``{item: value}`` dict per trace index.
        self._by_source: Dict[int, List[Dict[str, float]]] = {}
        for source_id in sorted(set(item_to_source.values())):
            owned = [n for n in self.items if item_to_source[n] == source_id]
            self._by_source[source_id] = [
                {name: float(paths[name][index]) for name in owned}
                for index in range(self.period)]
        sweep = np.stack([paths[name] for name in self.items])
        moves = np.abs(np.diff(sweep, axis=1))
        #: Σ|Δx/x| over one full sweep (forward, then back), all items.
        #: The stream-variability denominator for message counts
        #: (PAPERS.md, "Variability in data streams").
        self.cycle_variability = float((moves / sweep[:, :-1]).sum()
                                       + (moves / sweep[:, 1:]).sum())

    def updates(self, tick: int) -> List[Tuple[int, Dict[str, float]]]:
        """``[(source_id, {item: value})]`` for tick ``tick`` (>= 0)."""
        position = self.phase + tick
        index = ping_pong_index(position, self.period)
        if not self.drift:
            return [(source_id, steps[index])
                    for source_id, steps in self._by_source.items()]
        turn = (position / self._drift_ticks) % 1.0
        factor = 1.0 + self.drift * (1.0 - abs(2.0 * turn - 1.0))
        return [(source_id, {name: value * factor
                             for name, value in steps[index].items()})
                for source_id, steps in self._by_source.items()]

    def values(self, tick: int) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for _, updates in self.updates(tick):
            merged.update(updates)
        return merged


@dataclass(frozen=True)
class TrafficPlan:
    """Everything ``--seed`` decides for one run."""

    phase: int
    #: One list of query names per subscriber.
    subscriptions: List[List[str]]
    #: Seed for the prober's name draws.
    probe_seed: int
    #: Where in the definition pool the churn client starts.
    churn_start: int


def traffic_plan(workload: Workload, query_names: Sequence[str],
                 seed: int) -> TrafficPlan:
    rng = random.Random(f"{workload.name}:{seed}")
    phase = rng.randrange(workload.cycle_ticks)
    names = sorted(query_names)
    rng.shuffle(names)
    slices = [sorted(names[i::SLICES]) for i in range(SLICES)]
    return TrafficPlan(
        phase=phase,
        subscriptions=[slices[s % SLICES] for s in range(SUBSCRIBERS)],
        probe_seed=rng.randrange(2 ** 31),
        churn_start=rng.randrange(CHURN_POOL))


def churn_definitions(scenario: Any,
                      item_to_source: Mapping[str, int]) -> List[Any]:
    """The :data:`CHURN_POOL` portfolio queries the churn client registers
    in rotation, over the items the server already serves (a definition
    naming an unknown item is a protocol error, and no operation in a
    workload may fail).  The pool is part of the frozen deployment — how
    long a registration's solve takes depends on the definition — and the
    seed only picks where the rotation starts."""
    from repro.workloads import generate_portfolio_queries

    owned = scenario.registry.subset(
        name for name in scenario.registry.names if name in item_to_source)
    return generate_portfolio_queries(
        owned, scenario.traces.initial_values(), CHURN_POOL,
        seed=SCENARIO_SEED + 1, name_prefix="dyn")
