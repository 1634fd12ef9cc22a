"""Runners for every figure/table of the paper's evaluation (Section V).

Each ``run_figureN`` sweeps the paper's x-axis at a configurable scale and
returns :class:`ExperimentSeries` objects whose points carry the paper's
four metrics.  The bench targets in ``benchmarks/`` call these and print
the series; EXPERIMENTS.md records the paper-vs-measured comparison.

Scale: the paper uses 100 items / 10 000 s traces / up to 10 000 queries.
Defaults here are laptop-sized; every runner accepts the full-scale
parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dynamics.estimation import UnitRateEstimator
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import DualDABPlanner
from repro.filters.multi_query import AAOPlanner
from repro.filters.optimal_refresh import OptimalRefreshPlanner
from repro.filters.baselines import SharfmanStyleBaseline
from repro.dynamics import estimate_rates
from repro.queries.polynomial import PolynomialQuery
from repro.simulation.dissemination import DisseminationConfig, run_dissemination
from repro.simulation.harness import AlgorithmName, SimulationConfig, run_simulation
from repro.workloads.scenarios import PaperScenario, scaled_scenario


@dataclass
class ExperimentPoint:
    """One (x, metrics) sample of a series."""

    x: float
    refreshes: int
    recomputations: int
    fidelity_loss_percent: float
    total_cost: float
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentSeries:
    """A labelled curve, e.g. ``Dual-DAB, mu=5``."""

    label: str
    points: List[ExperimentPoint] = field(default_factory=list)

    def metric(self, name: str) -> List[Tuple[float, float]]:
        return [(p.x, getattr(p, name)) for p in self.points]


def _point_config(scenario: PaperScenario, queries: Sequence[PolynomialQuery],
                  algorithm: AlgorithmName, mu: float, duration: int,
                  seed: int, **overrides) -> SimulationConfig:
    return SimulationConfig(
        queries=queries,
        traces=scenario.traces,
        algorithm=algorithm,
        recompute_cost=mu,
        duration=duration,
        source_count=scenario.source_count,
        seed=seed,
        fidelity_interval=overrides.pop("fidelity_interval", 5),
        **overrides,
    )


def _point_from_result(x: float, result) -> ExperimentPoint:
    m = result.metrics
    return ExperimentPoint(
        x=x,
        refreshes=m.refreshes,
        recomputations=m.recomputations,
        fidelity_loss_percent=m.fidelity_loss_percent,
        total_cost=m.total_cost,
        extra={"gp_solves": m.gp_solves, "wall_seconds": result.wall_seconds},
    )


def _run_point(scenario: PaperScenario, queries: Sequence[PolynomialQuery],
               algorithm: AlgorithmName, mu: float, duration: int,
               seed: int, **overrides) -> ExperimentPoint:
    config = _point_config(scenario, queries, algorithm, mu, duration, seed,
                           **overrides)
    return _point_from_result(len(queries), run_simulation(config))


def _run_plan(plan, jobs: Optional[int]) -> None:
    """Run a list of ``(series, x, config)`` entries — in parallel when
    ``jobs`` asks for it — and append the points in plan order.

    Every run's randomness is derived from its config alone, so the
    parallel fan-out is bit-identical to the serial loop (see
    ``repro.experiments.sweeps``).
    """
    from repro.experiments.sweeps import run_configs

    results = run_configs([config for _, _, config in plan], jobs=jobs)
    for (curve, x, _), result in zip(plan, results):
        curve.points.append(_point_from_result(x, result))


# ---------------------------------------------------------------------------
# Figure 5 — PPQs: Dual-DAB vs Optimal Refresh across mu and #queries
# ---------------------------------------------------------------------------

def run_figure5(
    query_counts: Sequence[int] = (10, 20, 40),
    mus: Sequence[float] = (1.0, 5.0, 10.0),
    item_count: int = 40,
    trace_length: int = 401,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[ExperimentSeries]:
    """Fig. 5(a/b/c): recomputations, refreshes and fidelity loss vs number
    of portfolio PPQs, for Optimal Refresh and Dual-DAB at several μ.

    (Paper scale: query_counts 200..1000, item_count 100,
    trace_length 10_001.)
    """
    scenario = scaled_scenario(max(query_counts), item_count=item_count,
                               trace_length=trace_length, seed=seed)
    duration = trace_length - 1
    series: List[ExperimentSeries] = [ExperimentSeries("Optimal Refresh")]
    plan = []
    for count in query_counts:
        queries = scenario.queries[:count]
        plan.append((series[0], count,
                     _point_config(scenario, queries,
                                   AlgorithmName.OPTIMAL_REFRESH,
                                   mu=1.0, duration=duration, seed=seed)))
    for mu in mus:
        curve = ExperimentSeries(f"Dual-DAB, mu={mu:g}")
        for count in query_counts:
            queries = scenario.queries[:count]
            plan.append((curve, count,
                         _point_config(scenario, queries,
                                       AlgorithmName.DUAL_DAB,
                                       mu=mu, duration=duration, seed=seed)))
        series.append(curve)
    _run_plan(plan, jobs)
    # Total cost for a series is evaluated at that series' own mu; for the
    # Optimal Refresh curve re-evaluate per mu for fair Fig-6(c)-style use.
    return series


# ---------------------------------------------------------------------------
# Figure 6 — effect of the data dynamics model (mono / random walk / λ=1)
# ---------------------------------------------------------------------------

def run_figure6(
    query_counts: Sequence[int] = (10, 20, 40),
    mus: Sequence[float] = (1.0, 5.0),
    item_count: int = 40,
    trace_length: int = 401,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[ExperimentSeries]:
    """Fig. 6(a/b/c): Dual-DAB under the monotonic vs random-walk ddm vs
    no rate information (λ=1), over the same GBM traces."""
    scenario = scaled_scenario(max(query_counts), item_count=item_count,
                               trace_length=trace_length, seed=seed)
    duration = trace_length - 1
    variants = []
    for mu in mus:
        variants.append((f"Mono, mu={mu:g}", dict(ddm="monotonic"), mu))
        variants.append((f"Random, mu={mu:g}", dict(ddm="random_walk"), mu))
    variants.append((f"L1, mu={mus[-1]:g}",
                     dict(ddm="monotonic", rate_estimator=UnitRateEstimator()),
                     mus[-1]))
    series = []
    plan = []
    for label, overrides, mu in variants:
        curve = ExperimentSeries(label)
        for count in query_counts:
            queries = scenario.queries[:count]
            plan.append((curve, count,
                         _point_config(scenario, queries, AlgorithmName.DUAL_DAB,
                                       mu=mu, duration=duration, seed=seed,
                                       **overrides)))
        series.append(curve)
    _run_plan(plan, jobs)
    return series


# ---------------------------------------------------------------------------
# Figure 7 — EQI vs AAO-T for a small query set, sweeping mu
# ---------------------------------------------------------------------------

def run_figure7(
    mus: Sequence[float] = (1.0, 2.0, 5.0, 10.0),
    periods: Sequence[int] = (30, 120, 600),
    query_count: int = 10,
    item_count: int = 40,
    trace_length: int = 401,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[ExperimentSeries]:
    """Fig. 7(a/b/c): refreshes, recomputations and total cost vs μ for EQI
    and AAO-T at several recomputation periods T (paper: T=30..1500 over
    4000 s PlanetLab traces)."""
    scenario = scaled_scenario(query_count, item_count=item_count,
                               trace_length=trace_length, seed=seed)
    duration = trace_length - 1
    queries = scenario.queries
    series = [ExperimentSeries("EQI")]
    plan = []
    for mu in mus:
        plan.append((series[0], mu,
                     _point_config(scenario, queries, AlgorithmName.DUAL_DAB,
                                   mu=mu, duration=duration, seed=seed)))
    for period in periods:
        curve = ExperimentSeries(f"AAO-{period}")
        for mu in mus:
            plan.append((curve, mu,
                         _point_config(scenario, queries, AlgorithmName.AAO_T,
                                       mu=mu, duration=duration, seed=seed,
                                       aao_period=period)))
        series.append(curve)
    _run_plan(plan, jobs)
    return series


# ---------------------------------------------------------------------------
# Figure 8(a/b) — general PQs: Half-and-Half vs Different Sum
# ---------------------------------------------------------------------------

def run_figure8ab(
    query_counts: Sequence[int] = (5, 10, 20),
    mus: Sequence[float] = (1.0, 5.0),
    dependent: bool = False,
    item_count: int = 40,
    trace_length: int = 401,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[ExperimentSeries]:
    """Fig. 8(a) independent / 8(b) dependent arbitrage PQs: number of
    recomputations for HH vs DS across μ."""
    from repro.workloads.generator import WorkloadConfig

    workload = WorkloadConfig(shared_item_probability=0.8 if dependent else 0.0)
    scenario = scaled_scenario(max(query_counts), item_count=item_count,
                               trace_length=trace_length, seed=seed,
                               query_kind="arbitrage", workload=workload)
    duration = trace_length - 1
    series = []
    plan = []
    for algorithm, tag in ((AlgorithmName.HALF_AND_HALF, "HH"),
                           (AlgorithmName.DIFFERENT_SUM, "DS")):
        for mu in mus:
            curve = ExperimentSeries(f"{tag}, mu={mu:g}")
            for count in query_counts:
                queries = scenario.queries[:count]
                plan.append((curve, count,
                             _point_config(scenario, queries, algorithm,
                                           mu=mu, duration=duration, seed=seed)))
            series.append(curve)
    _run_plan(plan, jobs)
    return series


# ---------------------------------------------------------------------------
# Figure 8(c) — dissemination network, Dual-DAB vs WSDAB baseline
# ---------------------------------------------------------------------------

def run_figure8c(
    query_counts: Sequence[int] = (10, 40),
    mu: float = 5.0,
    coordinator_count: int = 10,
    source_count: int = 2,
    item_count: int = 40,
    trace_length: int = 401,
    seed: int = 0,
) -> List[ExperimentSeries]:
    """Fig. 8(c): recomputations on a 10-coordinator dissemination network
    for Dual-DAB vs the recompute-per-refresh WSDAB baseline (paper:
    604 735 recomputations for WSDAB at 10 000 queries)."""
    scenario = scaled_scenario(max(query_counts), item_count=item_count,
                               trace_length=trace_length, seed=seed)
    duration = trace_length - 1
    series = []
    for algorithm, label in ((AlgorithmName.DUAL_DAB, "Dual-DAB"),
                             (AlgorithmName.SHARFMAN_BASELINE, "WSDAB")):
        curve = ExperimentSeries(label)
        for count in query_counts:
            config = DisseminationConfig(
                queries=scenario.queries[:count], traces=scenario.traces,
                algorithm=algorithm, recompute_cost=mu, duration=duration,
                coordinator_count=coordinator_count, source_count=source_count,
                seed=seed,
            )
            result = run_dissemination(config)
            m = result.metrics
            curve.points.append(ExperimentPoint(
                x=count, refreshes=m.refreshes, recomputations=m.recomputations,
                fidelity_loss_percent=m.fidelity_loss_percent,
                total_cost=m.total_cost,
            ))
        series.append(curve)
    return series


# ---------------------------------------------------------------------------
# Section V tables: comparison with [5] and solver timings
# ---------------------------------------------------------------------------

def run_sharfman_comparison(
    scale: float = 1.0,
    seed: int = 0,
    rate_skews: Sequence[float] = (1.0, 4.0, 10.0),
) -> List[Dict[str, float]]:
    """The Section-V comparison with [5]: per-item sufficient conditions
    produce more stringent DABs (⇒ more refreshes) than Optimal Refresh's
    single necessary-and-sufficient condition; the gap widens with
    rate-of-change skew."""
    from repro.queries.polynomial import PolynomialQuery

    query = PolynomialQuery.product(50.0 * scale, "x", "y", name="comparison")
    values = {"x": 40.0, "y": 20.0}
    rows = []
    for skew in rate_skews:
        cost_model = CostModel(rates={"x": skew, "y": 1.0})
        optimal = OptimalRefreshPlanner(cost_model).plan(query, values)
        baseline = SharfmanStyleBaseline(cost_model).plan(query, values)
        rows.append({
            "rate_skew": skew,
            "optimal_bx": optimal.primary["x"],
            "optimal_by": optimal.primary["y"],
            "baseline_bx": baseline.primary["x"],
            "baseline_by": baseline.primary["y"],
            "optimal_refresh_rate": cost_model.estimated_refresh_rate(optimal.primary),
            "baseline_refresh_rate": cost_model.estimated_refresh_rate(baseline.primary),
        })
    return rows


def run_signomial_comparison(
    query_count: int = 8,
    item_count: int = 40,
    trace_length: int = 201,
    recompute_cost: float = 5.0,
    seed: int = 61,
) -> List[Dict[str, float]]:
    """Extension table: the exact-condition signomial planner vs the
    paper's two heuristics, per arbitrage query (estimated message-rate
    objective; see EXPERIMENTS.md 'Extension — signomial planner')."""
    from repro.filters.heuristics import HalfAndHalfPlanner
    from repro.filters.signomial import SignomialPlanner
    from repro.filters.heuristics import DifferentSumPlanner
    from repro.queries.signed import mixed_worst_deviation

    scenario = scaled_scenario(query_count, item_count=item_count,
                               trace_length=trace_length,
                               query_kind="arbitrage", seed=seed)
    values = scenario.initial_values
    model = CostModel(rates=estimate_rates(scenario.traces),
                      recompute_cost=recompute_cost)
    rows = []
    for query in scenario.queries:
        hh = HalfAndHalfPlanner(model).plan(query, values)
        ds = DifferentSumPlanner(model).plan(query, values)
        planner = SignomialPlanner(model)
        sp = planner.plan(query, values)
        deviation = mixed_worst_deviation(query.terms, values,
                                          sp.primary, sp.secondary)
        rows.append({
            "query": query.name,
            "HH_objective": hh.objective,
            "DS_objective": ds.objective,
            "SP_objective": sp.objective,
            "SP_vs_DS_saving_%": 100.0 * (1.0 - sp.objective / ds.objective),
            "SP_iterations": planner.last_trace.iterations,
            "SP_budget_used_%": 100.0 * deviation / query.qab,
        })
    return rows


def run_solver_timing(
    query_count: int = 10,
    item_count: int = 40,
    trace_length: int = 201,
    repetitions: int = 5,
    seed: int = 0,
) -> Dict[str, float]:
    """The paper's solver-cost table: per-PPQ Dual-DAB solve time (paper:
    40-70 ms), cold and warm-started from the previous optimum, on the
    query's compiled template; the plan the Dual-DAB planner makes of a
    query it has no optimum for (its linear-anchor patch); and the joint
    AAO solve for ``query_count`` PPQs (paper: 600-750 ms for 10)."""
    scenario = scaled_scenario(query_count, item_count=item_count,
                               trace_length=trace_length, seed=seed)
    values = scenario.initial_values
    rates = estimate_rates(scenario.traces)
    cost_model = CostModel(rates=rates, recompute_cost=5.0)

    query = scenario.queries[0]
    template = CompiledDualDabTemplate(query, values, cost_model)
    started = time.perf_counter()
    for _ in range(repetitions):
        solution = template.solve(values)
    dual_cold_ms = 1000.0 * (time.perf_counter() - started) / repetitions

    started = time.perf_counter()
    for _ in range(repetitions):
        solution = template.solve(values, initial=solution.values)
    dual_warm_ms = 1000.0 * (time.perf_counter() - started) / repetitions

    dual = DualDABPlanner(cost_model)
    started = time.perf_counter()
    for _ in range(repetitions):
        dual.clear_warm_starts()
        dual.plan(query, values)
    dual_plan_ms = 1000.0 * (time.perf_counter() - started) / repetitions

    aao = AAOPlanner(cost_model)
    started = time.perf_counter()
    aao.plan_all(scenario.queries, values)
    aao_ms = 1000.0 * (time.perf_counter() - started)

    return {
        "dual_dab_cold_ms": dual_cold_ms,
        "dual_dab_warm_ms": dual_warm_ms,
        "dual_dab_plan_ms": dual_plan_ms,
        f"aao_{query_count}_queries_ms": aao_ms,
    }
