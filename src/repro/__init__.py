"""repro — reproduction of *Handling Non-linear Polynomial Queries over
Dynamic Data* (Shah & Ramamritham, ICDE 2008).

Public API tour
---------------
Queries and accuracy bounds::

    from repro import parse_query
    query = parse_query("x*y : 5")          # the paper's running example

DAB assignment (the paper's contribution)::

    from repro import CostModel, DualDABPlanner
    model = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=5.0)
    plan = DualDABPlanner(model).plan(query, {"x": 2.0, "y": 2.0})
    plan.primary, plan.secondary             # b and c per item

Trace-driven evaluation::

    from repro import SimulationConfig, run_simulation, scaled_scenario
    scenario = scaled_scenario(query_count=20)
    result = run_simulation(SimulationConfig(
        queries=scenario.queries, traces=scenario.traces,
        algorithm="dual_dab", recompute_cost=5.0))
    result.metrics.recomputations, result.metrics.total_cost

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

from repro.exceptions import (
    FilterError,
    GPError,
    InfeasibleProblemError,
    InvalidAssignmentError,
    InvalidQueryError,
    NotPositiveCoefficientError,
    QueryError,
    QueryParseError,
    ReproError,
    SimulationError,
    SolverFailedError,
    TraceError,
)
from repro.gp import GPSolution
from repro.queries import (
    DataItem,
    ItemRegistry,
    PolynomialQuery,
    QueryTerm,
    parse_query,
)
from repro.filters import (
    AAOPlanner,
    CostModel,
    DABAssignment,
    DifferentSumPlanner,
    DualDABPlanner,
    EQIPlanner,
    HalfAndHalfPlanner,
    MultiQueryAssignment,
    OptimalRefreshPlanner,
    SharfmanStyleBaseline,
    UniformAllocationBaseline,
    assign_laq,
    merge_primary,
)
from repro.dynamics import (
    DataDynamicsModel,
    GBMTraceGenerator,
    MonotonicTraceGenerator,
    RandomWalkTraceGenerator,
    SampledRateEstimator,
    Trace,
    TraceSet,
    UnitRateEstimator,
    estimate_rates,
    generate_trace_set,
)
from repro.simulation import (
    AlgorithmName,
    DisseminationConfig,
    SimulationConfig,
    SimulationMetrics,
    SimulationResult,
    run_dissemination,
    run_simulation,
)
from repro.workloads import (
    WorkloadConfig,
    generate_arbitrage_queries,
    generate_portfolio_queries,
    paper_registry,
    paper_traces,
    scaled_scenario,
)

__version__ = "1.0.0"

__all__ = [
    # exceptions
    "ReproError", "GPError", "InfeasibleProblemError",
    "SolverFailedError", "QueryError", "QueryParseError", "InvalidQueryError",
    "FilterError", "NotPositiveCoefficientError", "InvalidAssignmentError",
    "SimulationError", "TraceError",
    # gp
    "GPSolution",
    # queries
    "DataItem", "ItemRegistry", "QueryTerm", "PolynomialQuery", "parse_query",
    # filters
    "CostModel", "DABAssignment", "MultiQueryAssignment", "merge_primary",
    "OptimalRefreshPlanner", "DualDABPlanner", "HalfAndHalfPlanner",
    "DifferentSumPlanner", "EQIPlanner", "AAOPlanner",
    "SharfmanStyleBaseline", "UniformAllocationBaseline", "assign_laq",
    # dynamics
    "DataDynamicsModel", "Trace", "TraceSet", "GBMTraceGenerator",
    "RandomWalkTraceGenerator", "MonotonicTraceGenerator",
    "SampledRateEstimator", "UnitRateEstimator", "estimate_rates",
    "generate_trace_set",
    # simulation
    "AlgorithmName", "SimulationConfig", "SimulationResult",
    "SimulationMetrics", "run_simulation", "DisseminationConfig",
    "run_dissemination",
    # workloads
    "WorkloadConfig", "generate_portfolio_queries", "generate_arbitrage_queries",
    "paper_registry", "paper_traces", "scaled_scenario",
    "__version__",
]
