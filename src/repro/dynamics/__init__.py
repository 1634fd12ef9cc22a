"""Data dynamics: models, synthetic traces and rate-of-change estimation.

The paper drives its evaluation with real stock traces from Yahoo! Finance
(100 items, ~10 000 s).  Those traces are not redistributable, so
:mod:`repro.dynamics.traces` generates the closest synthetic equivalents —
geometric-random-walk "stock-like" traces plus the two idealised models the
formulations assume (monotonic drift and arithmetic random walk).  The
algorithms only consume the current value and a sampled rate-of-change
estimate, both of which the synthetic traces exercise identically.

:mod:`repro.dynamics.estimation` implements the paper's λ estimation: sample
the trace at fixed intervals and average ``|Δvalue| / Δt`` over the trace —
every update by default, where the paper's ~10 000 s traces afford 1 minute.
"""

from repro.dynamics.models import DataDynamicsModel, refresh_rate, refresh_rate_monomial
from repro.dynamics.traces import (
    Trace,
    TraceSet,
    GBMTraceGenerator,
    MonotonicTraceGenerator,
    RandomWalkTraceGenerator,
    generate_trace_set,
)
from repro.dynamics.estimation import (
    RateEstimator,
    SampledRateEstimator,
    EwmaRateEstimator,
    UnitRateEstimator,
    estimate_rates,
)
from repro.dynamics.correlation import (
    CorrelationMatrix,
    OnlineRateTracker,
    correlation_adjusted_rates,
    estimate_correlations,
)

__all__ = [
    "DataDynamicsModel",
    "refresh_rate",
    "refresh_rate_monomial",
    "Trace",
    "TraceSet",
    "GBMTraceGenerator",
    "MonotonicTraceGenerator",
    "RandomWalkTraceGenerator",
    "generate_trace_set",
    "RateEstimator",
    "SampledRateEstimator",
    "EwmaRateEstimator",
    "UnitRateEstimator",
    "estimate_rates",
    "CorrelationMatrix",
    "OnlineRateTracker",
    "correlation_adjusted_rates",
    "estimate_correlations",
]
