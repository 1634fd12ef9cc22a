"""Rate-of-change (λ) estimation.

The paper (Section V, "Model of Data Dynamics"): *"We estimate the current
rate of change λ(t) by sampling the traces at fixed intervals (1 min), and
the value of λ used is the average of λ(t) over the complete trace."*

:class:`SampledRateEstimator` implements that procedure for any interval.
Its default samples every update (``interval=1``), not every 60 ticks:

* The paper's traces run ~10 000 s, so a 1-minute interval averages ~166
  differences.  Ours run 27–401 ticks (service deployments 27–102, the
  figures 201–401), where a 60-tick interval leaves 1–6 differences per
  item — one draw of a random walk, not its rate.
* Only the *shape* of λ across a query's items moves a plan: scaling every
  λ by one factor scales the refresh term and leaves the GP's optimum
  where it was.  On a 10 000-tick trace the interval-60 and interval-1
  estimates differ by a nearly uniform factor (0.11–0.14 across items), so
  per-update sampling reproduces the paper's shape.  On a 102-tick prefix
  of that trace it stays within ≈ 1.4× of the paper's shape per query,
  where interval 60 is ≈ 12× off.

``SampledRateEstimator(60)`` reproduces the paper's cadence on
paper-length traces.  :class:`UnitRateEstimator` — λ = 1 for every
item — is the alternative the paper evaluates: the "no rate information"
curves labelled ``L1`` in Figure 6.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import TraceError
from repro.dynamics.traces import Trace, TraceSet

#: Every update.  The paper's 60 (one minute of one-second ticks) leaves
#: 1–6 differences on our 27–401-tick traces; see the module docstring.
DEFAULT_SAMPLE_INTERVAL = 1


class RateEstimator(abc.ABC):
    """Maps a trace to a single λ (average absolute change per tick)."""

    @abc.abstractmethod
    def estimate(self, trace: Trace) -> float:
        """Return λ >= 0 for one trace."""

    def estimate_all(self, traces: TraceSet,
                     items: Optional[Sequence[str]] = None) -> Dict[str, float]:
        names = items if items is not None else traces.items
        return {name: self.estimate(traces[name]) for name in names}


class SampledRateEstimator(RateEstimator):
    """The paper's estimator: sample every ``interval`` ticks, average
    ``|Δvalue| / interval`` over the whole trace."""

    def __init__(self, interval: int = DEFAULT_SAMPLE_INTERVAL):
        if interval < 1:
            raise TraceError(f"sampling interval must be >= 1 tick, got {interval!r}")
        self.interval = interval

    def estimate(self, trace: Trace) -> float:
        samples = trace.values[:: self.interval]
        if samples.size < 2:
            # Trace shorter than one interval: fall back to endpoints.
            samples = trace.values[[0, -1]]
            step = trace.duration
        else:
            step = self.interval
        deltas = np.abs(np.diff(samples)) / step
        return float(np.mean(deltas))


class UnitRateEstimator(RateEstimator):
    """λ = constant (default 1) for every item — the paper's ``L1``
    configuration showing the value of rate information."""

    def __init__(self, value: float = 1.0):
        if value <= 0.0:
            raise TraceError(f"unit rate must be positive, got {value!r}")
        self.value = value

    def estimate(self, trace: Trace) -> float:
        return self.value


def estimate_rates(
    traces: TraceSet,
    estimator: Optional[RateEstimator] = None,
    items: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """λ per item — ``estimator``'s, or per-update sampling's when ``None``.

    The one place every planner stack (simulator, dissemination run,
    service and cluster shards) gets its rates from."""
    chosen = estimator if estimator is not None else SampledRateEstimator()
    return chosen.estimate_all(traces, items)
