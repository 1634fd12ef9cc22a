"""Synthetic traces standing in for the paper's stock-price recordings.

A :class:`Trace` is a positive time series sampled at unit ticks.  Three
generators are provided:

* :class:`GBMTraceGenerator` — geometric Brownian motion, the standard
  "looks like a stock price" model; the default substitute for the Yahoo!
  Finance traces the paper downloaded (see DESIGN.md §2).
* :class:`RandomWalkTraceGenerator` — arithmetic random walk, the ddm
  behind the paper's Section III-A.5 formulation.
* :class:`MonotonicTraceGenerator` — piecewise-monotonic drift with
  occasional direction flips, matching the Section III-A.1 model while
  still exercising DAB crossings in both directions.

All traces are clamped to a positive floor: the GP formulation requires
positive item values, and prices/rates/coordinates in the paper's workloads
are positive by nature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TraceError
from repro.queries.items import ItemRegistry

#: Values are clamped to ``initial * _FLOOR_FRACTION`` from below.
_FLOOR_FRACTION = 0.05


@dataclass(frozen=True)
class Trace:
    """One item's positive time series at unit-tick resolution."""

    item: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise TraceError(f"trace for {self.item!r} must be a 1-D series of >= 2 points")
        if not np.all(np.isfinite(values)):
            raise TraceError(f"trace for {self.item!r} contains non-finite values")
        if np.any(values <= 0.0):
            raise TraceError(
                f"trace for {self.item!r} contains non-positive values; the GP "
                "formulation requires positive data"
            )
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration(self) -> int:
        """Number of ticks covered (len - 1)."""
        return self.values.size - 1

    @property
    def initial(self) -> float:
        return float(self.values[0])

    def at(self, tick: int) -> float:
        """Value at an integer tick; the series is held constant past its end."""
        if tick < 0:
            raise TraceError(f"tick must be >= 0, got {tick}")
        index = min(tick, self.values.size - 1)
        return float(self.values[index])

    def segment(self, start: int, stop: int) -> np.ndarray:
        return self.values[start:stop]


class TraceSet:
    """Traces for a whole item population, all the same length."""

    def __init__(self, traces: Iterable[Trace]):
        self._traces: Dict[str, Trace] = {}
        length: Optional[int] = None
        for trace in traces:
            if trace.item in self._traces:
                raise TraceError(f"duplicate trace for item {trace.item!r}")
            if length is None:
                length = len(trace)
            elif len(trace) != length:
                raise TraceError(
                    f"trace for {trace.item!r} has length {len(trace)}, expected {length}"
                )
            self._traces[trace.item] = trace
        if not self._traces:
            raise TraceError("a TraceSet needs at least one trace")
        self._length = length or 0

    def __getitem__(self, item: str) -> Trace:
        try:
            return self._traces[item]
        except KeyError:
            raise KeyError(f"no trace for data item {item!r}") from None

    def __contains__(self, item: str) -> bool:
        return item in self._traces

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces.values())

    def __len__(self) -> int:
        return len(self._traces)

    @property
    def items(self) -> List[str]:
        return list(self._traces)

    @property
    def duration(self) -> int:
        return self._length - 1

    def values_at(self, tick: int, items: Optional[Sequence[str]] = None) -> Dict[str, float]:
        names = items if items is not None else self.items
        return {name: self[name].at(tick) for name in names}

    def values_matrix(self, items: Optional[Sequence[str]] = None) -> np.ndarray:
        """``(items × ticks)`` slab stacking the requested traces.

        Row ``i`` is a bitwise copy of ``self[items[i]].values`` — the batch
        API the source tick loop scans instead of calling the reference
        sampler :meth:`Trace.at` item by item.
        """
        names = items if items is not None else self.items
        if not names:
            raise TraceError("values_matrix needs at least one item")
        return np.stack([self[name].values for name in names])

    def initial_values(self, items: Optional[Sequence[str]] = None) -> Dict[str, float]:
        return self.values_at(0, items)


def _clamp_positive(values: np.ndarray, initial: float) -> np.ndarray:
    floor = max(initial * _FLOOR_FRACTION, 1e-9)
    return np.maximum(values, floor)


class GBMTraceGenerator:
    """Geometric Brownian motion: ``V[t+1] = V[t] * exp(mu + sigma * N(0,1))``.

    Defaults give intraday-stock-like jitter: ~0.2% per-tick volatility and
    negligible drift, over initial prices drawn uniformly from
    ``initial_range`` (the paper's portfolios weight items 1–100, so price
    scales vary per item).
    """

    def __init__(self, *, volatility: float = 0.002, drift: float = 0.0,
                 initial_range: Tuple[float, float] = (20.0, 200.0),
                 volatility_range: Optional[Tuple[float, float]] = None):
        if volatility < 0.0:
            raise TraceError(f"volatility must be >= 0, got {volatility!r}")
        if initial_range[0] <= 0.0 or initial_range[1] < initial_range[0]:
            raise TraceError(f"bad initial range {initial_range!r}")
        if volatility_range is not None and (
                volatility_range[0] < 0.0 or volatility_range[1] < volatility_range[0]):
            raise TraceError(f"bad volatility range {volatility_range!r}")
        self.volatility = volatility
        self.drift = drift
        self.initial_range = initial_range
        #: When set, each item draws its own volatility from this range —
        #: real stocks differ widely in how fast they move, which is what
        #: makes rate-of-change information valuable (Figure 6's L1 study).
        self.volatility_range = volatility_range

    def generate(self, item: str, length: int, rng: np.random.Generator) -> Trace:
        if length < 2:
            raise TraceError(f"trace length must be >= 2, got {length}")
        initial = rng.uniform(*self.initial_range)
        volatility = (self.volatility if self.volatility_range is None
                      else rng.uniform(*self.volatility_range))
        increments = self.drift + volatility * rng.standard_normal(length - 1)
        log_path = np.concatenate(([math.log(initial)], np.cumsum(increments) + math.log(initial)))
        values = _clamp_positive(np.exp(log_path), initial)
        return Trace(item, values)


class RandomWalkTraceGenerator:
    """Arithmetic random walk with per-tick step std ``step_scale * initial``."""

    def __init__(self, *, step_scale: float = 0.002,
                 initial_range: Tuple[float, float] = (20.0, 200.0)):
        if step_scale < 0.0:
            raise TraceError(f"step scale must be >= 0, got {step_scale!r}")
        self.step_scale = step_scale
        self.initial_range = initial_range

    def generate(self, item: str, length: int, rng: np.random.Generator) -> Trace:
        if length < 2:
            raise TraceError(f"trace length must be >= 2, got {length}")
        initial = rng.uniform(*self.initial_range)
        steps = rng.normal(scale=self.step_scale * initial, size=length - 1)
        values = _clamp_positive(initial + np.concatenate(([0.0], np.cumsum(steps))), initial)
        return Trace(item, values)


class MonotonicTraceGenerator:
    """Piecewise-monotonic drift: constant slope, direction flips with a
    small per-tick probability so long runs stay monotonic (the Section
    III-A.1 assumption) while the trace remains bounded."""

    def __init__(self, *, rate_scale: float = 0.001, flip_probability: float = 0.01,
                 initial_range: Tuple[float, float] = (20.0, 200.0)):
        if rate_scale < 0.0:
            raise TraceError(f"rate scale must be >= 0, got {rate_scale!r}")
        if not (0.0 <= flip_probability <= 1.0):
            raise TraceError(f"flip probability must be in [0, 1], got {flip_probability!r}")
        self.rate_scale = rate_scale
        self.flip_probability = flip_probability
        self.initial_range = initial_range

    def generate(self, item: str, length: int, rng: np.random.Generator) -> Trace:
        if length < 2:
            raise TraceError(f"trace length must be >= 2, got {length}")
        initial = rng.uniform(*self.initial_range)
        slope = self.rate_scale * initial * rng.uniform(0.5, 1.5)
        directions = np.empty(length - 1)
        direction = 1.0 if rng.random() < 0.5 else -1.0
        flips = rng.random(length - 1) < self.flip_probability
        for i in range(length - 1):
            if flips[i]:
                direction = -direction
            directions[i] = direction
        values = _clamp_positive(
            initial + np.concatenate(([0.0], np.cumsum(slope * directions))), initial
        )
        return Trace(item, values)


def generate_trace_set(
    registry: ItemRegistry,
    length: int,
    generator: Optional[object] = None,
    seed: int = 0,
) -> TraceSet:
    """Generate one trace per registered item, reproducibly.

    Each item gets an independent substream derived from ``seed`` and the
    item's position, so adding items never perturbs existing traces.
    """
    gen = generator if generator is not None else GBMTraceGenerator()
    if not hasattr(gen, "generate"):
        raise TraceError(f"generator {gen!r} has no generate(item, length, rng) method")
    traces = []
    for index, item in enumerate(registry):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        traces.append(gen.generate(item.name, length, rng))
    return TraceSet(traces)
