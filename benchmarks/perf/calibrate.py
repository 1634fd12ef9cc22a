"""How fast is the machine right now?  One fixed, mixed unit of work.

This sandbox's two cores are a slice of a shared host.  Identical work
runs 10-20 % faster or slower from one second to the next, and for spells
of 20-60 s, a few times in ten minutes, 1.6-1.8x slower (set-up of the same
100 queries: 4.6 s, then 8.7 s; README, "Calibration record").  A spell
covers whole runs, so no statistic *within* a run removes it, and ten runs
of one commit then differ by more than any bound a timing could be held to.

So every process that is being timed also times, all through the phase, a
fixed unit of work that is no part of the program under test, and every
timing is reported *at reference speed*: divided by how much longer than
:data:`REFERENCE_SECONDS` that unit took on average during the phase.  The
unit is built to slow down the way the server does when a neighbour takes
the caches: a tight integer loop (interpreter, L1-resident — alone it showed
+15 % in a spell that slowed the server by 70 %), a walk over heap objects
that do not fit the L2 cache, JSON round trips, small numpy vector kernels
and a short scipy BFGS solve.  Over 40 runs, timings divided by it spread
3-8 % between runs where the raw ones spread 8-25 % (README).

The unit's own time is known, so it is taken off the CPU readings, and
nothing here imports or is imported by ``repro``: a change to the program
cannot move it.
"""

from __future__ import annotations

import json
import random
from statistics import mean
from time import perf_counter
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

#: What one :func:`unit` takes on this sandbox in a calm spell.  Frozen:
#: it only fixes the scale of the reported numbers ("at reference speed").
REFERENCE_SECONDS = 2.5e-3
#: Pause between two units while a process serves or drives (≈ 4 % load).
INTERVAL_SECONDS = 0.05

_RECORDS: List[Tuple[int, float]] = [(index, float(index))
                                     for index in range(60_000)]
random.Random(0).shuffle(_RECORDS)      # list order ≠ allocation order
_STRIDE = 2500
_cursor = 0
_MESSAGE = {"type": "notify", "query": "q17", "value": 123.456, "seq": 12345,
            "bounds": {f"item{index}": 0.01 * index for index in range(12)}}
_VECTOR = np.linspace(1.0, 2.0, 100)
_WEIGHTS = np.linspace(0.5, 1.5, 100)
_rng = np.random.default_rng(0)
_A = _rng.normal(size=(30, 13))
_B = _rng.normal(size=30)
_Y0 = np.zeros(13)


def _merit(y: np.ndarray) -> Tuple[float, np.ndarray]:
    z = _A @ y + _B
    return (float(logsumexp(z)) + 0.05 * float(y @ y),
            _A.T @ softmax(z) + 0.1 * y)


def unit(clock: Callable[[], float] = perf_counter) -> Tuple[float, float]:
    """Do the fixed work once: ``(started, seconds)`` by ``clock``."""
    global _cursor
    started = clock()
    total = 0
    for index in range(7000):
        total += index * index % 7
    start = _cursor
    _cursor = (start + _STRIDE) % (len(_RECORDS) - _STRIDE)
    weight = 0.0
    for record in _RECORDS[start:start + _STRIDE]:
        weight += record[1]
    for _ in range(27):
        json.loads(json.dumps(_MESSAGE, separators=(",", ":"),
                              sort_keys=True))
    for _ in range(170):
        float(np.dot(np.exp(_WEIGHTS * np.log(_VECTOR)), _WEIGHTS))
    minimize(_merit, _Y0, jac=True, method="BFGS", options={"maxiter": 2})
    return started, clock() - started


def slowdown(samples: Sequence[Tuple[float, float]]) -> float:
    """How many times longer than the reference a unit took, on average
    (the timings it corrects are sums over the same stretch of time)."""
    if not samples:
        raise ValueError("no calibration samples in the phase")
    return mean(seconds for _, seconds in samples) / REFERENCE_SECONDS


def own_seconds(samples: Sequence[Tuple[float, float]]) -> float:
    """CPU the samples themselves used (to take off a CPU reading)."""
    return sum(seconds for _, seconds in samples)
