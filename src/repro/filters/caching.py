"""Sound value-quantised caching of planner solves.

The simulator recomputes DABs thousands of times at values that drift only
slightly between recomputations.  :class:`QuantisingCachePlanner` wraps any
planner and keys its cache on *upward-quantised* item values: each value is
rounded up to the next point of a geometric grid ``(1+grid)^k`` and the plan
is computed there.

Soundness: the worst-case deviation of a PPQ is monotonically increasing in
every base value (all expansion coefficients are positive), so an
assignment feasible at the inflated values ``v_q >= v`` is feasible at the
true values.  On a cache hit the assignment is *re-centred* on the true
values — the dual-DAB window condition at the re-centred point,
``v + c <= v_q + c``, is again dominated by the cached solve.

The cache is a simulator optimisation, not an algorithm change: the
measured *number* of recomputations is untouched (the coordinator still
recomputes whenever the paper's algorithms would); only repeated GP solves
at near-identical inputs are shared.  ``stats`` exposes hit/miss counts so
experiments can report true solver workloads.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Tuple

from repro.exceptions import FilterError
from repro.filters.assignment import DABAssignment
from repro.queries.polynomial import PolynomialQuery


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def solves(self) -> int:
        return self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _root(name: str) -> str:
    """The registered name a (possibly ``name__*`` derivative) query name
    belongs to."""
    return name.partition("__")[0]


class QuantisingCachePlanner:
    """Wrap a planner with an upward-quantising LRU solve cache."""

    def __init__(self, planner: object, grid: float = 0.02, max_entries: int = 50000):
        if not (0.0 < grid < 1.0):
            raise FilterError(f"grid must be in (0, 1), got {grid!r}")
        if max_entries < 1:
            raise FilterError(f"max_entries must be >= 1, got {max_entries!r}")
        self.planner = planner
        self.grid = grid
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: key -> (the query the plan was solved for, the plan).
        self._cache: "OrderedDict[Tuple, Tuple[PolynomialQuery, DABAssignment]]" \
            = OrderedDict()
        #: root query name (what precedes any ``__`` derivative suffix) ->
        #: its cache keys, so forgetting a name costs its own entries, not
        #: a scan of the cache (a dict for its O(1) removal).
        self._keys_of: Dict[str, Dict[Tuple, None]] = {}
        self._log_step = math.log1p(grid)

    def _quantise_up(self, value: float) -> float:
        if value <= 0.0:
            raise FilterError(f"item values must be positive, got {value!r}")
        k = math.ceil(math.log(value) / self._log_step - 1e-12)
        return math.exp(k * self._log_step)

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        quantised = {name: self._quantise_up(float(values[name]))
                     for name in query.variables}
        key = (query.name, tuple(sorted(quantised.items())))
        entry = self._cache.get(key)
        if entry is not None and entry[0] == query:
            cached = entry[1]
            self._cache.move_to_end(key)
            self.stats.hits += 1
        else:
            # A same-named query with other terms or another QAB misses
            # and takes the entry over: a plan serves the query it was
            # solved for and no other.
            self.stats.misses += 1
            cached = self.planner.plan(query, quantised)
            self._cache[key] = (query, cached)
            self._cache.move_to_end(key)
            self._keys_of.setdefault(_root(query.name), {})[key] = None
            if len(self._cache) > self.max_entries:
                evicted, _ = self._cache.popitem(last=False)
                self._drop_key(evicted)
        # Re-centre the (feasible-at-inflated-values) plan on the true values.
        return replace(
            cached,
            primary=dict(cached.primary),
            secondary=None if cached.secondary is None else dict(cached.secondary),
            reference_values={name: float(values[name]) for name in query.variables},
        )

    def _drop_key(self, key: Tuple) -> None:
        root = _root(key[0])
        keys = self._keys_of[root]
        del keys[key]
        if not keys:
            del self._keys_of[root]

    def clear(self) -> None:
        self._cache.clear()
        self._keys_of.clear()
        self.stats = CacheStats()

    def forget_query(self, name: str) -> None:
        """Evict every cached plan for *name* (and its ``name__*`` split
        derivatives) and forget it downstream, releasing their memory once
        the query is gone.  Not needed for soundness: every entry keeps
        the query it was solved for, and a same-named query with another
        polynomial or budget misses."""
        prefix = f"{name}__"
        for key in [k for k in self._keys_of.get(_root(name), ())
                    if k[0] == name or k[0].startswith(prefix)]:
            del self._cache[key]
            self._drop_key(key)
        forget = getattr(self.planner, "forget_query", None)
        if forget is not None:
            forget(name)

    def clear_warm_starts(self) -> None:
        """Drop the inner planner's solver warm starts (fault resync).

        Cached *plans* stay: they are value-keyed and remain sound; only
        the solver's start points can go stale across a topology change.
        """
        clear = getattr(self.planner, "clear_warm_starts", None)
        if clear is not None:
            clear()
