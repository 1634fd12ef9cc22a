"""The 80-20 query workload of the paper's evaluation (Section V-A).

* 100 data items; group 1 holds 20 % of them, group 2 the rest.
* 80 % of each query's items come from group 1, 20 % from group 2 —
  a small hot set shared across queries, a long cold tail.
* Each query touches 12–14 distinct items; term weights are uniform in
  [1, 100].
* PPQ workloads are *global portfolio* queries ``Σ w_k · x · y : B`` with
  the QAB at 1 % of the initial query value; general-PQ workloads are
  *arbitrage* queries ``Σ w · x·y − Σ w' · u·v : B`` with the QAB at 2 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidQueryError, SimulationError
from repro.queries.items import ItemRegistry
from repro.queries.polynomial import PolynomialQuery
from repro.queries.terms import QueryTerm


@dataclass
class WorkloadConfig:
    """Knobs of the 80-20 generator; defaults are the paper's."""

    group1_fraction: float = 0.2
    group1_probability: float = 0.8
    pairs_per_query: Tuple[int, int] = (6, 7)
    weight_range: Tuple[float, float] = (1.0, 100.0)
    ppq_qab_fraction: float = 0.01
    pq_qab_fraction: float = 0.02
    #: For Figure 8(b): probability that an arbitrage query's negative half
    #: reuses items from its positive half ("dependent" polynomials).
    shared_item_probability: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.group1_fraction < 1.0):
            raise SimulationError(f"group1 fraction must be in (0,1), got {self.group1_fraction}")
        if not (0.0 <= self.group1_probability <= 1.0):
            raise SimulationError("group1 probability must be in [0,1]")
        low, high = self.pairs_per_query
        if low < 1 or high < low:
            raise SimulationError(f"bad pairs_per_query range {self.pairs_per_query!r}")
        if self.weight_range[0] <= 0 or self.weight_range[1] < self.weight_range[0]:
            raise SimulationError(f"bad weight range {self.weight_range!r}")
        if not (0.0 <= self.shared_item_probability <= 1.0):
            raise SimulationError("shared_item_probability must be in [0,1]")


def split_items_80_20(registry: ItemRegistry,
                      config: Optional[WorkloadConfig] = None) -> Tuple[List[str], List[str]]:
    """Partition items into (group1, group2) by registry order — the first
    ``group1_fraction`` of the population is the hot set."""
    cfg = config or WorkloadConfig()
    names = registry.names
    cut = max(1, int(round(len(names) * cfg.group1_fraction)))
    return names[:cut], names[cut:]


def _draw_items(rng: np.random.Generator, group1: Sequence[str], group2: Sequence[str],
                count: int, config: WorkloadConfig,
                exclude: Sequence[str] = ()) -> List[str]:
    """Draw ``count`` distinct items, ~80 % from group 1."""
    pool1 = [n for n in group1 if n not in exclude]
    pool2 = [n for n in group2 if n not in exclude]
    chosen: List[str] = []
    taken = set()
    for _ in range(count):
        use_group1 = rng.random() < config.group1_probability
        primary_pool = pool1 if use_group1 else pool2
        fallback_pool = pool2 if use_group1 else pool1
        candidates = [n for n in primary_pool if n not in taken]
        if not candidates:
            candidates = [n for n in fallback_pool if n not in taken]
        if not candidates:
            raise SimulationError(
                f"not enough items to draw {count} distinct ones "
                f"(population {len(pool1) + len(pool2)})"
            )
        pick = candidates[int(rng.integers(len(candidates)))]
        taken.add(pick)
        chosen.append(pick)
    return chosen


def _pair_terms(rng: np.random.Generator, items: Sequence[str],
                config: WorkloadConfig, sign: float) -> List[QueryTerm]:
    """Group items into consecutive pairs and attach uniform weights."""
    terms = []
    for i in range(0, len(items) - 1, 2):
        weight = sign * rng.uniform(*config.weight_range)
        terms.append(QueryTerm.product(weight, items[i], items[i + 1]))
    return terms


def generate_portfolio_queries(
    registry: ItemRegistry,
    initial_values: Mapping[str, float],
    count: int,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    name_prefix: str = "portfolio",
) -> List[PolynomialQuery]:
    """``count`` global-portfolio PPQs: ``Σ w_k · x_k · y_k : B`` with the
    QAB at ``ppq_qab_fraction`` of the initial query value."""
    cfg = config or WorkloadConfig()
    group1, group2 = split_items_80_20(registry, cfg)
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(count):
        pairs = int(rng.integers(cfg.pairs_per_query[0], cfg.pairs_per_query[1] + 1))
        items = _draw_items(rng, group1, group2, 2 * pairs, cfg)
        terms = _pair_terms(rng, items, cfg, sign=1.0)
        provisional = PolynomialQuery(terms, qab=1.0, name=f"{name_prefix}{index}")
        initial = provisional.evaluate(initial_values)
        qab = max(cfg.ppq_qab_fraction * abs(initial), 1e-9)
        queries.append(provisional.with_qab(qab))
    return queries


def iter_template_bank(
    registry: ItemRegistry,
    initial_values: Mapping[str, float],
    count: int,
    distinct_structures: int,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    name_prefix: str = "bank",
) -> Iterator[PolynomialQuery]:
    """Streaming form of :func:`generate_template_bank`: yields the same
    queries one at a time, so a 10^6-query bank never has to exist as a
    Python list (the scaling bench indexes and drops each query)."""
    cfg = config or WorkloadConfig()
    if distinct_structures < 1:
        raise SimulationError(
            f"distinct_structures must be >= 1, got {distinct_structures}")
    if distinct_structures > count:
        raise SimulationError(
            f"distinct_structures ({distinct_structures}) cannot exceed the "
            f"bank size ({count})")
    group1, group2 = split_items_80_20(registry, cfg)
    rng = np.random.default_rng(seed)
    structures: List[List[str]] = []
    for _ in range(distinct_structures):
        pairs = int(rng.integers(cfg.pairs_per_query[0],
                                 cfg.pairs_per_query[1] + 1))
        structures.append(_draw_items(rng, group1, group2, 2 * pairs, cfg))
    for index in range(count):
        items = structures[index % distinct_structures]
        terms = _pair_terms(rng, items, cfg, sign=1.0)
        provisional = PolynomialQuery(terms, qab=1.0,
                                      name=f"{name_prefix}{index}")
        initial = provisional.evaluate(initial_values)
        qab = max(cfg.ppq_qab_fraction * abs(initial), 1e-9)
        yield provisional.with_qab(qab)


def generate_template_bank(
    registry: ItemRegistry,
    initial_values: Mapping[str, float],
    count: int,
    distinct_structures: int,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    name_prefix: str = "bank",
) -> List[PolynomialQuery]:
    """``count`` portfolio PPQs drawn from ``distinct_structures`` monomial
    structures — the bank-scale workload.

    A *structure* is a fixed (item, exponent) footprint; every query built
    on it gets fresh uniform weights and its own QAB, so structurally-
    identical queries are still distinct optimisation problems.  This is
    the 80-20 regime taken to bank scale: most of a large subscriber
    population watches the same few aggregate shapes over the hot items,
    so per-tick cost should follow ``distinct_structures``, not ``count``.
    """
    return list(iter_template_bank(registry, initial_values, count,
                                   distinct_structures, config=config,
                                   seed=seed, name_prefix=name_prefix))


def generate_laq_queries(
    registry: ItemRegistry,
    initial_values: Mapping[str, float],
    count: int,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    name_prefix: str = "laq",
) -> List[PolynomialQuery]:
    """``count`` linear aggregate queries ``Σ w_i · x_i : B`` drawn with
    the same 80-20 item popularity; the QAB uses the PPQ fraction (1 % of
    the initial value), matching the traffic/average-monitoring workloads
    the paper cites for LAQs."""
    cfg = config or WorkloadConfig()
    group1, group2 = split_items_80_20(registry, cfg)
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(count):
        pairs = int(rng.integers(cfg.pairs_per_query[0], cfg.pairs_per_query[1] + 1))
        item_count = 2 * pairs  # same 12-14 item footprint as the PQs
        items = _draw_items(rng, group1, group2, item_count, cfg)
        terms = [QueryTerm(rng.uniform(*cfg.weight_range), {name: 1})
                 for name in items]
        provisional = PolynomialQuery(terms, qab=1.0, name=f"{name_prefix}{index}")
        initial = provisional.evaluate(initial_values)
        qab = max(cfg.ppq_qab_fraction * abs(initial), 1e-9)
        queries.append(provisional.with_qab(qab))
    return queries


def generate_arbitrage_queries(
    registry: ItemRegistry,
    initial_values: Mapping[str, float],
    count: int,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    name_prefix: str = "arbitrage",
) -> List[PolynomialQuery]:
    """``count`` arbitrage PQs: ``Σ w·x·y − Σ w'·u·v : B``.

    With ``shared_item_probability > 0`` the negative half draws (some of)
    its items from the positive half's, producing the *dependent*
    polynomials of Figure 8(b); at 0 the halves are disjoint
    (*independent*, Figure 8(a)).
    """
    cfg = config or WorkloadConfig()
    group1, group2 = split_items_80_20(registry, cfg)
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(count):
        pairs = int(rng.integers(cfg.pairs_per_query[0], cfg.pairs_per_query[1] + 1))
        pos_pairs = max(1, pairs // 2)
        neg_pairs = max(1, pairs - pos_pairs)
        pos_items = _draw_items(rng, group1, group2, 2 * pos_pairs, cfg)
        if rng.random() < cfg.shared_item_probability and len(pos_items) >= 2:
            # Dependent halves: reuse positive-half items in the negative half.
            reuse = min(len(pos_items), 2 * neg_pairs)
            reused = list(rng.choice(pos_items, size=reuse, replace=False))
            fresh_needed = 2 * neg_pairs - reuse
            fresh = _draw_items(rng, group1, group2, fresh_needed, cfg,
                                exclude=pos_items) if fresh_needed else []
            neg_items = reused + fresh
        else:
            neg_items = _draw_items(rng, group1, group2, 2 * neg_pairs, cfg,
                                    exclude=pos_items)
        terms = _pair_terms(rng, pos_items, cfg, sign=1.0)
        terms += _pair_terms(rng, neg_items, cfg, sign=-1.0)
        provisional = PolynomialQuery(terms, qab=1.0, name=f"{name_prefix}{index}")
        initial = provisional.evaluate(initial_values)
        positive_mass = sum(t.evaluate(initial_values) for t in terms if t.is_positive)
        # An arbitrage value can start near zero; anchor the 2 % QAB on the
        # larger of |value| and the positive mass so bounds stay meaningful.
        qab = max(cfg.pq_qab_fraction * max(abs(initial), positive_mass * 0.1), 1e-9)
        queries.append(provisional.with_qab(qab))
    return queries
