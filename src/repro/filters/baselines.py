"""Baseline DAB-assignment schemes the paper compares against.

* :class:`UniformAllocationBaseline` — no optimisation at all: the QAB is
  split equally across the query's terms and each term's share is met with
  equal per-item movement.  The "do the obvious thing" reference point.
* :class:`SharfmanStyleBaseline` — models the adapted geometric approach of
  Sharfman, Schuster & Keren (SIGMOD 2006) as the paper characterises it in
  Section V: *"instead of one necessary and sufficient condition (Equation
  1) we have to solve n sufficient conditions — one per data item. This
  results in more stringent DABs."*  Each item gets ``B / n`` of the bound
  and its DAB is the largest width whose *individual* worst-case effect on
  the query stays within that share.  (Also the "WSDAB" configuration of
  Figure 8(c).)

Both produce single-DAB assignments: like Optimal Refresh they must be
recomputed on every refresh, which is exactly why Figure 8(c)'s
recomputation counts explode.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.exceptions import FilterError
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.queries.deviation import max_term_deviation
from repro.queries.polynomial import PolynomialQuery
from repro.queries.terms import QueryTerm

#: A width is final once its Newton step is this small relative to it.
_WIDTH_REL_TOL = 1e-12

#: Most Newton steps per width; a width typically takes four to six.
_WIDTH_ITERATIONS = 60


def _positive_value(values: Mapping[str, float], name: str) -> float:
    value = float(values[name])
    if not value > 0.0:
        raise FilterError(
            f"baseline requires positive item values; {name!r} = {value!r}")
    return value


def _term_width(term: QueryTerm, values: Mapping[str, float],
                budget: float) -> float:
    """Largest ``b`` with ``max_term_deviation(term, values, {i: b}) <=
    budget`` when every item of the term moves by ``b``.

    The deviation ``|w| (Π (V_i + b)^{p_i} - Π V_i^{p_i})`` is an
    increasing, convex polynomial in ``b``; its log form
    ``φ(b) = Σ p_i log1p(b / V_i) - log1p(budget / (|w| Π V_i^{p_i}))`` is
    increasing and *concave*, with the same root.  Newton's method on
    ``φ`` from ``b = 0`` — whose first step is the linear estimate — climbs
    to the root monotonically, never past it.  The width it stops at is
    checked against the budget with ``max_term_deviation`` itself, and
    backed off while rounding leaves it a last ulp over.
    """
    if budget <= 0.0:
        raise FilterError(f"deviation budget must be positive, got {budget!r}")
    factors = [(_positive_value(values, name), power)
               for name, power in term.key]
    base = math.prod(value ** power for value, power in factors)
    target = math.log1p(budget / (abs(term.weight) * base))
    width = 0.0
    for _ in range(_WIDTH_ITERATIONS):
        excess, slope = -target, 0.0
        for value, power in factors:
            excess += power * math.log1p(width / value)
            slope += power / (value + width)
        step = -excess / slope
        width += step
        if step <= _WIDTH_REL_TOL * width:
            break
    bounds = dict.fromkeys([name for name, _ in term.key], width)
    backoff = _WIDTH_REL_TOL
    while max_term_deviation(term, values, bounds) > budget:
        width *= 1.0 - backoff
        backoff = min(2.0 * backoff, 0.5)
        bounds = dict.fromkeys(bounds, width)
    return width


class UniformAllocationBaseline:
    """Split the QAB equally over terms; within a term move items equally."""

    def __init__(self, cost_model: Optional[CostModel] = None):
        # The cost model is unused (no rate information) but accepted so the
        # baseline is drop-in compatible with the planner protocol.
        self.cost_model = cost_model

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        share = query.qab / len(query.terms)
        primary: Dict[str, float] = {}
        for term in query.terms:
            width = _term_width(term, values, share)
            for name, _ in term.key:
                primary[name] = min(primary.get(name, width), width)
        return DABAssignment(
            primary=primary,
            secondary=None,
            reference_values={name: float(values[name]) for name in primary},
            objective=float("nan"),
        )


class SharfmanStyleBaseline:
    """Per-item sufficient conditions via a uniform multiplicative split.

    The QAB is divided equally over the terms; within a term ``w·Π x_i^{p_i}``
    whose share allows a relative growth ``ρ = share / (|w|·Π V_i^{p_i})``,
    every item is allotted the same growth factor ``g = (1+ρ)^{1/deg}`` so
    that ``Π (V_i(1+r_i))^{p_i} = Π V_i^{p_i} · (1+ρ)`` exactly, i.e.
    ``b_i = V_i (g - 1)``.  Items in several terms take the minimum.

    This is *sound* (the per-item conditions jointly imply Eq. 1) but — like
    the method of [5] as the paper characterises it — it decomposes the one
    necessary-and-sufficient condition into n per-item sufficient ones and
    ignores rate-of-change information, so its refresh cost is never below
    Optimal Refresh's and typically well above it under heterogeneous λ.
    """

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        share = query.qab / len(query.terms)
        primary: Dict[str, float] = {}
        for term in query.terms:
            base = 1.0
            for name, power in term.key:
                base *= _positive_value(values, name) ** power
            relative_budget = share / (abs(term.weight) * base)
            growth = (1.0 + relative_budget) ** (1.0 / term.degree)
            for name, _power in term.key:
                width = float(values[name]) * (growth - 1.0)
                primary[name] = min(primary.get(name, width), width)
        return DABAssignment(
            primary=primary,
            secondary=None,
            reference_values={name: float(values[name]) for name in primary},
            objective=float("nan"),
        )
