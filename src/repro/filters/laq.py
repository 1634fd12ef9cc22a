"""Closed-form optimal DABs for Linear Aggregate Queries (LAQs).

The paper treats LAQs (degree-1 queries ``sum_i w_i x_i : B``) separately
because they admit simpler solutions — DABs do not depend on current values,
so no recomputation machinery is needed.  Its technical-report companion [1]
carries the derivation; we reproduce the result, which follows from one
Lagrange/Cauchy–Schwarz step:

* monotonic ddm — minimise ``sum λ_i / b_i`` s.t. ``sum |w_i| b_i <= B``::

      b_i = B * sqrt(λ_i / |w_i|) / sum_j sqrt(λ_j |w_j|)

* random walk — minimise ``sum λ_i² / b_i²`` s.t. ``sum |w_i| b_i <= B``::

      b_i = B * (λ_i² / |w_i|)^(1/3) / sum_j |w_j| (λ_j² / |w_j|)^(1/3)

Negative weights are handled through their absolute values: for a linear
query the worst case moves each item against the sign of its weight, so only
``|w_i|`` matters.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.exceptions import FilterError, InvalidQueryError
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.dynamics.models import DataDynamicsModel
from repro.queries.polynomial import PolynomialQuery


def assign_laq(query: PolynomialQuery, cost_model: CostModel) -> DABAssignment:
    """Optimal single-shot DABs for a linear aggregate query.

    Unlike the polynomial planners this needs no current values: the LAQ
    condition ``sum |w_i| b_i <= B`` is value-free, which is precisely why
    LAQs "admit simpler solutions" (paper footnote 2).
    """
    if not query.is_linear:
        raise InvalidQueryError(
            f"{query.name} has degree {query.degree}; assign_laq handles degree-1 "
            "queries only — use the polynomial planners for non-linear queries"
        )
    weights: Dict[str, float] = {}
    for term in query.terms:
        (name, _exp), = term.key  # degree-1 ⇒ exactly one item with power 1
        weights[name] = weights.get(name, 0.0) + term.weight
    weights = {name: abs(w) for name, w in weights.items() if w != 0.0}
    if not weights:
        raise InvalidQueryError("all weights cancelled; the query is identically zero")

    ddm = cost_model.ddm
    if ddm is DataDynamicsModel.MONOTONIC:
        shares = {n: math.sqrt(cost_model.rate_of(n) / w) for n, w in weights.items()}
    elif ddm is DataDynamicsModel.RANDOM_WALK:
        shares = {n: (cost_model.rate_of(n) ** 2 / w) ** (1.0 / 3.0)
                  for n, w in weights.items()}
    else:  # pragma: no cover - enum is exhaustive
        raise FilterError(f"unhandled ddm {ddm!r}")

    denominator = sum(weights[n] * shares[n] for n in weights)
    primary = {n: query.qab * shares[n] / denominator for n in weights}

    estimated = cost_model.estimated_refresh_rate(primary)
    return DABAssignment(
        primary=primary,
        secondary=None,
        reference_values={},
        recompute_rate=0.0,  # LAQ DABs never need recomputation
        objective=estimated,
    )


class LAQPlanner:
    """Planner-protocol adapter around :func:`assign_laq`.

    Lets linear aggregate queries flow through the same coordinator
    machinery as polynomial ones.  LAQ DABs are value-free, so the
    returned plan gets an *infinite-by-construction* validity window (the
    reference values with secondary bounds equal to the values themselves
    would still be value-free; we simply return a single-DAB plan and the
    coordinator never needs to recompute because ``window_contains`` is
    overridden by the value-free flag below).
    """

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model

    def plan(self, query: PolynomialQuery, values: Mapping[str, float],
             recompute_scale: float = 1.0) -> DABAssignment:
        """``recompute_scale`` prices nothing: there is no μ·R row."""
        plan = assign_laq(query, self.cost_model)
        # Give the plan an effectively unbounded window: LAQ conditions do
        # not depend on current values, so the primaries never go stale.
        huge = {name: 1e18 for name in plan.primary}
        return DABAssignment(
            primary=dict(plan.primary),
            secondary=huge,
            reference_values={name: float(values[name]) for name in plan.primary
                              if name in values},
            recompute_rate=0.0,
            objective=plan.objective,
        )


def laq_condition_satisfied(query: PolynomialQuery, primary: Mapping[str, float],
                            tol: float = 1e-9) -> bool:
    """``sum |w_i| b_i <= B`` — the LAQ analogue of Condition 1."""
    total = 0.0
    for term in query.terms:
        (name, _exp), = term.key
        total += abs(term.weight) * float(primary[name])
    return total <= query.qab * (1.0 + tol)
