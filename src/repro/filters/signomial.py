"""Signomial programming for general polynomial queries — an extension.

The paper (Section III-B): *"to the best of our knowledge, there is no
known efficient technique which can be used to obtain an optimal solution
for [a general PQ]. The best we can hope for are solutions close to the
optimal solution."*  Its Eq.-4 condition is a *signomial* (posynomial
minus posynomial) constraint, which successive monomial condensation — the
standard inner-approximation method for signomial programs — handles with
guarantees that fit this problem perfectly:

* rewrite ``pos(b,c) - neg(b,c) <= B`` as ``pos <= B + neg``;
* at the current iterate, replace the posynomial denominator ``B + neg``
  by its arithmetic-geometric-mean monomial under-estimator ``m̃``
  (``m̃ <= B + neg`` everywhere, with equality at the iterate);
* solve the resulting *geometric* program; the new point satisfies the
  original signomial constraint (``pos <= m̃ <= B + neg``), so **every
  iterate is feasible**, and because the previous point stays feasible for
  the new inner approximation, **the objective never increases**.

Seeding with the Different-Sum solution (feasible for Eq. 4 by the paper's
Claim 1) therefore yields a plan that is never worse than DS and often
strictly better — it reclaims the slack DS gives up by ignoring that the
negative half's movement partially *offsets* the positive half's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import FilterError, SolverFailedError, InfeasibleProblemError
from repro.gp.monomial import Monomial
from repro.gp.posynomial import Posynomial
from repro.gp.program import GeometricProgram
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE, DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery
from repro.queries.signed import mixed_dual_condition, mixed_worst_deviation


def condense_to_monomial(posynomial: Posynomial,
                         point: Mapping[str, float]) -> Monomial:
    """The AM-GM monomial under-estimator of a posynomial at a point.

    With weights ``δ_i = term_i(x0) / f(x0)``::

        m̃(x) = prod_i (term_i(x) / δ_i)^{δ_i}

    satisfies ``m̃ <= f`` everywhere (weighted AM-GM) and ``m̃(x0) = f(x0)``.
    """
    values = [term.evaluate(point) for term in posynomial.terms]
    total = sum(values)
    if total <= 0.0:
        raise FilterError("cannot condense a posynomial that evaluates to 0")
    coefficient = 1.0
    exponents: Dict[str, float] = {}
    for term, value in zip(posynomial.terms, values):
        delta = value / total
        if delta <= 1e-300:
            continue
        coefficient *= (term.coefficient / delta) ** delta
        for name, exp in term.exponents.items():
            exponents[name] = exponents.get(name, 0.0) + delta * exp
    return Monomial(coefficient, exponents)


@dataclass
class SignomialTrace:
    """Per-iteration record for observability and tests."""

    objectives: List[float]
    iterations: int
    converged: bool


class SignomialPlanner:
    """General-PQ planner solving the exact Eq.-4 condition by successive
    condensation, seeded with Different Sum.

    Falls back to the plain Dual-DAB planner for PPQs.  The last
    :class:`SignomialTrace` is exposed as :attr:`last_trace`.
    """

    def __init__(self, cost_model: CostModel, max_iterations: int = 8,
                 relative_tolerance: float = 1e-4):
        if max_iterations < 1:
            raise FilterError(f"max_iterations must be >= 1, got {max_iterations!r}")
        self.cost_model = cost_model
        self.max_iterations = max_iterations
        self.relative_tolerance = relative_tolerance
        self._seed_planner = DifferentSumPlanner(cost_model)
        self._ppq_planner = DualDABPlanner(cost_model)
        self.last_trace: Optional[SignomialTrace] = None

    # -- GP assembly -------------------------------------------------------------

    def _build_program(self, query: PolynomialQuery, values: Mapping[str, float],
                       conditions: Mapping[str, Tuple[Posynomial, Optional[Posynomial]]],
                       point: Mapping[str, float]) -> GeometricProgram:
        items = query.variables
        rate_var = Monomial.variable(RECOMPUTE_RATE_VARIABLE)
        objective = (
            self.cost_model.refresh_objective(items)
            + Monomial(max(self.cost_model.recompute_cost, 1e-9),
                       {RECOMPUTE_RATE_VARIABLE: 1.0})
        )
        program = GeometricProgram(objective=objective)

        for direction, (pos, neg) in conditions.items():
            if neg is None:
                program.add_constraint(pos / query.qab, 1.0,
                                       name=f"qab[{direction}]")
            else:
                denominator = Posynomial(
                    (Monomial.constant(query.qab),) + neg.terms)
                condensed = condense_to_monomial(denominator, point)
                program.add_constraint(pos / condensed, 1.0,
                                       name=f"qab[{direction}]")

        program.add_constraint(
            Posynomial([self.cost_model.recompute_rate_monomial(n) for n in items])
            / rate_var, 1.0, name="recompute")
        for name in items:
            b = Monomial.variable(primary_variable(name))
            c = Monomial.variable(secondary_variable(name))
            program.add_constraint(b / c, 1.0, name=f"order[{name}]")
            # Every item moves down in one of the two directional cases,
            # so the lower window edge must stay reachable: V - c - b >= 0.
            program.add_constraint((b + c) / float(values[name]), 1.0,
                                   name=f"window[{name}]")
        return program

    # -- planning ------------------------------------------------------------------

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        if query.is_positive_coefficient:
            return self._ppq_planner.plan(query, values)

        items = query.variables
        seed = self._seed_planner.plan(query, values)
        # DS windows may touch c = V; the down-side needs b + c <= V, so
        # shrink the seed point slightly to sit strictly inside.
        point: Dict[str, float] = {}
        for name in items:
            value = float(values[name])
            b = min(seed.primary[name], 0.45 * value)
            c = min(seed.secondary[name], 0.9 * value - b)
            c = max(c, b)
            point[primary_variable(name)] = b
            point[secondary_variable(name)] = c
        point[RECOMPUTE_RATE_VARIABLE] = max(
            sum(self.cost_model.rate_of(n)
                / point[secondary_variable(n)] for n in items), 1e-9)

        conditions = {
            direction: mixed_dual_condition(query.terms, values, direction)
            for direction in ("query_up", "query_down")
        }

        def objective_at(p: Mapping[str, float]) -> float:
            refresh = sum(
                self.cost_model.rate_of(n) / p[primary_variable(n)]
                if self.cost_model.ddm.value == "monotonic"
                else (self.cost_model.rate_of(n) / p[primary_variable(n)]) ** 2
                for n in items)
            return refresh + self.cost_model.recompute_cost * p[RECOMPUTE_RATE_VARIABLE]

        objectives = [objective_at(point)]
        converged = False
        for _ in range(self.max_iterations):
            program = self._build_program(query, values, conditions, point)
            try:
                solution = program.solve(initial=point)
            except (InfeasibleProblemError, SolverFailedError):
                break  # keep the last feasible iterate
            candidate = dict(solution.values)
            if not self._feasible(query, values, candidate):
                break
            improvement = objectives[-1] - solution.objective
            point = candidate
            objectives.append(solution.objective)
            if improvement <= self.relative_tolerance * abs(objectives[-1]):
                converged = True
                break

        self.last_trace = SignomialTrace(
            objectives=objectives, iterations=len(objectives) - 1,
            converged=converged)

        primary = {n: point[primary_variable(n)] for n in items}
        secondary = {n: max(point[secondary_variable(n)], primary[n])
                     for n in items}
        return DABAssignment(
            primary=primary,
            secondary=secondary,
            reference_values={n: float(values[n]) for n in items},
            recompute_rate=point[RECOMPUTE_RATE_VARIABLE],
            objective=objectives[-1],
        )

    def _feasible(self, query: PolynomialQuery, values: Mapping[str, float],
                  point: Mapping[str, float], tol: float = 1e-6) -> bool:
        items = query.variables
        primary = {n: point[primary_variable(n)] for n in items}
        secondary = {n: point[secondary_variable(n)] for n in items}
        try:
            deviation = mixed_worst_deviation(query.terms, values,
                                              primary, secondary)
        except Exception:
            return False
        return deviation <= query.qab * (1.0 + tol)

    # -- stack protocol -----------------------------------------------------------

    def clear_warm_starts(self) -> None:
        """Fault resync: both inner planners drop their optima."""
        self._ppq_planner.clear_warm_starts()
        self._seed_planner.clear_warm_starts()

    def forget_query(self, name: str) -> None:
        """Forget *name* (and its ``name__*`` derivatives) in both inner
        planners' per-name state."""
        self._ppq_planner.forget_query(name)
        self._seed_planner.forget_query(name)
