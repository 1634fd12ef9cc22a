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

Each round's program is assembled from rows, like every other planner's:
the condition rows of :func:`~repro.queries.signed.mixed_dual_condition`,
condensed (:func:`condense`) and divided (:func:`divide`) in the scalar
order of the posynomial algebra, so every round hands the solver bitwise
what the test oracle's object-built round compiles to (DESIGN §8.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dynamics.models import refresh_rate_exponent
from repro.exceptions import (
    FilterError,
    InfeasibleProblemError,
    InvalidQueryError,
    SolverFailedError,
)
from repro.filters.assignment import DABAssignment
from repro.filters.compiled_gp import _assemble_priced, _log_rate, _priced
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE, DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner
from repro.gp.program import CompiledProgram
from repro.gp.solver import solve_compiled
from repro.queries.compiled import Signature, _normalise_exponents
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery
from repro.queries.signed import (
    Rows,
    mixed_dual_condition,
    mixed_worst_deviation,
    row_values,
)

#: Condensation rounds at most per plan.
MAX_ROUNDS = 8

#: A round that lowers the objective by no more than this fraction of it
#: ends the iteration (converged).
RELATIVE_TOLERANCE = 1e-4


def condense(rows: Rows, point: Mapping[str, float]) -> Tuple[float, Signature]:
    """The AM-GM monomial under-estimator of a posynomial at a point, as
    ``(coefficient, signature)``.

    With weights ``δ_i = term_i(x0) / f(x0)``::

        m̃(x) = prod_i (term_i(x) / δ_i)^{δ_i}

    satisfies ``m̃ <= f`` everywhere (weighted AM-GM) and ``m̃(x0) = f(x0)``.
    Terms are folded in row order and each variable's exponent summed over
    them in that order; an exponent with ``|e| <= 1e-12`` is dropped.
    """
    values = row_values(rows, point)
    total = sum(values)
    if total <= 0.0:
        raise FilterError("cannot condense a posynomial that evaluates to 0")
    coefficient = 1.0
    exponents: Dict[str, float] = {}
    for (signature, term_coefficient), value in zip(rows, values):
        delta = value / total
        if delta <= 1e-300:
            continue
        coefficient *= (term_coefficient / delta) ** delta
        for name, exp in signature:
            exponents[name] = exponents.get(name, 0.0) + delta * exp
    return coefficient, _normalise_exponents(exponents)


def divide(rows: Rows, coefficient: float, signature: Signature) -> Rows:
    """``rows / (coefficient · signature)``: each term times the inverse
    monomial (``coefficient ** -1.0``, exponents negated), re-normalised,
    like terms folded as ``0.0 + c1 + ...`` and the rows re-sorted."""
    inverse = coefficient ** -1.0
    negated = [(name, exp * -1.0) for name, exp in signature]
    combined: Dict[Signature, float] = {}
    for term_signature, term_coefficient in rows:
        merged = dict(term_signature)
        for name, exp in negated:
            merged[name] = merged.get(name, 0.0) + exp
        key = _normalise_exponents(merged)
        combined[key] = combined.get(key, 0.0) + term_coefficient * inverse
    return sorted(combined.items())


def qab_rows(qab: float, pos: Rows, neg: Optional[Rows],
             point: Mapping[str, float]) -> Rows:
    """One direction's GP row of ``pos - neg <= qab``: ``pos / qab`` when
    nothing cancels, else ``pos`` over the condensation of ``qab + neg``
    at ``point``."""
    if neg is None:
        return [(signature, coefficient / float(qab))
                for signature, coefficient in pos]
    return divide(pos, *condense([((), float(qab))] + neg, point))


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

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model
        self._seed_planner = DifferentSumPlanner(cost_model)
        self._ppq_planner = DualDABPlanner(cost_model)
        self.last_trace: Optional[SignomialTrace] = None

    # -- GP assembly -------------------------------------------------------------

    def _program(self, query: PolynomialQuery, values: Mapping[str, float],
                 conditions: Mapping[str, Tuple[Rows, Optional[Rows]]],
                 point: Mapping[str, float],
                 recompute_cost: float) -> CompiledProgram:
        """One round's geometric program, condensed at ``point``, its μ·R
        row priced at ``recompute_cost``."""
        cost_model = self.cost_model
        items = query.variables
        rate = RECOMPUTE_RATE_VARIABLE
        power = refresh_rate_exponent(cost_model.ddm)
        log_rate = {item: _log_rate(cost_model, item) for item in items}
        functions = [_priced("objective", [
            (((rate, 1.0),), math.log(max(recompute_cost, 1e-9)))
        ] + [(((primary_variable(item), power),), log_rate[item])
             for item in items])]
        for direction, (pos, neg) in conditions.items():
            rows = qab_rows(query.qab, pos, neg, point)
            functions.append((f"qab[{direction}]",
                              [signature for signature, _ in rows],
                              [math.log(coefficient) for _, coefficient in rows]))
        functions.append(_priced("recompute", [
            (((rate, -1.0), (secondary_variable(item), power)), log_rate[item])
            for item in items]))
        for item in items:
            b, c = primary_variable(item), secondary_variable(item)
            functions.append((f"order[{item}]", [((b, 1.0), (c, -1.0))], [0.0]))
            # Every item moves down in one of the two directional cases,
            # so the lower window edge must stay reachable: V - c - b >= 0.
            log_window = math.log(1.0 / float(values[item]))
            functions.append((f"window[{item}]", [((b, 1.0),), ((c, 1.0),)],
                              [log_window, log_window]))
        return _assemble_priced(functions)

    # -- planning ------------------------------------------------------------------

    def plan(self, query: PolynomialQuery, values: Mapping[str, float],
             recompute_scale: float = 1.0) -> DABAssignment:
        """Every round, and the seed, prices the μ·R row at
        ``recompute_scale`` times the cost model's μ."""
        if query.is_positive_coefficient:
            return self._ppq_planner.plan(query, values, recompute_scale)

        items = query.variables
        mu = self.cost_model.recompute_cost * recompute_scale
        seed = self._seed_planner.plan(query, values, recompute_scale)
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
            return refresh + mu * p[RECOMPUTE_RATE_VARIABLE]

        objectives = [objective_at(point)]
        converged = False
        for _ in range(MAX_ROUNDS):
            program = self._program(query, values, conditions, point, mu)
            try:
                solution = solve_compiled(program, initial=point)
            except (InfeasibleProblemError, SolverFailedError):
                break  # keep the last feasible iterate
            candidate = dict(solution.values)
            if not self._feasible(query, values, candidate):
                break
            improvement = objectives[-1] - solution.objective
            point = candidate
            objectives.append(solution.objective)
            if improvement <= RELATIVE_TOLERANCE * abs(objectives[-1]):
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
        except InvalidQueryError:
            return False  # the window and filter overshoot the value
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
