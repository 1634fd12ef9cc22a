"""The signomial planner as it was written with the object algebra.

Successive condensation of the mixed-sign Eq.-4 condition (see
:mod:`repro.filters.signomial`), every round's program built term by term
as a :class:`GeometricProgram` and compiled: the expansion into signed
posynomials (:func:`mixed_dual_condition`), the AM-GM condensation
(:func:`condense_to_monomial`) and :class:`OracleSignomialPlanner`, whose
rounds, iteration counts and plans the array-assembled
:class:`~repro.filters.signomial.SignomialPlanner` is held to.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import (
    FilterError,
    InfeasibleProblemError,
    InvalidQueryError,
    SolverFailedError,
)
from repro.filters.assignment import DABAssignment
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE
from repro.filters.signomial import (
    MAX_ROUNDS,
    RELATIVE_TOLERANCE,
    SignomialPlanner,
    SignomialTrace,
)
from repro.queries.deviation import (
    _require_positive_value,
    primary_variable,
    secondary_variable,
)
from repro.queries.polynomial import PolynomialQuery
from repro.queries.signed import (
    _COEFF_EPS,
    _SignedPoly,
    _has_primary,
    _signed_add_into,
    _signed_factor_down,
    _signed_mul,
    _signed_scale,
)
from repro.queries.terms import QueryTerm
from tests.oracle.deviation import (
    deviation_posynomial,
    recompute_rate_monomial,
    refresh_objective,
)
from tests.oracle.monomial import Monomial
from tests.oracle.posynomial import Posynomial
from tests.oracle.program import GeometricProgram


def _split_signed(signed: _SignedPoly) -> Tuple[Optional[Posynomial], Optional[Posynomial]]:
    positive: List[Monomial] = []
    negative: List[Monomial] = []
    for key, coeff in signed.items():
        if abs(coeff) <= _COEFF_EPS:
            continue
        monomial = Monomial(abs(coeff), dict(key))
        (positive if coeff > 0 else negative).append(monomial)
    pos = Posynomial(positive) if positive else None
    neg = Posynomial(negative) if negative else None
    return pos, neg


def mixed_dual_condition(
    terms: Iterable[QueryTerm],
    values: Mapping[str, float],
    direction: str = "query_up",
) -> Tuple[Posynomial, Optional[Posynomial]]:
    """Expand one direction of the mixed dual condition into ``(pos, neg)``
    with ``LHS = pos - neg`` (``neg`` is ``None`` when nothing cancels).

    ``direction="query_up"`` is the paper's Eq. 4 (positive half at the top
    of its windows moving up, negative half at the bottom moving down —
    the query *increases* most).  ``direction="query_down"`` is the mirror
    case (positive half down, negative half up — the query *decreases*
    most), which Eq. 4 does **not** dominate when the negative half is
    heavy; a sound planner must enforce both.

    Every kept term contains at least one primary-DAB variable: the
    c-only parts cancel exactly between ``prod(V∓c)^p`` and the b-free
    slice of the moved product.
    """
    if direction not in ("query_up", "query_down"):
        raise InvalidQueryError(
            f"direction must be 'query_up' or 'query_down', got {direction!r}")
    term_list = list(terms)
    up_terms = [t for t in term_list
                if t.is_positive == (direction == "query_up")]
    down_terms = [t for t in term_list
                  if t.is_positive != (direction == "query_up")]

    signed: _SignedPoly = {}
    if up_terms:
        ppq_part = deviation_posynomial([t.abs() for t in up_terms], values,
                                        include_secondary=True)
        for monomial in ppq_part.terms:
            key = tuple(sorted(monomial.exponents.items()))
            signed[key] = signed.get(key, 0.0) + monomial.coefficient

    for term in down_terms:
        down: _SignedPoly = {(): 1.0}
        for name, power in term.key:
            value = _require_positive_value(name, values)
            down = _signed_mul(down, _signed_factor_down(
                value, power, primary_variable(name), secondary_variable(name)))
        # decrease = prod(V-c)^p - prod(V-c-b)^p: the b-free slice of `down`
        # is exactly prod(V-c)^p, so keep only b-bearing terms, negated.
        contribution: _SignedPoly = {
            key: -coeff for key, coeff in down.items() if _has_primary(key)
        }
        _signed_add_into(signed, _signed_scale(contribution, abs(term.weight)))

    pos, neg = _split_signed(signed)
    if pos is None:
        raise InvalidQueryError(
            "the mixed dual condition has no positive part; the query is "
            "degenerate (no primary-DAB-bearing terms)"
        )
    return pos, neg


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


class OracleSignomialPlanner(SignomialPlanner):
    """:class:`~repro.filters.signomial.SignomialPlanner` planned through
    object-built rounds.  ``rounds`` holds each round of the last plan as
    ``(program, point it was condensed at)``."""

    def _build_program(self, query: PolynomialQuery, values: Mapping[str, float],
                       conditions: Mapping[str, Tuple[Posynomial, Optional[Posynomial]]],
                       point: Mapping[str, float]) -> GeometricProgram:
        items = query.variables
        rate_var = Monomial.variable(RECOMPUTE_RATE_VARIABLE)
        objective = (
            refresh_objective(self.cost_model, items)
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
            Posynomial([recompute_rate_monomial(self.cost_model, n) for n in items])
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

        self.rounds = []
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
        for _ in range(MAX_ROUNDS):
            program = self._build_program(query, values, conditions, point)
            self.rounds.append((program, dict(point)))
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
