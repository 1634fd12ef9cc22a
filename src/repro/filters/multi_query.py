"""Multiple polynomial queries at one coordinator — Section IV.

Two strategies:

* **EQI (Each Query Independently)** — plan every query with the
  single-query machinery and ship, per item, the minimum primary DAB.
  Scales to hundreds of queries (the paper's Figures 5, 6, 8) because each
  GP stays small.
* **AAO (All At Once)** — one joint GP: the primary DAB of an item is
  shared across queries, the secondary DAB is per ⟨query, item⟩ and each
  query gets its own recomputation rate ``R_q``.  Globally optimal but the
  variable count grows with the number of queries, so solvers only handle
  small sets (the paper evaluates 10 queries; Figure 7).

The paper's Figure 7 additionally runs **AAO-T**: recompute the joint AAO
plan every ``T`` seconds and patch individual queries with Dual-DAB in
between; the period lives in
:class:`~repro.filters.multi_query.AAOTSchedule` and the patching is done
by the simulator's recompute policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import FilterError, NotPositiveCoefficientError
from repro.gp.monomial import Monomial
from repro.gp.posynomial import Posynomial
from repro.gp.program import GeometricProgram
from repro.filters.assignment import DABAssignment, MultiQueryAssignment
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.cost_model import CostModel
from repro.filters.heuristics import DifferentSumPlanner
from repro.queries.deviation import (
    dual_dab_condition,
    primary_variable,
    secondary_variable,
)
from repro.queries.polynomial import PolynomialQuery


def rename_posynomial(posynomial: Posynomial, mapping: Mapping[str, str]) -> Posynomial:
    """Rebuild a posynomial with variables renamed through ``mapping``
    (identity for unmapped names).  Used by AAO to give each query its own
    copy of the secondary-DAB variables."""
    renamed = []
    for term in posynomial.terms:
        exponents = {mapping.get(name, name): exp for name, exp in term.exponents.items()}
        renamed.append(Monomial(term.coefficient, exponents))
    return Posynomial(renamed)


class EQIPlanner:
    """Each Query Independently.

    ``planner`` defaults to Different-Sum-over-Dual-DAB, which transparently
    handles both PPQs and general polynomials.
    """

    def __init__(self, cost_model: CostModel, planner: Optional[object] = None):
        self.cost_model = cost_model
        self.planner = planner if planner is not None else DifferentSumPlanner(cost_model)

    def plan_query(self, query: PolynomialQuery,
                   values: Mapping[str, float]) -> DABAssignment:
        return self.planner.plan(query, values)

    def plan_all(self, queries: Sequence[PolynomialQuery],
                 values: Mapping[str, float]) -> MultiQueryAssignment:
        if not queries:
            raise FilterError("EQI needs at least one query")
        assignments = {q.name: self.planner.plan(q, values) for q in queries}
        return MultiQueryAssignment.from_assignments(assignments)

    def replan(self, multi: MultiQueryAssignment, query: PolynomialQuery,
               values: Mapping[str, float]) -> MultiQueryAssignment:
        """Replace one query's plan and re-merge the coordinator map —
        the coordinator does exactly this when a secondary window breaks."""
        per_query = dict(multi.per_query)
        per_query[query.name] = self.planner.plan(query, values)
        return MultiQueryAssignment.from_assignments(per_query)


def _aao_secondary(query_index: int, item: str) -> str:
    return f"c__q{query_index}__{item}"


def _aao_rate(query_index: int) -> str:
    return f"R__q{query_index}"


class AAOPlanner:
    """All At Once: the joint GP over every query.

    The objective is the total message rate:
    ``sum_i λ_i/b_i + μ · sum_q R_q`` — refreshes counted once against the
    shared primaries, recomputations per query.
    """

    def __init__(self, cost_model: CostModel, constrain_window: bool = True,
                 widen_windows: bool = True):
        self.cost_model = cost_model
        self.constrain_window = constrain_window
        self.widen_windows = widen_windows
        self._warm_start: Optional[Dict[str, float]] = None

    def build_program(self, queries: Sequence[PolynomialQuery],
                      values: Mapping[str, float]) -> GeometricProgram:
        if not queries:
            raise FilterError("AAO needs at least one query")
        for query in queries:
            if not query.is_positive_coefficient:
                raise NotPositiveCoefficientError(
                    f"AAO is formulated for PPQs; {query.name} has negative terms. "
                    "Mirror it first (positive_mirror) or use EQI with a heuristic."
                )
        all_items = sorted({name for q in queries for name in q.variables})

        objective: Posynomial = self.cost_model.refresh_objective(all_items)
        mu = max(self.cost_model.recompute_cost, 1e-9)
        for index in range(len(queries)):
            objective = objective + Monomial(mu, {_aao_rate(index): 1.0})

        program = GeometricProgram(objective=objective)
        for index, query in enumerate(queries):
            mapping = {
                secondary_variable(name): _aao_secondary(index, name)
                for name in query.variables
            }
            condition = rename_posynomial(
                dual_dab_condition(query.terms, values, query.qab), mapping
            )
            program.add_constraint(condition, 1.0, name=f"qab[{query.name}]")
            rate_var = Monomial.variable(_aao_rate(index))
            for name in query.variables:
                b = Monomial.variable(primary_variable(name))
                c = Monomial.variable(_aao_secondary(index, name))
                program.add_constraint(b / c, 1.0, name=f"order[{query.name}:{name}]")
                recompute = rename_posynomial(
                    Posynomial([self.cost_model.recompute_rate_monomial(name)]), mapping
                ).as_monomial()
                program.add_constraint(recompute / rate_var, 1.0,
                                       name=f"recompute[{query.name}:{name}]")
                if self.constrain_window:
                    program.add_constraint(c / float(values[name]), 1.0,
                                           name=f"window[{query.name}:{name}]")
        return program

    def plan_all(self, queries: Sequence[PolynomialQuery],
                 values: Mapping[str, float]) -> MultiQueryAssignment:
        program = self.build_program(queries, values)
        solution = program.solve(initial=self._warm_start)
        self._warm_start = dict(solution.values)

        per_query: Dict[str, DABAssignment] = {}
        for index, query in enumerate(queries):
            items = query.variables
            primary = {name: solution.values[primary_variable(name)] for name in items}
            secondary = {name: solution.values[_aao_secondary(index, name)] for name in items}
            for name in items:
                if secondary[name] < primary[name]:
                    secondary[name] = primary[name]
            if self.widen_windows:
                secondary = CompiledDualDabTemplate(
                    query, values, self.cost_model,
                    constrain_window=self.constrain_window,
                ).widen(values, primary)
            per_query[query.name] = DABAssignment(
                primary=primary,
                secondary=secondary,
                reference_values={name: float(values[name]) for name in items},
                recompute_rate=solution.values[_aao_rate(index)],
                objective=solution.objective,
            )
        return MultiQueryAssignment.from_assignments(per_query)


@dataclass(frozen=True)
class AAOTSchedule:
    """Configuration of the Figure-7 hybrid: a full AAO recomputation every
    ``period`` ticks; secondary-window violations in between are patched
    per query with Dual-DAB and merged by min-primary."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise FilterError(f"AAO-T period must be >= 1 tick, got {self.period!r}")
