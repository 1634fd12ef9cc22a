"""The object-built programs every array assembler is held to.

Each builder writes one of the paper's geometric programs down with the
oracle algebra, term by term: Dual-DAB (§III-A), its secondary-widening
second pass, Optimal Refresh (§III-A.1) and AAO's joint program (§IV,
Fig. 7).  ``build_*(...).compile()`` is what the planners' array
assemblers (:mod:`repro.filters.compiled_gp`, ``AAOPlanner.build_program``)
must hand the solver bit for bit; :class:`OracleAAOPlanner` is AAO planned
through the object program, the plan oracle of
:class:`repro.filters.multi_query.AAOPlanner`.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

from repro.exceptions import FilterError, NotPositiveCoefficientError
from repro.filters.assignment import DABAssignment, MultiQueryAssignment
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE
from repro.filters.multi_query import _aao_rate, _aao_secondary
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery
from tests.oracle.deviation import (
    deviation_posynomial,
    dual_dab_condition,
    recompute_rate_monomial,
    refresh_objective,
)
from tests.oracle.monomial import Monomial
from tests.oracle.posynomial import Posynomial, substitute
from tests.oracle.program import GeometricProgram


def build_dual_dab_program(
    query: PolynomialQuery,
    values: Mapping[str, float],
    cost_model: CostModel,
    rate_variable: str = RECOMPUTE_RATE_VARIABLE,
    constrain_window: bool = True,
    recompute_envelope: str = "sum",
) -> GeometricProgram:
    """Construct the dual-DAB GP for one PPQ — the test oracle the
    array-built :class:`~repro.filters.compiled_gp.CompiledDualDabTemplate`
    is held to.

    ``recompute_envelope`` selects how the recomputation rate ``R`` bounds
    the per-item window-crossing rates:

    * ``"max"`` — the paper's formulation, ``λ_i / c_i <= R`` per item
      (exact for deterministic monotonic drift, where the first window
      crossing is the fastest item's);
    * ``"sum"`` — the union bound ``Σ_i λ_i / c_i <= R`` (each item's
      crossings can independently trigger a recomputation, the behaviour
      real fluctuating traces show).  Both are posynomial-representable;
      "sum" prices window width into the b/c budget split correctly under
      trace-driven data and is the default.
    """
    if recompute_envelope not in ("max", "sum"):
        raise ValueError(f"recompute_envelope must be 'max' or 'sum', "
                         f"got {recompute_envelope!r}")
    items = query.variables
    rate_var = Monomial.variable(rate_variable)

    objective = (
        refresh_objective(cost_model, items)
        + Monomial(max(cost_model.recompute_cost, 1e-9), {rate_variable: 1.0})
    )
    program = GeometricProgram(objective=objective)
    program.add_constraint(
        dual_dab_condition(query.terms, values, query.qab), 1.0, name="qab")
    if recompute_envelope == "sum":
        program.add_constraint(
            Posynomial([recompute_rate_monomial(cost_model, name) for name in items])
            / rate_var,
            1.0, name="recompute",
        )
    for name in items:
        b = Monomial.variable(primary_variable(name))
        c = Monomial.variable(secondary_variable(name))
        program.add_constraint(b / c, 1.0, name=f"order[{name}]")
        if recompute_envelope == "max":
            program.add_constraint(recompute_rate_monomial(cost_model, name) / rate_var,
                                   1.0, name=f"recompute[{name}]")
        if constrain_window:
            # Keep the lower window edge V - c non-negative so that the
            # implied Eq. 3 (downward drift) stays meaningful on positive data.
            program.add_constraint(c / float(values[name]), 1.0, name=f"window[{name}]")
    return program


def build_widen_program(
    query: PolynomialQuery,
    values: Mapping[str, float],
    primary: Mapping[str, float],
    cost_model: CostModel,
    constrain_window: bool = True,
) -> GeometricProgram:
    """Construct the second-pass widening GP (see :class:`DualDABPlanner`)
    — the test oracle of the compiled widening template."""
    items = query.variables
    fixed = {primary_variable(name): float(primary[name]) for name in items}
    objective = Posynomial([
        Monomial(max(cost_model.rate_of(name), 1e-12), {secondary_variable(name): -1.0})
        for name in items
    ])
    program = GeometricProgram(objective=objective)
    condition = dual_dab_condition(query.terms, values, query.qab)
    program.add_constraint(substitute(condition, fixed), 1.0, name="qab")
    for name in items:
        c = Monomial.variable(secondary_variable(name))
        program.add_constraint(float(primary[name]) / c, 1.0, name=f"order[{name}]")
        if constrain_window:
            program.add_constraint(c / float(values[name]), 1.0, name=f"window[{name}]")
    return program


def build_optimal_refresh_program(
    query: PolynomialQuery,
    values: Mapping[str, float],
    cost_model: CostModel,
) -> GeometricProgram:
    """Construct the Optimal-Refresh GP for one PPQ — the test oracle the
    array-built :class:`~repro.filters.compiled_gp.CompiledOptimalRefreshTemplate`
    is held to."""
    program = GeometricProgram(objective=refresh_objective(cost_model, query.variables))
    condition = deviation_posynomial(query.terms, values, include_secondary=False)
    program.add_constraint(condition / query.qab, 1.0, name="qab")
    return program


def rename_posynomial(posynomial: Posynomial, mapping: Mapping[str, str]) -> Posynomial:
    """Rebuild a posynomial with variables renamed through ``mapping``
    (identity for unmapped names).  Used by AAO to give each query its own
    copy of the secondary-DAB variables."""
    renamed = []
    for term in posynomial.terms:
        exponents = {mapping.get(name, name): exp for name, exp in term.exponents.items()}
        renamed.append(Monomial(term.coefficient, exponents))
    return Posynomial(renamed)


class OracleAAOPlanner:
    """AAO as it was planned through the object program: build, compile,
    solve from the last joint optimum, widen each query's windows."""

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model
        self._warm_start = None

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

        objective: Posynomial = refresh_objective(self.cost_model, all_items)
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
                    Posynomial([recompute_rate_monomial(self.cost_model, name)]), mapping
                ).as_monomial()
                program.add_constraint(recompute / rate_var, 1.0,
                                       name=f"recompute[{query.name}:{name}]")
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
            # A joint optimum over the QAB by solver noise is scaled down
            # onto it, rounded down, before the widening pass.
            point = {}
            for name, bound in primary.items():
                point[primary_variable(name)] = bound
                point[secondary_variable(name)] = bound
            load = dual_dab_condition(query.terms, values,
                                      query.qab).evaluate(point)
            if load > 1.0:
                scale = math.nextafter(1.0 / load, 0.0)
                primary = {name: bound * scale
                           for name, bound in primary.items()}
            secondary = CompiledDualDabTemplate(
                query, values, self.cost_model).widen(values, primary)
            per_query[query.name] = DABAssignment(
                primary=primary,
                secondary=secondary,
                reference_values={name: float(values[name]) for name in items},
                recompute_rate=solution.values[_aao_rate(index)],
                objective=solution.objective,
            )
        return MultiQueryAssignment.from_assignments(per_query)


def build_aao_program(queries: Sequence[PolynomialQuery],
                      values: Mapping[str, float],
                      cost_model: CostModel) -> GeometricProgram:
    """AAO's joint program (see :class:`OracleAAOPlanner`)."""
    return OracleAAOPlanner(cost_model).build_program(queries, values)
