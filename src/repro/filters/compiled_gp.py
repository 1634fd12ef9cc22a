"""Compiled-GP structure reuse for the DAB planners.

Every recomputation used to rebuild the planner's whole geometric program
from posynomials — re-running the worst-case deviation expansion, the
like-term combining and ``compile()`` — even though only the *numbers*
change between recomputes: the exponent matrices, variable order,
constraint names and stacked evaluator layout of a query's GP are all
value-independent.  The templates here build the scalar program exactly
once (on the first plan), keep its :class:`~repro.gp.program.CompiledProgram`
arrays, and thereafter refresh only the log-coefficient vectors in place
before calling :func:`repro.gp.solver.solve_compiled`.

Bit-exactness contract
----------------------
A refreshed template must hand the solver *bitwise identical* arrays to
what ``build_*_program(...).compile()`` would produce at the same values
and rates — identical inputs plus the solver's own per-call determinism
give identical solutions, which is what keeps the simulation
metric-identical to the reference (object-GP) builders.  Each template
verifies this at construction: it refreshes against the very values it
compiled from and raises :class:`~repro.exceptions.FilterError` on any
mismatch, so drift between the reference builders and the refresh recipes
fails loudly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import FilterError, InfeasibleProblemError
from repro.dynamics.models import refresh_rate_coefficient
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import (
    RECOMPUTE_RATE_VARIABLE,
    build_dual_dab_program,
    build_widen_program,
)
from repro.gp.posynomial import Posynomial
from repro.gp.program import CompiledProgram
from repro.gp.solver import GPSolution
from repro.queries.compiled import CompiledDeviation
from repro.queries.deviation import (
    dual_dab_condition,
    item_of_variable,
    primary_variable,
    secondary_variable,
)
from repro.queries.polynomial import PolynomialQuery

_SECONDARY_PREFIX = "c__"


def _single_variable_items(function, variables, rate_variable: str) -> List[Optional[str]]:
    """Per row of a compiled function, the item whose ``b``/``c`` variable
    the row prices — ``None`` for the μ·R row (recognised by the rate
    variable)."""
    rows: List[Optional[str]] = []
    for i in range(function.A.shape[0]):
        columns = np.nonzero(function.A[i])[0]
        names = [variables[j] for j in columns if variables[j] != rate_variable]
        if not names:
            rows.append(None)
        else:
            rows.append(item_of_variable(names[0]))
    return rows


def _log_rate(cost_model: CostModel, item: str) -> float:
    """Log-coefficient shared by ``item``'s refresh-rate (objective) and
    recompute-rate (envelope) monomials."""
    return math.log(refresh_rate_coefficient(cost_model.ddm,
                                             cost_model.rate_of(item)))


def _self_check(compiled: CompiledProgram, refresh, label: str) -> None:
    """Refreshing at the compile-time values must be a bitwise no-op."""
    originals = [compiled.objective.log_c.copy()] + [
        f.log_c.copy() for f in compiled.constraints
    ]
    refresh()
    refreshed = [compiled.objective.log_c] + [f.log_c for f in compiled.constraints]
    for original, current in zip(originals, refreshed):
        if not np.array_equal(original, current):
            raise FilterError(
                f"{label}: compiled template drifted from the scalar program "
                "(refresh recipe does not reproduce compile())"
            )


class CompiledDualDabTemplate:
    """Reusable compiled structure of one query's dual-DAB GP."""

    def __init__(
        self,
        query: PolynomialQuery,
        values: Mapping[str, float],
        cost_model: CostModel,
        constrain_window: bool = True,
        recompute_envelope: str = "sum",
    ):
        self.query = query
        self.cost_model = cost_model
        self.constrain_window = constrain_window
        self.recompute_envelope = recompute_envelope
        # The deviation expansion is the expensive part of both scalar
        # builders; expand once and hand it to the widening template too,
        # which the first plan builds at these same values.
        condition = dual_dab_condition(query.terms, values, query.qab)
        self._expansion = (
            {name: float(values[name]) for name in query.variables}, condition)
        program = build_dual_dab_program(
            query, values, cost_model,
            constrain_window=constrain_window,
            recompute_envelope=recompute_envelope,
            condition=condition,
        )
        self.compiled = program.compile()
        self.deviation = CompiledDeviation(query.terms, include_secondary=True)
        variables = self.compiled.variables
        self._objective_rows = _single_variable_items(
            self.compiled.objective, variables, RECOMPUTE_RATE_VARIABLE)
        self._constraint_rows: Dict[str, List[Optional[str]]] = {}
        for name, function in zip(self.compiled.constraint_names,
                                  self.compiled.constraints):
            if name == "recompute":
                self._constraint_rows[name] = _single_variable_items(
                    function, variables, RECOMPUTE_RATE_VARIABLE)
        self._widen: Optional[CompiledWidenTemplate] = None
        #: Item values of the last refresh — the per-item delta structure
        #: the incremental recompute path diffs against to find which
        #: log-variables a window breach actually touched.
        self.last_values: Dict[str, float] = {}
        _self_check(self.compiled, lambda: self.refresh(values),
                    f"dual-DAB template for {query.name!r}")

    def changed_items(self, values: Mapping[str, float]) -> List[str]:
        """Items whose value moved since the last :meth:`refresh` — the
        variables a delta patch must actually re-solve around.  Every item
        counts as changed before the first refresh."""
        last = self.last_values
        return [name for name in self.query.variables
                if last.get(name) != float(values[name])]

    def refresh(self, values: Mapping[str, float]) -> None:
        """Rewrite every value/rate-dependent log-coefficient in place."""
        self.last_values = {name: float(values[name])
                            for name in self.query.variables}
        cost_model = self.cost_model
        objective_log = self.compiled.objective.log_c
        for i, item in enumerate(self._objective_rows):
            if item is None:
                objective_log[i] = math.log(max(cost_model.recompute_cost, 1e-9))
            else:
                objective_log[i] = _log_rate(cost_model, item)
        for name, function in zip(self.compiled.constraint_names,
                                  self.compiled.constraints):
            if name == "qab":
                function.log_c[:] = self.deviation.log_coefficients(
                    values, qab=self.query.qab)
            elif name == "recompute":
                for i, item in enumerate(self._constraint_rows[name]):
                    function.log_c[i] = _log_rate(cost_model, item)
            elif name.startswith("recompute["):
                item = name[len("recompute["):-1]
                function.log_c[0] = _log_rate(cost_model, item)
            elif name.startswith("window["):
                item = name[len("window["):-1]
                function.log_c[0] = math.log(1.0 / float(values[item]))
            # order[...] constraints are fully static (log 1.0 == 0.0).

    def solve(self, values: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        self.refresh(values)
        return self.compiled.solve(initial=initial)

    def widen_template(self, values: Mapping[str, float],
                       primary: Mapping[str, float]) -> "CompiledWidenTemplate":
        """The (lazily-built) widening template — exposed so the delta
        recompute path can Newton-patch the widening program directly."""
        if self._widen is None:
            expanded_at, condition = self._expansion
            self._expansion = None
            if any(float(values[name]) != value
                   for name, value in expanded_at.items()):
                condition = None        # stale: the builder re-expands
            self._widen = CompiledWidenTemplate(
                self.query, values, primary, self.cost_model, self.deviation,
                constrain_window=self.constrain_window, condition=condition,
            )
        return self._widen

    def widen(self, values: Mapping[str, float], primary: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
        """Compiled equivalent of :func:`repro.filters.dual_dab.widen_secondary`."""
        solution = self.widen_template(values, primary).solve(
            values, primary, initial=initial)
        items = self.query.variables
        secondary = {name: solution.values[secondary_variable(name)]
                     for name in items}
        for name in items:
            if secondary[name] < primary[name]:
                secondary[name] = float(primary[name])
        return secondary


class CompiledWidenTemplate:
    """Reusable compiled structure of the secondary-widening GP.

    The widening pass substitutes the (per-solve) primary DABs into the
    deviation condition; the *residual* row structure is value-independent,
    so only coefficient folds re-run per solve.
    """

    def __init__(
        self,
        query: PolynomialQuery,
        values: Mapping[str, float],
        primary: Mapping[str, float],
        cost_model: CostModel,
        deviation: CompiledDeviation,
        constrain_window: bool = True,
        condition: Optional[Posynomial] = None,
    ):
        self.query = query
        self.cost_model = cost_model
        self.deviation = deviation
        items = query.variables
        self._fixed_names = tuple(primary_variable(name) for name in items)
        self.substituted = deviation.substituted(self._fixed_names)
        program = build_widen_program(query, values, primary, cost_model,
                                      constrain_window=constrain_window,
                                      condition=condition)
        self.compiled = program.compile()
        self._objective_rows = _single_variable_items(
            self.compiled.objective, self.compiled.variables,
            RECOMPUTE_RATE_VARIABLE)
        _self_check(self.compiled, lambda: self.refresh(values, primary),
                    f"widen template for {query.name!r}")

    def _qab_coefficients(self, values: Mapping[str, float],
                          primary: Mapping[str, float]) -> List[float]:
        fixed = {primary_variable(name): float(primary[name])
                 for name in self.query.variables}
        parent = self.deviation.coefficients(values, qab=self.query.qab)
        return self.substituted.coefficients(parent, fixed)

    def refresh(self, values: Mapping[str, float],
                primary: Mapping[str, float]) -> None:
        cost_model = self.cost_model
        objective_log = self.compiled.objective.log_c
        for i, item in enumerate(self._objective_rows):
            objective_log[i] = math.log(max(cost_model.rate_of(item), 1e-12))
        coefficients = self._qab_coefficients(values, primary)
        if self.substituted.is_constant:
            # compile() drops a fully-substituted (constant) QAB constraint —
            # unless it is violated, which it reports as infeasibility.
            constant = coefficients[0]
            if constant > 1.0 + 1e-12:
                raise InfeasibleProblemError(
                    f"constraint qab is constant and violated: "
                    f"{constant:.6g} <= 1"
                )
        for name, function in zip(self.compiled.constraint_names,
                                  self.compiled.constraints):
            if name == "qab":
                function.log_c[:] = [math.log(c) for c in coefficients]
            elif name.startswith("order["):
                item = name[len("order["):-1]
                function.log_c[0] = math.log(float(primary[item]))
            elif name.startswith("window["):
                item = name[len("window["):-1]
                function.log_c[0] = math.log(1.0 / float(values[item]))

    def solve(self, values: Mapping[str, float], primary: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        self.refresh(values, primary)
        return self.compiled.solve(initial=initial)


class CompiledOptimalRefreshTemplate:
    """Reusable compiled structure of one query's Optimal-Refresh GP."""

    def __init__(self, query: PolynomialQuery, values: Mapping[str, float],
                 cost_model: CostModel):
        from repro.filters.optimal_refresh import build_optimal_refresh_program

        self.query = query
        self.cost_model = cost_model
        program = build_optimal_refresh_program(query, values, cost_model)
        self.compiled = program.compile()
        self.deviation = CompiledDeviation(query.terms, include_secondary=False)
        self._objective_rows = _single_variable_items(
            self.compiled.objective, self.compiled.variables,
            RECOMPUTE_RATE_VARIABLE)
        _self_check(self.compiled, lambda: self.refresh(values),
                    f"optimal-refresh template for {query.name!r}")

    def refresh(self, values: Mapping[str, float]) -> None:
        cost_model = self.cost_model
        objective_log = self.compiled.objective.log_c
        for i, item in enumerate(self._objective_rows):
            objective_log[i] = _log_rate(cost_model, item)
        for name, function in zip(self.compiled.constraint_names,
                                  self.compiled.constraints):
            if name == "qab":
                function.log_c[:] = self.deviation.log_coefficients(
                    values, qab=self.query.qab)

    def solve(self, values: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        self.refresh(values)
        return self.compiled.solve(initial=initial)
