"""Compiled-GP structure reuse for the DAB planners.

Only the *numbers* of a query's geometric program change between
recomputes: the exponent matrices, variable order, constraint names and
stacked evaluator layout are all value-independent.  The templates here
assemble that structure once, straight from arrays — the deviation rows
from :class:`~repro.queries.compiled.CompiledDeviation` /
:class:`~repro.queries.compiled.CompiledSubstitution`, the objective,
``recompute``, ``order[·]`` and ``window[·]`` rows from their one- and
two-variable signatures — and thereafter refresh only the log-coefficient
vectors in place before :func:`repro.gp.solver.solve_compiled` or a
Newton-KKT patch.  No ``Monomial`` or ``Posynomial`` is constructed.
They are the only way the planners solve; a template serves the query it
was built for (``template.query``) and no other.

Bit-exactness contract
----------------------
A refreshed template must hand the solver *bitwise identical* arrays to
what the object builders of :mod:`repro.filters.dual_dab` and
:mod:`repro.filters.optimal_refresh` produce through ``.compile()`` at the
same values and rates — variables, constraint names, ``A``, ``starts`` and
``log_c`` — so that a template solve *is* the solve of the paper's
program as those builders write it down.  That means every
function's rows in sorted-signature order (how a ``Posynomial`` keeps its
terms), constraints in the builders' order, and a constant constraint
dropped or reported infeasible exactly as ``compile()`` does.  The
builders are the oracle: ``tests/filters/test_template_arrays.py`` holds
the templates to them over generated queries.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleProblemError
from repro.dynamics.models import refresh_rate_coefficient, refresh_rate_exponent
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE
from repro.gp.program import CompiledFunction, CompiledProgram
from repro.gp.solver import GPSolution
from repro.queries.compiled import CompiledDeviation, Signature, signature_matrix
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery

#: One function of a program: its constraint name, its rows' signatures in
#: sorted order and, per row, the item whose rate the row is priced by.
_Function = Tuple[str, Sequence[Signature], Sequence[Optional[str]]]


def _log_rate(cost_model: CostModel, item: str) -> float:
    """Log-coefficient shared by ``item``'s refresh-rate (objective) and
    recompute-rate (envelope) monomials."""
    return math.log(refresh_rate_coefficient(cost_model.ddm,
                                             cost_model.rate_of(item)))


def _priced(name: str, rows: List[Tuple[Signature, Optional[str]]]) -> _Function:
    """A function from ``(signature, item)`` rows, sorted as a
    ``Posynomial`` sorts its terms."""
    rows = sorted(rows, key=lambda row: row[0])
    return (name, [signature for signature, _ in rows],
            [item for _, item in rows])


def _assemble(functions: Sequence[_Function]) -> CompiledProgram:
    """The :class:`CompiledProgram` of an objective (first) and its
    constraints, every ``log_c`` zero until the first refresh."""
    rows = [signature for _, signatures, _ in functions
            for signature in signatures]
    order = tuple(sorted({name for signature in rows for name, _ in signature}))
    A = signature_matrix(rows, order)
    bounds = np.cumsum([0] + [len(signatures) for _, signatures, _ in functions])
    compiled = [CompiledFunction(A[lo:hi], np.zeros(hi - lo))
                for lo, hi in zip(bounds[:-1], bounds[1:])]
    return CompiledProgram(
        variables=order, objective=compiled[0], constraints=compiled[1:],
        constraint_names=[name for name, _, _ in functions[1:]])


def _priced_functions(compiled: CompiledProgram, priced_by):
    """``(name, function, items pricing its rows)`` per function of a
    template's program, objective first."""
    return zip(["objective", *compiled.constraint_names],
               [compiled.objective, *compiled.constraints], priced_by)


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
        if recompute_envelope not in ("max", "sum"):
            raise ValueError(f"recompute_envelope must be 'max' or 'sum', "
                             f"got {recompute_envelope!r}")
        self.query = query
        self.cost_model = cost_model
        self.constrain_window = constrain_window
        self.deviation = CompiledDeviation(query.terms, include_secondary=True)
        rate = RECOMPUTE_RATE_VARIABLE
        power = refresh_rate_exponent(cost_model.ddm)
        functions = [
            _priced("objective", [(((rate, 1.0),), None)] + [
                (((primary_variable(item), power),), item)
                for item in query.variables]),
            ("qab", self.deviation.signatures, ()),
        ]
        if recompute_envelope == "sum":
            functions.append(_priced("recompute", [
                (((rate, -1.0), (secondary_variable(item), power)), item)
                for item in query.variables]))
        for item in query.variables:
            b, c = primary_variable(item), secondary_variable(item)
            functions.append((f"order[{item}]", [((b, 1.0), (c, -1.0))], ()))
            if recompute_envelope == "max":
                functions.append((f"recompute[{item}]",
                                  [((rate, -1.0), (c, power))], [item]))
            if constrain_window:
                functions.append((f"window[{item}]", [((c, 1.0),)], [item]))
        self.compiled = _assemble(functions)
        #: Per function (objective first), the item pricing each row;
        #: ``None`` is the μ·R row, ``()`` a function with nothing to price.
        self._priced_by = [priced for _, _, priced in functions]
        self._widen: Optional[CompiledWidenTemplate] = None
        #: Item values of the last refresh — the per-item delta structure
        #: the planner's patch ladder diffs against to find which
        #: log-variables a window breach actually touched.
        self.last_values: Dict[str, float] = {}
        self.refresh(values)

    def changed_items(self, values: Mapping[str, float]) -> List[str]:
        """Items whose value moved since the last :meth:`refresh` — the
        variables a delta patch must actually re-solve around."""
        last = self.last_values
        return [name for name in self.query.variables
                if last.get(name) != float(values[name])]

    def refresh(self, values: Mapping[str, float]) -> None:
        """Rewrite every value/rate-dependent log-coefficient in place."""
        self.last_values = {name: float(values[name])
                            for name in self.query.variables}
        cost_model = self.cost_model
        log_price = {item: _log_rate(cost_model, item)
                     for item in self.query.variables}
        log_price[None] = math.log(max(cost_model.recompute_cost, 1e-9))
        for name, function, items in _priced_functions(self.compiled,
                                                       self._priced_by):
            if name == "qab":
                function.log_c[:] = self.deviation.log_coefficients(
                    values, qab=self.query.qab)
            elif name.startswith("window["):
                function.log_c[0] = math.log(1.0 / float(values[items[0]]))
            elif items:
                function.log_c[:] = [log_price[item] for item in items]
            # order[...] constraints are fully static (log 1.0 == 0.0).

    def solve(self, values: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        self.refresh(values)
        return self.compiled.solve(initial=initial)

    def widen_template(self, values: Mapping[str, float],
                       primary: Mapping[str, float]) -> "CompiledWidenTemplate":
        """The (lazily-built) widening template — exposed so the planner's
        patch ladder can Newton-patch the widening program directly."""
        if self._widen is None:
            self._widen = CompiledWidenTemplate(
                self.query, values, primary, self.cost_model, self.deviation,
                constrain_window=self.constrain_window)
        return self._widen

    def widen(self, values: Mapping[str, float], primary: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
        """The widened secondary DABs for fixed ``primary`` (the second
        pass of :class:`~repro.filters.dual_dab.DualDABPlanner`), never
        below the primaries."""
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
    ):
        self.query = query
        self.cost_model = cost_model
        self.deviation = deviation
        items = query.variables
        self.substituted = deviation.substituted(
            primary_variable(name) for name in items)
        functions = [_priced("objective", [
            (((secondary_variable(item), -1.0),), item) for item in items])]
        # compile() drops a fully-substituted (constant) QAB constraint: a
        # purely linear query's deviation has no secondary DAB in it.
        if not self.substituted.is_constant:
            functions.append(("qab", self.substituted.signatures, ()))
        for item in items:
            c = secondary_variable(item)
            functions.append((f"order[{item}]", [((c, -1.0),)], [item]))
            if constrain_window:
                functions.append((f"window[{item}]", [((c, 1.0),)], [item]))
        self.compiled = _assemble(functions)
        self._priced_by = [priced for _, _, priced in functions]
        self.refresh(values, primary)

    def _qab_coefficients(self, values: Mapping[str, float],
                          primary: Mapping[str, float]) -> List[float]:
        fixed = {primary_variable(name): float(primary[name])
                 for name in self.query.variables}
        parent = self.deviation.coefficients(values, qab=self.query.qab)
        return self.substituted.coefficients(parent, fixed)

    def refresh(self, values: Mapping[str, float],
                primary: Mapping[str, float]) -> None:
        cost_model = self.cost_model
        coefficients = self._qab_coefficients(values, primary)
        # compile() reports a violated constant constraint as infeasibility
        # (and drops one that holds, as the constructor did).
        if self.substituted.is_constant and coefficients[0] > 1.0 + 1e-12:
            raise InfeasibleProblemError(
                f"constraint qab is constant and violated: "
                f"{coefficients[0]:.6g} <= 1")
        for name, function, items in _priced_functions(self.compiled,
                                                       self._priced_by):
            if name == "objective":
                function.log_c[:] = [
                    math.log(max(cost_model.rate_of(item), 1e-12))
                    for item in items]
            elif name == "qab":
                function.log_c[:] = [math.log(c) for c in coefficients]
            elif name.startswith("order["):
                function.log_c[0] = math.log(float(primary[items[0]]))
            else:
                function.log_c[0] = math.log(1.0 / float(values[items[0]]))

    def solve(self, values: Mapping[str, float], primary: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        self.refresh(values, primary)
        return self.compiled.solve(initial=initial)


class CompiledOptimalRefreshTemplate:
    """Reusable compiled structure of one query's Optimal-Refresh GP."""

    def __init__(self, query: PolynomialQuery, values: Mapping[str, float],
                 cost_model: CostModel):
        self.query = query
        self.cost_model = cost_model
        self.deviation = CompiledDeviation(query.terms, include_secondary=False)
        power = refresh_rate_exponent(cost_model.ddm)
        objective = _priced("objective", [
            (((primary_variable(item), power),), item)
            for item in query.variables])
        self._priced_by = objective[2]
        self.compiled = _assemble(
            [objective, ("qab", self.deviation.signatures, ())])
        self.refresh(values)

    def refresh(self, values: Mapping[str, float]) -> None:
        self.compiled.objective.log_c[:] = [
            _log_rate(self.cost_model, item) for item in self._priced_by]
        self.compiled.constraints[0].log_c[:] = self.deviation.log_coefficients(
            values, qab=self.query.qab)

    def solve(self, values: Mapping[str, float],
              initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        self.refresh(values)
        return self.compiled.solve(initial=initial)
