"""Optimal Refresh (paper Section III-A.1).

For a positive-coefficient polynomial query, choose single DABs that
minimise the estimated refresh rate subject to the necessary-and-sufficient
QAB condition (Eq. 1, generalised to any PPQ):

    minimise    sum_i λ_i / b_i            (monotonic ddm; λ²/b² for RW)
    subject to  sum_t w_t (prod (V_i + b_i)^{p_i} - prod V_i^{p_i}) <= B

This is optimal in refreshes but, because the constraint depends on the
current values ``V_i``, *every* refresh arriving at the coordinator
invalidates the plan and forces a recomputation — the behaviour the
Dual-DAB approach then improves on.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Mapping, Optional

from repro.exceptions import NotPositiveCoefficientError
from repro.gp.program import GeometricProgram
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.queries.deviation import deviation_posynomial, primary_variable
from repro.queries.polynomial import PolynomialQuery


def _require_ppq(query: PolynomialQuery, planner: str) -> None:
    if not query.is_positive_coefficient:
        raise NotPositiveCoefficientError(
            f"{planner} handles positive-coefficient queries only; "
            f"{query.name} has negative terms — use HalfAndHalfPlanner or "
            "DifferentSumPlanner for general polynomials"
        )


def _forget_name(name: str, *tables: Dict[str, object]) -> None:
    """Drop *name* and the ``name__*`` derivatives the split heuristics
    plan through from per-query-name caches."""
    prefix = f"{name}__"
    for table in tables:
        for key in [k for k in table if k == name or k.startswith(prefix)]:
            del table[key]


def _built_for(table: Dict[str, object], query: PolynomialQuery):
    """The entry *table* keeps under ``query.name`` if it was built for
    this very query — equal terms and QAB — else ``None``.  A name is a
    label: a same-named query with another polynomial or bound is priced
    on its own program, never on the one compiled for its predecessor."""
    entry = table.get(query.name)
    return entry if entry is not None and entry.query == query else None


def build_optimal_refresh_program(
    query: PolynomialQuery,
    values: Mapping[str, float],
    cost_model: CostModel,
) -> GeometricProgram:
    """Construct the Optimal-Refresh GP for one PPQ — the test oracle the
    array-built :class:`~repro.filters.compiled_gp.CompiledOptimalRefreshTemplate`
    is held to."""
    program = GeometricProgram(objective=cost_model.refresh_objective(query.variables))
    condition = deviation_posynomial(query.terms, values, include_secondary=False)
    program.add_constraint(condition / query.qab, 1.0, name="qab")
    return program


class OptimalRefreshPlanner:
    """Refresh-optimal single-DAB planner for PPQs.

    Each query's GP structure (exponent matrices, constraint layout) is
    built once, as a :class:`~repro.filters.compiled_gp.CompiledOptimalRefreshTemplate`,
    and only its log-coefficients refresh per recomputation.

    A plan is a two-rung ladder.  Once the query has an optimum, the
    refreshed template is Newton-KKT patched from it
    (:func:`~repro.filters.delta_recompute.newton_patch`), accepted under
    that function's checks and :meth:`DABAssignment.guarantees_qab` at the
    values.  A first plan or a declined patch is the template's solve,
    warm-started from the last optimum.  ``stats`` counts the rungs.
    """

    def __init__(self, cost_model: CostModel):
        from repro.filters.delta_recompute import DeltaStats

        self.cost_model = cost_model
        self.stats = DeltaStats()
        self._warm_starts: Dict[str, Dict[str, float]] = {}
        self._templates: Dict[str, object] = {}

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        """Compute the refresh-optimal DABs at the given item values.

        Returns a single-DAB assignment (``secondary=None``): the caller
        must recompute it whenever any input item is refreshed.
        """
        started = _time.perf_counter()
        template = _built_for(self._templates, query)
        if template is None:
            from repro.filters.compiled_gp import CompiledOptimalRefreshTemplate

            _require_ppq(query, "OptimalRefreshPlanner")
            self._warm_starts.pop(query.name, None)
            template = self._templates[query.name] = \
                CompiledOptimalRefreshTemplate(query, values, self.cost_model)
        start = self._warm_starts.get(query.name)
        plan = None if start is None else self._patch(query, values, template,
                                                      start)
        patched = plan is not None
        if not patched:
            solution = template.solve(values, initial=start)
            self._warm_starts[query.name] = dict(solution.values)
            plan = self._assignment(query, values, solution)
            self.stats.multistart_solves += 1
        self.stats.record_plan(_time.perf_counter() - started,
                               first=start is None, patched=patched)
        return plan

    def _patch(self, query: PolynomialQuery, values: Mapping[str, float],
               template, start: Mapping[str, float]) -> Optional[DABAssignment]:
        """The plan patched from ``start``, or ``None`` with the decline
        reason noted."""
        from repro.filters.delta_recompute import newton_patch

        template.refresh(values)
        result = newton_patch(template.compiled, start)
        if result is None:
            self.stats.note_decline("main_kkt")
            return None
        plan = self._assignment(query, values, result)
        if not plan.guarantees_qab(query, values):
            self.stats.note_decline("qab_invariant")
            return None
        self._warm_starts[query.name] = result.values
        self.stats.patch_newton_iterations += result.iterations
        self.stats.note_residual(result.residual)
        return plan

    def _assignment(self, query: PolynomialQuery, values: Mapping[str, float],
                    solution) -> DABAssignment:
        """The single-DAB plan of a solve's or a patch's optimum."""
        items = query.variables
        primary = {name: solution.values[primary_variable(name)]
                   for name in items}
        return DABAssignment(
            primary=primary,
            secondary=None,
            reference_values={name: float(values[name]) for name in items},
            recompute_rate=self.cost_model.estimated_refresh_rate(primary),
            objective=solution.objective,
        )

    def clear_warm_starts(self) -> None:
        """Drop cached solver starts (per-query); next plans run cold."""
        self._warm_starts.clear()

    def forget_query(self, name: str) -> None:
        """Drop every per-name cache for *name* (and its ``name__*``
        derivatives) to release their memory once the query is gone.  Not
        needed for soundness: a different query reusing the name gets its
        own template and a cold start."""
        _forget_name(name, self._warm_starts, self._templates)
