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

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.dynamics.models import refresh_rate_exponent
from repro.exceptions import FilterError, NotPositiveCoefficientError
from repro.filters.assignment import DABAssignment, MultiQueryAssignment
from repro.filters.compiled_gp import (
    CompiledDualDabTemplate,
    _assemble_priced,
    _log_rate,
    _priced,
)
from repro.filters.cost_model import CostModel
from repro.filters.heuristics import DifferentSumPlanner
from repro.gp.program import CompiledProgram
from repro.gp.solver import solve_compiled
from repro.queries.compiled import CompiledDeviation
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery


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


def _onto_qab(deviation: CompiledDeviation, query: PolynomialQuery,
              values: Mapping[str, float],
              primary: Dict[str, float]) -> Dict[str, float]:
    """``primary`` scaled down onto ``query``'s QAB where the joint solve
    overshot it by solver noise, so the widening pass is feasible (its
    condition at ``c = b`` is at most 1): every deviation row has degree
    >= 1 in the DABs, so scaling them by ``s <= 1`` scales it by <= ``s``."""
    point = {**{primary_variable(name): b for name, b in primary.items()},
             **{secondary_variable(name): b for name, b in primary.items()}}
    load = sum(math.prod([c, *(point[v] ** e for v, e in signature)])
               for signature, c in zip(deviation.signatures,
                                       deviation.coefficients(values, qab=query.qab)))
    if load <= 1.0:
        return primary
    scale = math.nextafter(1.0 / load, 0.0)
    return {name: bound * scale for name, bound in primary.items()}


class AAOPlanner:
    """All At Once: the joint GP over every query.

    The objective is the total message rate:
    ``sum_i λ_i/b_i + μ · sum_q R_q`` — refreshes counted once against the
    shared primaries, recomputations per query.  Per query ``q`` the
    program has its dual-DAB condition over the shared ``b`` and its own
    secondaries ``c__q{k}__<item>``, and per item ``order`` (``b <= c``),
    ``recompute`` (``λ/c <= R_q``) and ``window`` (``c <= V``) rows.
    ``recompute_scales`` (query name -> share of μ, default 1) prices each
    query's ``μ · R_q`` row at its coordinator's recompute price.
    """

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model
        self._warm_start: Optional[Dict[str, float]] = None

    def build_program(self, queries: Sequence[PolynomialQuery],
                      values: Mapping[str, float],
                      recompute_scales: Optional[Mapping[str, float]] = None,
                      ) -> CompiledProgram:
        """The joint program, assembled from arrays: each query's
        :class:`CompiledDeviation` rows with its secondaries renamed, and
        the one- and two-variable rows around them."""
        if not queries:
            raise FilterError("AAO needs at least one query")
        for query in queries:
            if not query.is_positive_coefficient:
                raise NotPositiveCoefficientError(
                    f"AAO is formulated for PPQs; {query.name} has negative terms. "
                    "Mirror it first (positive_mirror) or use EQI with a heuristic."
                )
        cost_model = self.cost_model
        scales = recompute_scales or {}
        power = refresh_rate_exponent(cost_model.ddm)
        all_items = sorted({name for q in queries for name in q.variables})
        log_rate = {item: _log_rate(cost_model, item) for item in all_items}
        functions = [_priced("objective", [
            (((primary_variable(item), power),), log_rate[item])
            for item in all_items] + [
            (((_aao_rate(index), 1.0),), math.log(max(
                cost_model.recompute_cost
                * scales.get(query.name, 1.0), 1e-9)))
            for index, query in enumerate(queries)])]
        for index, query in enumerate(queries):
            rename = {secondary_variable(name): _aao_secondary(index, name)
                      for name in query.variables}
            deviation = CompiledDeviation(query.terms, include_secondary=True)
            functions.append(_priced(f"qab[{query.name}]", [
                (tuple(sorted((rename.get(name, name), exponent)
                              for name, exponent in signature)), log_c)
                for signature, log_c in zip(
                    deviation.signatures,
                    deviation.log_coefficients(values, qab=query.qab))]))
            rate = _aao_rate(index)
            for name in query.variables:
                b, c = primary_variable(name), _aao_secondary(index, name)
                label = f"{query.name}:{name}"
                functions.append((f"order[{label}]", [((b, 1.0), (c, -1.0))],
                                  [0.0]))
                functions.append((f"recompute[{label}]",
                                  [((rate, -1.0), (c, power))],
                                  [log_rate[name]]))
                functions.append((f"window[{label}]", [((c, 1.0),)],
                                  [math.log(1.0 / float(values[name]))]))
        return _assemble_priced(functions)

    def plan_all(self, queries: Sequence[PolynomialQuery],
                 values: Mapping[str, float],
                 recompute_scales: Optional[Mapping[str, float]] = None,
                 ) -> MultiQueryAssignment:
        solution = solve_compiled(
            self.build_program(queries, values, recompute_scales),
            initial=self._warm_start)
        self._warm_start = dict(solution.values)

        per_query: Dict[str, DABAssignment] = {}
        for index, query in enumerate(queries):
            items = query.variables
            template = CompiledDualDabTemplate(query, values, self.cost_model)
            primary = _onto_qab(template.deviation, query, values, {
                name: solution.values[primary_variable(name)] for name in items})
            per_query[query.name] = DABAssignment(
                primary=primary,
                secondary=template.widen(values, primary),
                reference_values={name: float(values[name]) for name in items},
                recompute_rate=solution.values[_aao_rate(index)],
                objective=solution.objective,
            )
        return MultiQueryAssignment.from_assignments(per_query)

    def clear_warm_starts(self) -> None:
        """Fault resync: drop the last joint optimum, so the next joint
        solve starts cold rather than near the pre-crash values."""
        self._warm_start = None


@dataclass(frozen=True)
class AAOTSchedule:
    """Configuration of the Figure-7 hybrid: a full AAO recomputation every
    ``period`` ticks; secondary-window violations in between are patched
    per query with Dual-DAB and merged by min-primary."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise FilterError(f"AAO-T period must be >= 1 tick, got {self.period!r}")
