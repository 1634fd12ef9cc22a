"""The Dual-DAB approach (paper Section III-A.2–III-A.5).

Each item gets *two* bounds: a primary DAB ``b`` (the push filter at the
source, slightly more stringent than refresh-optimal) and a secondary DAB
``c >= b`` (checked only at the coordinator) defining the window of values
over which the primaries remain valid.  The tradeoff constant μ — the
message-cost of one recomputation — couples refreshes and recomputations in
a single objective:

    minimise    sum_i λ_i / b_i  +  μ · R
    subject to  sum_t w_t (prod (V_i+c_i+b_i)^{p_i} - prod (V_i+c_i)^{p_i}) <= B
                b_i <= c_i                    for every item
                λ_i / c_i <= R                (recomputation-rate envelope)
                c_i <= V_i                    (window stays positive)

(For the random-walk ddm the λ/b and λ/c terms become λ²/b² and λ²/c².)
All pieces are posynomials/monomials, so the problem is a geometric program.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.exceptions import NotPositiveCoefficientError
from repro.gp.monomial import Monomial
from repro.gp.posynomial import Posynomial, substitute
from repro.gp.program import GeometricProgram
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.filters.optimal_refresh import _built_for, _forget_name, _require_ppq
from repro.queries.deviation import (
    dual_dab_condition,
    primary_variable,
    secondary_variable,
)
from repro.queries.polynomial import PolynomialQuery

#: GP variable holding the recomputation rate R.
RECOMPUTE_RATE_VARIABLE = "R__rate"


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
        cost_model.refresh_objective(items)
        + Monomial(max(cost_model.recompute_cost, 1e-9), {rate_variable: 1.0})
    )
    program = GeometricProgram(objective=objective)
    program.add_constraint(
        dual_dab_condition(query.terms, values, query.qab), 1.0, name="qab")
    if recompute_envelope == "sum":
        program.add_constraint(
            Posynomial([cost_model.recompute_rate_monomial(name) for name in items])
            / rate_var,
            1.0, name="recompute",
        )
    for name in items:
        b = Monomial.variable(primary_variable(name))
        c = Monomial.variable(secondary_variable(name))
        program.add_constraint(b / c, 1.0, name=f"order[{name}]")
        if recompute_envelope == "max":
            program.add_constraint(cost_model.recompute_rate_monomial(name) / rate_var,
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


class DualDABPlanner:
    """Primary+secondary DAB planner for PPQs (the paper's main algorithm).

    Each query's GP is a :class:`~repro.filters.compiled_gp.CompiledDualDabTemplate`,
    built once per query and re-priced at every plan.  ``widen_windows``
    adds a second pass: with the primary DABs fixed at ``b*``, choose the
    secondary DABs minimising the *union-bound* recomputation rate
    ``sum_i λ_i / c_i`` subject to the same QAB condition.  The paper's
    formulation constrains only ``R = max_i λ_i / c_i``, which leaves the
    non-binding ``c_i`` degenerate — an interior-point solver (the paper's
    CVXOPT) lands on generous windows, an active-set solver parks them at
    their lower bound.  The pass removes the degeneracy deterministically,
    never touching refresh optimality (``b*`` is fixed) and never loosening
    the QAB guarantee; disable it to study the raw formulation.
    """

    def __init__(self, cost_model: CostModel, constrain_window: bool = True,
                 widen_windows: bool = True, recompute_envelope: str = "sum"):
        self.cost_model = cost_model
        self.constrain_window = constrain_window
        self.widen_windows = widen_windows
        self.recompute_envelope = recompute_envelope
        self._warm_starts: Dict[str, Dict[str, float]] = {}
        self._templates: Dict[str, object] = {}

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        """Compute primary and secondary DABs at the given item values.

        The returned assignment stays valid while every item remains within
        ``reference ± secondary``; only then must this method be called
        again (the coordinator's recompute policy enforces this).
        """
        items = query.variables
        template = self.ensure_template(query, values)
        solution = template.solve(
            values, initial=self._warm_starts.get(query.name))
        self._warm_starts[query.name] = dict(solution.values)

        primary = {name: solution.values[primary_variable(name)] for name in items}
        secondary = {name: solution.values[secondary_variable(name)] for name in items}
        # Numerical guard: the GP keeps b <= c only to solver tolerance.
        for name in items:
            if secondary[name] < primary[name]:
                secondary[name] = primary[name]
        if self.widen_windows:
            secondary = template.widen(
                values, primary, initial=self._warm_starts.get(query.name))
        return DABAssignment(
            primary=primary,
            secondary=secondary,
            reference_values={name: float(values[name]) for name in items},
            recompute_rate=solution.values[RECOMPUTE_RATE_VARIABLE],
            objective=solution.objective,
        )

    def ensure_template(self, query: PolynomialQuery,
                        values: Mapping[str, float]):
        """The query's :class:`CompiledDualDabTemplate`, assembled (and
        refreshed at ``values``) on the query's first use.  A same-named
        query with other terms or another QAB gets a new template, and its
        predecessor's warm start goes with the old one."""
        template = _built_for(self._templates, query)
        if template is None:
            from repro.filters.compiled_gp import CompiledDualDabTemplate

            _require_ppq(query, "DualDABPlanner")
            self._warm_starts.pop(query.name, None)
            template = self._templates[query.name] = CompiledDualDabTemplate(
                query, values, self.cost_model,
                constrain_window=self.constrain_window,
                recompute_envelope=self.recompute_envelope,
            )
        return template

    # -- delta-recompute plumbing ------------------------------------------------

    def warm_start(self, query_name: str) -> Optional[Dict[str, float]]:
        """The main-program optimum of the query's last solve (captured
        *before* widening) — the point a delta patch warm-starts from."""
        return self._warm_starts.get(query_name)

    def seed_warm_start(self, query_name: str,
                        values: Mapping[str, float]) -> None:
        """Adopt externally-computed solution values as the next warm start
        (a successful delta patch keeps the full-solve path in sync)."""
        self._warm_starts[query_name] = dict(values)

    def clear_warm_starts(self) -> None:
        """Drop cached solver starts (per-query); next solves run cold."""
        self._warm_starts.clear()

    def forget_query(self, name: str) -> None:
        """Drop every per-name cache for *name* (and the ``name__*``
        derivatives the split heuristics plan through) to release their
        memory once the query is gone.  Not needed for soundness: a
        different query reusing the name gets its own template and a cold
        start (:meth:`ensure_template`)."""
        _forget_name(name, self._warm_starts, self._templates)
