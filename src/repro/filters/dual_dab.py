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

:class:`DualDABPlanner` answers each plan with a three-rung start ladder
on the query's compiled template: a Newton-KKT patch
(:func:`repro.filters.delta_recompute.newton_patch`) from the query's last
optimum; then a patch from the *linear anchor* (:func:`linear_anchor`, the
closed-form optimum of the linearised query), which is where a first plan
starts; then the template's multi-start solve, warm-started from the last
optimum.  A patch is accepted only under ``newton_patch``'s KKT checks and
the paper's QAB-over-window invariant
(:meth:`DABAssignment.guarantees_qab_over_window`).  The program is convex
in log space, so an accepted patch is the optimum the solve would find, to
tolerance.  The object builders below are the test oracle for all three.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.exceptions import FilterError, GPError
from repro.gp.monomial import Monomial
from repro.gp.posynomial import Posynomial, substitute
from repro.gp.program import GeometricProgram
from repro.gp.solver import _Y_BOUND
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.filters.delta_recompute import (
    _WORKING_SET_TOL,
    DeltaStats,
    newton_patch,
)
from repro.filters.optimal_refresh import _built_for, _forget_name, _require_ppq
from repro.queries.deviation import (
    dual_dab_condition,
    primary_variable,
    secondary_variable,
)
from repro.queries.polynomial import PolynomialQuery

#: GP variable holding the recomputation rate R.
RECOMPUTE_RATE_VARIABLE = "R__rate"

#: Secondary-to-primary DAB ratio ``c_i / b_i`` of the linear anchor.
_ANCHOR_WINDOW_RATIO = 4.0

#: Most bisection steps spent scaling the linear anchor onto ``qab``.
_ANCHOR_BISECTIONS = 14


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


def linear_anchor(template) -> Dict[str, float]:
    """A Newton-KKT start for a refreshed dual-DAB template that has no
    usable last optimum: the optimum of the *linearised* query, scaled onto
    the real QAB constraint.

    The ``qab`` rows whose signature is ``b_i`` alone carry
    ``a_i = ∂P/∂x_i / B`` at the template's values, so the linearised
    program is the paper's LAQ case, ``min Σ λ_i b_i^-p`` subject to
    ``Σ a_i b_i <= 1``, solved in closed form by
    ``b_i ∝ (λ_i / a_i)^(1/(p+1))``.  Windows open at a fixed ratio,
    ``c_i = min(κ b_i, V_i / 2)``, and ``R`` is set where the recompute
    envelope is active.  The higher-order rows then leave ``qab``
    violated, and a start far *inside* it would seed an empty working set
    (see :data:`~repro.filters.delta_recompute._WORKING_SET_TOL`) —
    unconstrained Newton on this objective has no minimiser — so the point
    is bisected along the ray that scales every DAB together (and ``R``
    with them, keeping the envelope active) until ``qab`` sits within half
    the working-set tolerance inside active.
    """
    compiled = template.compiled
    names = compiled.constraint_names
    items = template.query.variables
    column = {name: j for j, name in enumerate(compiled.variables)}
    b = np.array([column[primary_variable(name)] for name in items])
    c = np.array([column[secondary_variable(name)] for name in items])
    rate = column[RECOMPUTE_RATE_VARIABLE]
    qab_index = names.index("qab")
    qab = compiled.constraints[qab_index]
    objective = compiled.objective

    priced = np.argmax(objective.A[:, b] != 0.0, axis=0)
    power = -float(objective.A[priced[0], b[0]])
    log_lam = objective.log_c[priced]
    linear = ((np.count_nonzero(qab.A, axis=1) == 1)[:, None]
              & (qab.A[:, b] == 1.0))
    log_a = qab.log_c[np.argmax(linear, axis=0)]
    log_b = (log_lam - log_a) / (power + 1.0)
    log_b -= np.log(np.exp(log_a + log_b).sum())
    log_v = np.log([template.last_values[name] for name in items])
    log_c = np.minimum(log_b + math.log(_ANCHOR_WINDOW_RATIO),
                       log_v - math.log(2.0))
    if template.constrain_window:
        # A secondary DAB the QAB condition does not mention (its item
        # enters the query linearly) is bounded by its window alone.
        log_c = np.where(qab.A[:, c].any(axis=0), log_c, log_v)
    crossings = np.exp(log_lam - power * log_c)
    y = np.zeros(len(compiled.variables))
    y[b], y[c] = log_b, log_c
    y[rate] = np.log(
        crossings.sum() if "recompute" in names else crossings.max())
    ray = np.zeros_like(y)
    ray[b] = ray[c] = 1.0
    ray[rate] = -power

    # Every qab row has degree >= 1 in the DABs and the linear rows sum to
    # one, so 0 <= excess and scaling by exp(-excess) is feasible.
    low, high = -float(compiled.evaluate(y).values[1 + qab_index]), 0.0
    shift = low
    for _ in range(_ANCHOR_BISECTIONS):
        excess = float(
            compiled.evaluate(y + shift * ray).values[1 + qab_index])
        if excess > 0.0:
            high = shift
        elif excess >= -0.5 * _WORKING_SET_TOL:
            break
        else:
            low = shift
        shift = 0.5 * (low + high)
    else:
        shift = low
    y = np.clip(y + shift * ray, -_Y_BOUND, _Y_BOUND)
    return dict(zip(compiled.variables, np.exp(y).tolist()))


@dataclass
class _QueryState:
    """What the ladder keeps per query, for the query it was built for and
    no other: the compiled template, the last main-program optimum
    (``None`` before the first plan, after a resync and after a failed
    solve) and the last widened secondary DABs."""

    query: PolynomialQuery
    template: object
    main: Optional[Dict[str, float]] = None
    secondary: Dict[str, float] = field(default_factory=dict)


class DualDABPlanner:
    """Primary+secondary DAB planner for PPQs (the paper's main algorithm).

    Each query's GP is a :class:`~repro.filters.compiled_gp.CompiledDualDabTemplate`,
    built once per query and re-priced at every plan, which runs the start
    ladder of the module docstring; ``stats`` counts its rungs.
    ``widen_windows`` adds a second pass: with the primary DABs fixed at
    ``b*``, choose the secondary DABs minimising the *union-bound*
    recomputation rate ``sum_i λ_i / c_i`` subject to the same QAB
    condition.  The paper's formulation constrains only
    ``R = max_i λ_i / c_i``, which leaves the non-binding ``c_i``
    degenerate — an interior-point solver (the paper's CVXOPT) lands on
    generous windows, an active-set solver parks them at their lower
    bound.  The pass removes the degeneracy deterministically, never
    touching refresh optimality (``b*`` is fixed) and never loosening the
    QAB guarantee; disable it to study the raw formulation.
    """

    def __init__(self, cost_model: CostModel, constrain_window: bool = True,
                 widen_windows: bool = True, recompute_envelope: str = "sum"):
        self.cost_model = cost_model
        self.constrain_window = constrain_window
        self.widen_windows = widen_windows
        self.recompute_envelope = recompute_envelope
        self.stats = DeltaStats()
        self._queries: Dict[str, _QueryState] = {}

    def plan(self, query: PolynomialQuery, values: Mapping[str, float]) -> DABAssignment:
        """Compute primary and secondary DABs at the given item values.

        The returned assignment stays valid while every item remains within
        ``reference ± secondary``; only then must this method be called
        again (the coordinator's recompute policy enforces this).
        """
        started = _time.perf_counter()
        stats = self.stats
        state = self._state(query, values)
        first = state.main is None
        plan = None if first else self._patch(state, values, anchored=False)
        if plan is None:
            plan = self._patch(state, values, anchored=True)
            if plan is not None:
                stats.reanchors += 1
        patched = plan is not None
        if plan is None:
            plan = self._solve(state, values)
            stats.multistart_solves += 1
        stats.record_plan(_time.perf_counter() - started, first, patched)
        return plan

    def _state(self, query: PolynomialQuery,
               values: Mapping[str, float]) -> _QueryState:
        """The query's state, with its template assembled (and refreshed at
        ``values``) on first use.  A same-named query with other terms or
        another QAB starts over: new template, no optimum."""
        state = _built_for(self._queries, query)
        if state is None:
            from repro.filters.compiled_gp import CompiledDualDabTemplate

            _require_ppq(query, "DualDABPlanner")
            state = self._queries[query.name] = _QueryState(
                query, CompiledDualDabTemplate(
                    query, values, self.cost_model,
                    constrain_window=self.constrain_window,
                    recompute_envelope=self.recompute_envelope))
        return state

    def _patch(self, state: _QueryState, values: Mapping[str, float],
               anchored: bool) -> Optional[DABAssignment]:
        """One plan, patched from the query's last optimum — from the linear
        anchor when ``anchored`` — or ``None`` with the decline reason
        noted.  Only an accepted patch moves ``state``."""
        stats = self.stats
        query, template = state.query, state.template
        items = query.variables
        try:
            affected = template.changed_items(values)
            template.refresh(values)
        except (KeyError, ValueError, OverflowError):
            stats.note_decline("refresh_error")
            return None
        stats.affected_items += len(affected)

        main = newton_patch(
            template.compiled,
            linear_anchor(template) if anchored else state.main)
        if main is None:
            stats.note_decline("main_kkt")
            return None
        stats.patch_newton_iterations += main.iterations

        primary = {name: main.values[primary_variable(name)] for name in items}
        secondary = {name: max(main.values[secondary_variable(name)],
                               primary[name]) for name in items}
        if self.widen_windows:
            secondary = self._patch_widening(
                state, values, primary, secondary,
                {} if anchored else state.secondary)
            if secondary is None:
                return None

        try:
            plan = DABAssignment(
                primary=primary,
                secondary=secondary,
                reference_values={name: float(values[name]) for name in items},
                recompute_rate=main.values[RECOMPUTE_RATE_VARIABLE],
                objective=main.objective,
            )
        except FilterError:
            stats.note_decline("invalid_assignment")
            return None
        # The fidelity invariant is a hard post-condition: even an
        # erroneously-accepted KKT point may never ship an unsound plan.
        if not plan.guarantees_qab_over_window(query):
            stats.note_decline("qab_invariant")
            return None

        state.main = dict(main.values)
        state.secondary = dict(secondary)
        stats.note_residual(main.residual)
        return plan

    def _patch_widening(self, state: _QueryState, values: Mapping[str, float],
                        primary: Mapping[str, float],
                        main_secondary: Mapping[str, float],
                        previous: Mapping[str, float]
                        ) -> Optional[Dict[str, float]]:
        """Newton-patch the secondary-widening program from the
        ``previous`` widened secondaries (the main optimum's where there
        are none); ``None`` declines."""
        stats = self.stats
        items = state.query.variables
        try:
            widen_template = state.template.widen_template(values, primary)
            widen_template.refresh(values, primary)
        except GPError:
            stats.note_decline("widen_infeasible")
            return None
        start = {
            secondary_variable(name): max(
                float(previous.get(name, main_secondary[name])), primary[name])
            for name in items}
        result = newton_patch(widen_template.compiled, start)
        if result is None:
            stats.note_decline("widen_kkt")
            return None
        return {name: max(result.values[secondary_variable(name)],
                          float(primary[name])) for name in items}

    def _solve(self, state: _QueryState,
               values: Mapping[str, float]) -> DABAssignment:
        """The last rung: the template's multi-start solve, warm-started
        from the last optimum.  A GP failure propagates (the coordinator's
        degradation machinery owns those) and leaves no optimum to patch
        from."""
        template, items = state.template, state.query.variables
        try:
            solution = template.solve(values, initial=state.main)
            primary = {name: solution.values[primary_variable(name)]
                       for name in items}
            # Numerical guard: the GP keeps b <= c only to solver tolerance.
            secondary = {name: max(solution.values[secondary_variable(name)],
                                   primary[name]) for name in items}
            if self.widen_windows:
                secondary = template.widen(values, primary,
                                           initial=solution.values)
        except GPError:
            state.main, state.secondary = None, {}
            raise
        plan = DABAssignment(
            primary=primary,
            secondary=secondary,
            reference_values={name: float(values[name]) for name in items},
            recompute_rate=solution.values[RECOMPUTE_RATE_VARIABLE],
            objective=solution.objective,
        )
        state.main = dict(solution.values)
        state.secondary = dict(plan.secondary)
        return plan

    # -- stack protocol -----------------------------------------------------------

    def clear_warm_starts(self) -> None:
        """Fault resync: drop every query's optimum, so the next plans start
        from the linear anchor — a patch from a pre-resync optimum would
        face arbitrary value drift, exactly what the resync says happened."""
        for state in self._queries.values():
            state.main, state.secondary = None, {}

    def forget_query(self, name: str) -> None:
        """Drop *name*'s state (and the ``name__*`` derivatives the split
        heuristics plan through) to release its memory once the query is
        gone.  Not needed for soundness: a different query reusing the
        name gets its own template and starts cold."""
        _forget_name(name, self._queries)
