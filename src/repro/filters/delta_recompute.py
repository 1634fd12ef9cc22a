"""Delta-driven incremental recompute (the DBToaster idea for GP plans).

Most secondary-DAB window breaches barely move a query's optimum: one or
two items drifted past their window edge, the compiled-GP structure is
unchanged, and the previous optimum is an excellent start.  Answering
every breach with the full multi-start solve (phase-1 feasibility
restoration + SLSQP + trust-constr retries) wastes almost all of that
locality.

:class:`DeltaRecomputePlanner` wraps a :class:`DualDABPlanner` and answers
a breach with a *local coefficient patch*:

1. the query's compiled template refreshes its log-coefficient vectors at
   the new values (`changed_items` records which log-variables moved);
2. a warm-started Newton-KKT solve on the template's log-space program —
   starting from the last optimum and its active set — computes the
   patched main solution (primary DABs + recompute rate);
3. the widening program gets the same treatment for the secondary DABs;
4. the patch is **accepted only if** every KKT condition holds to
   tolerance (primal feasibility, dual feasibility ``ν >= 0``, and the
   stationarity/working-set residual of
   :func:`repro.gp.sensitivity.kkt_residual`) *and* the assembled plan
   satisfies the paper's QAB-over-window fidelity invariant
   (:meth:`DABAssignment.guarantees_qab_over_window`).  Anything else —
   degenerate KKT systems, an active set that will not settle, value
   perturbations too violent for a local step — *declines*, and the
   planner falls back to the full multi-start solve.

Soundness: the log-space program is convex, so a point satisfying the KKT
conditions to tolerance is the global optimum to (the same) tolerance —
the patched objective matches what the full solve would return, which is
exactly what the property-based equivalence suite asserts.  The QAB
invariant is additionally enforced directly, so even a wrongly-accepted
patch could never ship an unsound plan.

This is the only recompute pipeline, and it has one start ladder: the
query's last optimum; then the *linear anchor* (:func:`linear_anchor` —
the closed-form optimum of the linearised query, read off the refreshed
template's own arrays), which is where a query's first plan starts and
where a plan whose last optimum declined starts again; then the inner
planner's multi-start solve, which stays the last rung and the oracle the
equivalence suite compares patches against.  Both patch rungs go through
the same acceptance checks.

The patch and the full solve evaluate the program through the same fused
kernel (:meth:`repro.gp.program.CompiledProgram.evaluate`): exactly one
pass per Newton iterate yields every constraint value, the Jacobian rows
of the working set and the multiplier-weighted Lagrangian Hessian — the
warm start's pass seeds the working set, each round starts from the pass
its predecessor ended on, and the acceptance residual reads the accepted
iterate's.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from repro.exceptions import FilterError, GPError
from repro.filters.assignment import DABAssignment
from repro.filters.dual_dab import RECOMPUTE_RATE_VARIABLE, DualDABPlanner
from repro.filters.optimal_refresh import _built_for, _forget_name
from repro.gp.program import CompiledProgram, Evaluation
from repro.gp.sensitivity import kkt_residual
from repro.gp.solver import FEASIBILITY_TOL, _Y_BOUND
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.polynomial import PolynomialQuery

#: Constraints within this of active (log-space) seed the working set.
#: Loose on purpose: a coefficient refresh shifts a previously-active
#: constraint's value by roughly the relative value change, so the seed
#: must catch "active at the *old* optimum" — a spurious inclusion merely
#: costs one ν<0 drop round, a missed one leaves the KKT system without
#: the constraint that carries all the curvature (a qab constraint sitting
#: at -0.04 after a volatile tick would stall Newton entirely at 3e-2).
_WORKING_SET_TOL = 0.1

#: Secondary-to-primary DAB ratio ``c_i / b_i`` of the linear anchor.
_ANCHOR_WINDOW_RATIO = 4.0

#: Most bisection steps spent scaling the linear anchor onto ``qab``.
_ANCHOR_BISECTIONS = 14

#: Multipliers below this are treated as negative (drop from working set).
_DUAL_TOL = 1e-9

#: Largest per-coordinate log-space Newton step taken at once (e^2 ≈ 7.4×
#: in the original space); larger proposals are damped, not trusted.
_MAX_LOG_STEP = 2.0

#: Latency samples kept per category (enough for stable p99 at any
#: realistic run length while bounding memory on soaks).
_MAX_LATENCY_SAMPLES = 100_000


@dataclass
class PatchResult:
    """An accepted Newton-KKT patch of one compiled program."""

    values: Dict[str, float]
    objective: float
    residual: float
    iterations: int


@dataclass
class DeltaStats:
    """Patch/fallback/residual counters for the stats plane.

    ``patches``/``fallbacks`` partition the recomputes — the window
    breaches of a dual-DAB stack, every plan after a query's first on
    Optimal Refresh — into patched and fell back to the full solve;
    ``cold_solves`` are first plans, which had no previous optimum to
    patch from.  Which rung of the start ladder answered cuts across both:
    ``reanchors`` are plans patched from the linear anchor,
    ``multistart_solves`` plans that reached the solve, and every other
    plan was patched from its query's last optimum.  ``declines`` counts
    declined *attempts* by reason — a plan that falls through both patch
    rungs notes two.  Latency samples are kept per category so the
    benchmarks can report percentiles.
    """

    patches: int = 0
    fallbacks: int = 0
    cold_solves: int = 0
    reanchors: int = 0
    multistart_solves: int = 0
    patch_newton_iterations: int = 0
    affected_items: int = 0
    last_residual: float = 0.0
    max_residual: float = 0.0
    declines: Dict[str, int] = field(default_factory=dict)
    patch_seconds: List[float] = field(default_factory=list)
    fallback_seconds: List[float] = field(default_factory=list)
    cold_seconds: List[float] = field(default_factory=list)

    @property
    def breaches(self) -> int:
        return self.patches + self.fallbacks

    @property
    def patch_hit_rate(self) -> float:
        """Fraction of window breaches resolved without a full solve."""
        return self.patches / self.breaches if self.breaches else 0.0

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.breaches if self.breaches else 0.0

    def note_decline(self, reason: str) -> None:
        self.declines[reason] = self.declines.get(reason, 0) + 1

    def note_residual(self, residual: float) -> None:
        self.last_residual = float(residual)
        if residual > self.max_residual:
            self.max_residual = float(residual)

    def record_plan(self, seconds: float, first: bool, patched: bool) -> None:
        """Count one plan — a first plan, a patched recompute or one that
        fell back to the solve — and keep its latency."""
        if first:
            self.cold_solves += 1
            samples = self.cold_seconds
        elif patched:
            self.patches += 1
            samples = self.patch_seconds
        else:
            self.fallbacks += 1
            samples = self.fallback_seconds
        if len(samples) < _MAX_LATENCY_SAMPLES:
            samples.append(float(seconds))

    def breach_seconds(self) -> List[float]:
        """Latencies of breach-driven recomputes: patches + fallbacks."""
        return self.patch_seconds + self.fallback_seconds

    def latency_summary(self) -> Dict[str, float]:
        """The ``recompute_latency`` section: breach-resolution percentiles
        (milliseconds), patch-hit/fallback rates and the largest KKT
        residual an accepted patch carried."""
        samples = self.breach_seconds()
        summary: Dict[str, float] = {
            "samples": len(samples),
            "patches": self.patches,
            "fallbacks": self.fallbacks,
            "cold_solves": self.cold_solves,
            "reanchors": self.reanchors,
            "multistart_solves": self.multistart_solves,
            "patch_hit_rate": round(self.patch_hit_rate, 4),
            "fallback_rate": round(self.fallback_rate, 4),
            "max_residual": self.max_residual,
        }
        if samples:
            arr = np.asarray(samples) * 1000.0
            for label, q in (("p50", 50), ("p95", 95), ("p99", 99)):
                summary[f"{label}_ms"] = round(float(np.percentile(arr, q)), 4)
            summary["mean_ms"] = round(float(arr.mean()), 4)
        if self.cold_seconds:
            summary["cold_p50_ms"] = round(
                float(np.median(self.cold_seconds)) * 1000.0, 4)
        return summary

    def snapshot(self) -> Dict[str, object]:
        """Counter snapshot for the service stats plane (no latency lists)."""
        return {
            "patches": self.patches,
            "fallbacks": self.fallbacks,
            "cold_solves": self.cold_solves,
            "reanchors": self.reanchors,
            "multistart_solves": self.multistart_solves,
            "patch_hit_rate": round(self.patch_hit_rate, 4),
            "last_residual": self.last_residual,
            "max_residual": self.max_residual,
            "declines": dict(self.declines),
        }


@dataclass
class _PatchState:
    """What a query's next patch starts from: the last main-program optimum
    (``None`` until one is accepted) and the last widened secondary DABs,
    kept for the query they were solved for and no other."""

    query: PolynomialQuery
    main: Optional[Dict[str, float]] = None
    secondary: Dict[str, float] = field(default_factory=dict)


def _newton_working_set(
    compiled: CompiledProgram,
    y0: np.ndarray,
    evaluation: Evaluation,
    working: Sequence[int],
    max_iterations: int,
    kkt_tol: float,
):
    """Newton on the KKT equalities of a fixed working set.

    Solves ``min F0(y)  s.t.  F_i(y) = 0, i in working`` from ``y0`` (with
    ``evaluation`` the program's evaluation there) by iterating the
    (regularised) KKT system

        [ H   Aᵀ ] [dy]   [-(∇F0 + Aᵀν)]
        [ A   0  ] [dν] = [    -F       ]

    where ``H`` is the Lagrangian Hessian with multipliers clipped at zero
    (each term is PSD, so ``H`` stays PSD).  Returns ``(y, ν, residual,
    iterations, evaluation at y)`` with ``residual`` the *unregularised* KKT
    residual — acceptance never trusts the damping/regularisation tricks
    used to get there.
    """
    n = y0.shape[0]
    k = len(working)
    # Function indices in the kernel's stacking: objective 0, constraint i
    # at 1 + i.
    rows = 1 + np.asarray(working, dtype=int)
    curved = compiled.multi_row[rows]
    hessian_weights = np.zeros(len(compiled.constraints) + 1)
    hessian_weights[0] = 1.0
    y = y0.copy()
    jacobian = evaluation.jacobian()
    # Seed the multipliers with the NNLS stationarity fit (the sensitivity
    # machinery's recovery) instead of zero: the Lagrangian Hessian only
    # has curvature in the secondary-DAB directions through ν-weighted
    # constraint Hessians, so a zero seed makes the first KKT system
    # singular and the damped steps stall.
    nu = np.zeros(k)
    if k:
        try:
            nu = nnls(jacobian[rows].T, -jacobian[0])[0]
        except (ValueError, RuntimeError):
            nu = np.zeros(k)
    eye = np.eye(n)
    residual = math.inf
    for iteration in range(max_iterations):
        A = jacobian[rows]
        c = evaluation.values[rows]
        stationarity = jacobian[0] + nu @ A
        residual = max(float(np.max(np.abs(stationarity), initial=0.0)),
                       float(np.max(np.abs(c), initial=0.0)))
        if residual <= kkt_tol:
            return y, nu, residual, iteration, evaluation
        # Only true posynomials with a positive multiplier add curvature.
        hessian_weights[rows] = np.where(curved, np.maximum(nu, 0.0), 0.0)
        system = np.zeros((n + k, n + k))
        system[:n, :n] = evaluation.hessian(hessian_weights) + 1e-10 * eye
        system[:n, n:] = A.T
        system[n:, :n] = A
        rhs = np.concatenate([-stationarity, -c])
        try:
            step = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(system, rhs, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return y, nu, math.inf, iteration, evaluation
        dy, dnu = step[:n], step[n:]
        largest = float(np.max(np.abs(dy))) if n else 0.0
        scale = _MAX_LOG_STEP / largest if largest > _MAX_LOG_STEP else 1.0
        y = np.clip(y + scale * dy, -_Y_BOUND, _Y_BOUND)
        nu = nu + scale * dnu
        evaluation = compiled.evaluate(y)
        jacobian = evaluation.jacobian()
    return y, nu, residual, max_iterations, evaluation


def newton_patch(
    compiled: CompiledProgram,
    start: Optional[Mapping[str, float]],
    kkt_tol: float = 1e-7,
    feasibility_tol: float = FEASIBILITY_TOL,
    max_newton_iterations: int = 12,
    max_working_set_rounds: int = 4,
) -> Optional[PatchResult]:
    """Warm-started Newton-KKT patch of a refreshed compiled program.

    ``start`` is the previous optimum or the linear anchor (original-space
    values, every variable present and positive).  Returns the patched
    solution, or ``None`` whenever any acceptance condition fails — the
    caller then moves down the start ladder.  Never raises on numerical
    trouble: a bad patch is a decline, not an error.
    """
    if start is None:
        return None
    order = compiled.variables
    y = np.empty(len(order))
    for j, name in enumerate(order):
        value = start.get(name)
        if value is None or not (value > 0.0) or not math.isfinite(value):
            return None
        y[j] = math.log(value)
    y = np.clip(y, -_Y_BOUND, _Y_BOUND)

    # Seed the working set with the constraints (near-)active or violated
    # at the warm start under the *new* coefficients.
    evaluation = compiled.evaluate(y)
    working = np.flatnonzero(
        evaluation.values[1:] >= -_WORKING_SET_TOL).tolist()

    iterations = 0
    log_feas = math.log1p(feasibility_tol)
    for _ in range(max_working_set_rounds):
        y, nu, residual, used, evaluation = _newton_working_set(
            compiled, y, evaluation, working, max_newton_iterations, kkt_tol)
        iterations += used
        if not math.isfinite(residual) or residual > kkt_tol:
            return None
        in_working = set(working)
        violated = [
            i for i in np.flatnonzero(evaluation.values[1:] > log_feas).tolist()
            if i not in in_working]
        negative = [j for j, multiplier in enumerate(nu)
                    if multiplier < -_DUAL_TOL]
        if not violated and not negative:
            objective = math.exp(float(evaluation.values[0]))
            final_residual = kkt_residual(
                compiled, y, working, np.maximum(nu, 0.0),
                evaluation=evaluation)
            if final_residual > 10.0 * kkt_tol:
                return None
            return PatchResult(
                values={name: float(math.exp(y[j]))
                        for j, name in enumerate(order)},
                objective=objective,
                residual=final_residual,
                iterations=iterations,
            )
        if negative:
            # Drop the most negative multiplier's constraint; the convex
            # active-set update that cannot cycle within the round budget.
            drop = working[min(negative, key=lambda j: nu[j])]
            working = [i for i in working if i != drop]
        working = sorted(set(working) | set(violated))
    return None


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
    (see :data:`_WORKING_SET_TOL`) — unconstrained Newton on this
    objective has no minimiser — so the point is bisected along the ray
    that scales every DAB together (and ``R`` with them, keeping the
    envelope active) until ``qab`` sits within half the working-set
    tolerance inside active.
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


class DeltaRecomputePlanner:
    """Patch-first recompute wrapper around a :class:`DualDABPlanner`.

    Sits *below* the Different-Sum / Half-and-Half mirroring wrappers (so
    it only ever sees PPQs, exactly like the inner planner) and *above*
    the inner :class:`DualDABPlanner`, whose multi-start solve answers
    only what both patch rungs declined.
    """

    def __init__(
        self,
        inner: DualDABPlanner,
        kkt_tol: float = 1e-7,
        max_newton_iterations: int = 12,
        max_working_set_rounds: int = 4,
    ):
        self.inner = inner
        self.kkt_tol = float(kkt_tol)
        self.max_newton_iterations = int(max_newton_iterations)
        self.max_working_set_rounds = int(max_working_set_rounds)
        self.stats = DeltaStats()
        self._states: Dict[str, _PatchState] = {}

    # -- planning -----------------------------------------------------------------

    def plan(self, query: PolynomialQuery,
             values: Mapping[str, float]) -> DABAssignment:
        started = _time.perf_counter()
        stats = self.stats
        state = _built_for(self._states, query)
        first = state is None
        plan = None
        if state is not None:
            plan = self._try_patch(query, values, state)
        if plan is None:
            anchor = _PatchState(query)
            plan = self._try_patch(query, values, anchor)
            if plan is not None:
                self._states[query.name] = anchor
                stats.reanchors += 1
        patched = plan is not None
        if plan is None:
            plan = self._full_solve(query, values)
            stats.multistart_solves += 1
        stats.record_plan(_time.perf_counter() - started, first, patched)
        return plan

    def _full_solve(self, query: PolynomialQuery,
                    values: Mapping[str, float]) -> DABAssignment:
        """The inner multi-start solve, with the patch state re-anchored on
        its result (GP failures propagate — the coordinator's degradation
        machinery owns those)."""
        try:
            plan = self.inner.plan(query, values)
        except GPError:
            # No sound optimum to patch from next breach.
            self._states.pop(query.name, None)
            raise
        main = self.inner.warm_start(query.name)
        if main is not None and plan.secondary is not None:
            self._states[query.name] = _PatchState(
                query, dict(main), dict(plan.secondary))
        return plan

    def _try_patch(self, query: PolynomialQuery, values: Mapping[str, float],
                   state: _PatchState) -> Optional[DABAssignment]:
        """One plan, patched from ``state.main`` — from the linear anchor
        when ``state`` has none yet — or ``None`` with the decline reason
        noted."""
        stats = self.stats
        items = query.variables
        template = self.inner.ensure_template(query, values)
        try:
            affected = template.changed_items(values)
            template.refresh(values)
        except (KeyError, ValueError, OverflowError):
            stats.note_decline("refresh_error")
            return None
        stats.affected_items += len(affected)

        main = newton_patch(
            template.compiled, state.main or linear_anchor(template),
            kkt_tol=self.kkt_tol,
            max_newton_iterations=self.max_newton_iterations,
            max_working_set_rounds=self.max_working_set_rounds,
        )
        if main is None:
            stats.note_decline("main_kkt")
            return None
        stats.patch_newton_iterations += main.iterations

        primary = {name: main.values[primary_variable(name)] for name in items}
        secondary = {name: main.values[secondary_variable(name)]
                     for name in items}
        for name in items:
            if secondary[name] < primary[name]:
                secondary[name] = primary[name]

        if self.inner.widen_windows:
            widen = self._patch_widening(query, values, primary, secondary,
                                         state, template)
            if widen is None:
                return None
            secondary = widen

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
        # Keep the full-solve path warm-started from the patched optimum,
        # exactly as a full solve would have left it.
        self.inner.seed_warm_start(query.name, main.values)
        stats.note_residual(main.residual)
        return plan

    def _patch_widening(self, query, values, primary, main_secondary,
                        state, template) -> Optional[Dict[str, float]]:
        """Newton-patch the secondary-widening program; ``None`` declines."""
        stats = self.stats
        items = query.variables
        try:
            widen_template = template.widen_template(values, primary)
            widen_template.refresh(values, primary)
        except GPError:
            stats.note_decline("widen_infeasible")
            return None
        start = {}
        previous = state.secondary
        for name in items:
            c = previous.get(name, main_secondary[name])
            start[secondary_variable(name)] = max(float(c), primary[name])
        result = newton_patch(
            widen_template.compiled, start,
            kkt_tol=self.kkt_tol,
            max_newton_iterations=self.max_newton_iterations,
            max_working_set_rounds=self.max_working_set_rounds,
        )
        if result is None:
            stats.note_decline("widen_kkt")
            return None
        secondary = {name: result.values[secondary_variable(name)]
                     for name in items}
        for name in items:
            if secondary[name] < primary[name]:
                secondary[name] = float(primary[name])
        return secondary

    # -- stack protocol -----------------------------------------------------------

    def forget_query(self, name: str) -> None:
        """Drop *name*'s anchor state and the inner planner's per-name
        caches, releasing their memory once the query is gone (a query
        re-registered under the name starts cold either way)."""
        _forget_name(name, self._states)
        forget = getattr(self.inner, "forget_query", None)
        if forget is not None:
            forget(name)

    def clear_warm_starts(self) -> None:
        """Fault resync: drop the inner solver starts *and* the patch
        anchors — a patch from a pre-resync optimum would face arbitrary
        value drift, exactly what the resync says happened."""
        self._states.clear()
        self.inner.clear_warm_starts()


def _stack(node: object):
    """The planners of a stack, outermost first, along its ``.base`` /
    ``.inner`` links."""
    seen = set()
    while node is not None and id(node) not in seen:
        yield node
        seen.add(id(node))
        node = getattr(node, "base", None) or getattr(node, "inner", None)


def find_delta_planner(planner: object) -> Optional[DeltaRecomputePlanner]:
    """Walk a planner stack to the :class:`DeltaRecomputePlanner`, if one
    is wired in."""
    return next((node for node in _stack(planner)
                 if isinstance(node, DeltaRecomputePlanner)), None)


def find_planner_stats(planner: object) -> Optional[DeltaStats]:
    """The :class:`DeltaStats` of a planner stack's patch ladder — the
    :class:`DeltaRecomputePlanner`'s or the
    :class:`~repro.filters.optimal_refresh.OptimalRefreshPlanner`'s — if
    the stack has one."""
    return next((node.stats for node in _stack(planner)
                 if isinstance(getattr(node, "stats", None), DeltaStats)),
                None)
