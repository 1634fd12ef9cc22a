"""The Newton-KKT patch kernel both planner ladders share (the DBToaster
idea for GP plans).

Most re-plans barely move a query's optimum: one or two items drifted, the
compiled-GP structure is unchanged, and the previous optimum is an
excellent start.  :func:`newton_patch` re-solves a refreshed compiled
program from such a start by warm-started Newton on the KKT system of a
working set of constraints:

1. the working set is seeded with the constraints (near-)active at the
   start under the *new* coefficients;
2. Newton on the KKT equalities of the working set (:func:`_newton_working_set`)
   drives the stationarity and feasibility residuals to tolerance;
3. a violated constraint joins the working set, the one with the most
   negative multiplier leaves it, and the round repeats;
4. the patch is **accepted only if** every KKT condition holds to
   tolerance (primal feasibility, dual feasibility ``ν >= 0``, and the
   stationarity/working-set residual of
   :func:`repro.gp.sensitivity.kkt_residual`).  Anything else — degenerate
   KKT systems, an active set that will not settle, value perturbations
   too violent for a local step — *declines* (returns ``None``), and the
   caller moves down its start ladder.

Soundness: the log-space program is convex, so a point satisfying the KKT
conditions to tolerance is the global optimum to (the same) tolerance —
the patched objective matches what the full solve would return, which is
exactly what the property-based equivalence suites assert.  The callers
additionally enforce the plan's QAB invariant, so even a wrongly-accepted
patch could never ship an unsound plan.

The callers are :class:`~repro.filters.dual_dab.DualDABPlanner` (last
optimum → linear anchor → multi-start solve) and
:class:`~repro.filters.optimal_refresh.OptimalRefreshPlanner` (last
optimum → solve); each counts its rungs in a :class:`DeltaStats`.

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
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from repro.gp.program import CompiledProgram, Evaluation
from repro.gp.sensitivity import kkt_residual
from repro.gp.solver import FEASIBILITY_TOL, _Y_BOUND

#: Constraints within this of active (log-space) seed the working set.
#: Loose on purpose: a coefficient refresh shifts a previously-active
#: constraint's value by roughly the relative value change, so the seed
#: must catch "active at the *old* optimum" — a spurious inclusion merely
#: costs one ν<0 drop round, a missed one leaves the KKT system without
#: the constraint that carries all the curvature (a qab constraint sitting
#: at -0.04 after a volatile tick would stall Newton entirely at 3e-2).
_WORKING_SET_TOL = 0.1

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


def find_planner_stats(planner: object) -> Optional[DeltaStats]:
    """The :class:`DeltaStats` of a planner stack's patch ladder — the
    :class:`~repro.filters.dual_dab.DualDABPlanner`'s or the
    :class:`~repro.filters.optimal_refresh.OptimalRefreshPlanner`'s, found
    along the wrappers' ``.base`` links — if the stack has one."""
    while planner is not None:
        stats = getattr(planner, "stats", None)
        if isinstance(stats, DeltaStats):
            return stats
        planner = getattr(planner, "base", None)
    return None
