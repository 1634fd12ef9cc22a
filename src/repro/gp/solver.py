"""Log-space GP solver built on scipy.

The substitution ``y = log t`` turns every posynomial ``f(t)`` into
``F(y) = log sum exp(A y + log c)``, a smooth convex function whose gradient
is the softmax-weighted row sum of ``A``.  The program

    minimise F0(y)  subject to  Fi(y) <= 0

is therefore a smooth convex NLP.  Every function of the program is
evaluated by the one fused kernel on :class:`CompiledProgram` (a single
mat-vec and a segmented reduce for all values and gradients), and SLSQP's
four callbacks per iterate share one pass of it — which keeps each DAB
recomputation in the low milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import NonlinearConstraint, minimize

from repro.exceptions import InfeasibleProblemError, SolverFailedError
from repro.gp.diagnostics import SolveReport
from repro.gp.program import CompiledProgram, Evaluation, GeometricProgram

#: Accepted normalised constraint violation at a solution.
FEASIBILITY_TOL = 1e-6

#: Log-space variables are clipped to this box; e^30 ~ 1e13 comfortably
#: covers every quantity the paper's formulations produce.
_Y_BOUND = 30.0


@dataclass
class GPSolution:
    """A solved geometric program.

    Attributes
    ----------
    values:
        Optimal variable values in the original (positive) space.
    objective:
        Objective value at :attr:`values` (original space).
    report:
        :class:`~repro.gp.diagnostics.SolveReport` with convergence detail.
    """

    values: Dict[str, float]
    objective: float
    report: SolveReport

    def __getitem__(self, name: str) -> float:
        return self.values[name]


class _Iterate:
    """One kernel pass per iterate.

    SLSQP asks for the objective, its gradient, the constraint values and
    their Jacobian at the same ``y`` through four separate callbacks; all
    four are served from one :meth:`CompiledProgram.evaluate`.  An instance
    lives for a single :func:`solve_compiled` call, during which the
    program's coefficients cannot change, so the memo is keyed on ``y``
    alone and dies before the next template refresh.
    """

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.names = compiled.constraint_names
        self.size = len(compiled.constraints)
        self._key: Optional[bytes] = None
        self._evaluation: Optional[Evaluation] = None

    def at(self, y: np.ndarray) -> Evaluation:
        key = y.tobytes()
        if key != self._key:
            self._evaluation = self.compiled.evaluate(y)
            self._key = key
        return self._evaluation

    def objective(self, y: np.ndarray) -> float:
        return float(self.at(y).values[0])

    def gradient(self, y: np.ndarray) -> np.ndarray:
        return self.at(y).jacobian()[0].copy()

    def values(self, y: np.ndarray) -> np.ndarray:
        """F_i(y) for every constraint (<= 0 means satisfied)."""
        return self.at(y).values[1:]

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        return self.at(y).jacobian()[1:]


def _initial_log_point(
    compiled: CompiledProgram, initial: Optional[Mapping[str, float]]
) -> np.ndarray:
    y0 = np.zeros(len(compiled.variables))
    if initial:
        for j, name in enumerate(compiled.variables):
            value = initial.get(name)
            if value is not None and value > 0.0 and math.isfinite(value):
                y0[j] = math.log(value)
    return np.clip(y0, -_Y_BOUND, _Y_BOUND)


def _restore_feasibility(iterate: _Iterate, y0: np.ndarray) -> np.ndarray:
    """Phase-1: push a start point toward the feasible region by minimising
    ``sum(max(Fi, 0)^2)`` — identically zero on the feasible set."""
    if iterate.size == 0 or float(np.max(iterate.values(y0))) <= 0.0:
        return y0

    def merit(y: np.ndarray) -> Tuple[float, np.ndarray]:
        violations = np.maximum(iterate.values(y), 0.0)
        value = float(violations @ violations)
        grad = 2.0 * (violations @ iterate.jacobian(y))
        return value, grad

    result = minimize(merit, y0, jac=True, method="BFGS",
                      options={"maxiter": 200, "gtol": 1e-10})
    return np.clip(result.x, -_Y_BOUND, _Y_BOUND)


def _solve_slsqp(iterate: _Iterate, y0: np.ndarray, maxiter: int):
    constraints = []
    if iterate.size:
        constraints.append({
            "type": "ineq",
            "fun": lambda y: -iterate.values(y),
            "jac": lambda y: -iterate.jacobian(y),
        })
    return minimize(
        iterate.objective,
        y0,
        jac=iterate.gradient,
        method="SLSQP",
        bounds=[(-_Y_BOUND, _Y_BOUND)] * len(y0),
        constraints=constraints,
        options={"maxiter": maxiter, "ftol": 1e-10},
    )


def _solve_trust_constr(iterate: _Iterate, y0: np.ndarray, maxiter: int):
    constraints = []
    if iterate.size:
        constraints.append(NonlinearConstraint(
            fun=iterate.values, lb=-np.inf, ub=0.0, jac=iterate.jacobian,
        ))
    return minimize(
        iterate.objective,
        y0,
        jac=iterate.gradient,
        method="trust-constr",
        constraints=constraints,
        options={"maxiter": maxiter, "gtol": 1e-9, "xtol": 1e-12},
    )


def _max_violation(iterate: _Iterate, y: np.ndarray) -> Tuple[float, Dict[str, float]]:
    if iterate.size == 0:
        return 0.0, {}
    # Report in original space: g(t) - 1 = exp(F(y)) - 1.
    violations = np.expm1(iterate.values(y))
    residuals = dict(zip(iterate.names, violations.tolist()))
    return float(np.max(violations)), residuals


def solve(
    program: GeometricProgram,
    initial: Optional[Mapping[str, float]] = None,
    max_starts: int = 4,
    maxiter: int = 300,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> GPSolution:
    """Solve a geometric program to global optimality.

    Parameters
    ----------
    program:
        The :class:`~repro.gp.program.GeometricProgram` to solve.
    initial:
        Optional warm-start values (original space).  The simulator
        recomputes DABs at values close to the previous recomputation, so
        warm starts cut solve time substantially.
    max_starts:
        Number of (increasingly perturbed) starting points to try before
        declaring failure.
    seed:
        Seed for start-point perturbations — keeps solves deterministic.

    Raises
    ------
    InfeasibleProblemError
        When no feasible point could be found from any start.
    SolverFailedError
        When scipy terminated abnormally on every start.
    """
    return solve_compiled(program.compile(), initial=initial,
                          max_starts=max_starts, maxiter=maxiter,
                          seed=seed, tol=tol)


def solve_compiled(
    compiled: CompiledProgram,
    initial: Optional[Mapping[str, float]] = None,
    max_starts: int = 4,
    maxiter: int = 300,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> GPSolution:
    """Solve an already-compiled program (see :func:`solve`).

    This is the planners' solver: they keep a :class:`CompiledProgram` per
    query, refresh only its log-coefficient vectors at each recomputation,
    and call this directly — no posynomial is built or compiled.
    :func:`solve` is ``compile()`` followed by this call, so given
    bitwise-identical arrays and warm start the two return the same
    solution, bit for bit.
    """
    iterate = _Iterate(compiled)
    rng = np.random.default_rng(seed)
    base = _initial_log_point(compiled, initial)

    best: Optional[Tuple[np.ndarray, float]] = None
    last_message = ""
    method_used = ""
    iterations = 0
    starts = 0

    for attempt in range(max_starts):
        starts = attempt + 1
        if attempt == 0:
            y0 = base
        else:
            y0 = np.clip(base + rng.normal(scale=0.5 * attempt, size=base.shape),
                         -_Y_BOUND, _Y_BOUND)
        y0 = _restore_feasibility(iterate, y0)

        for method, runner in (("SLSQP", _solve_slsqp), ("trust-constr", _solve_trust_constr)):
            result = runner(iterate, y0, maxiter)
            last_message = str(getattr(result, "message", ""))
            y = np.asarray(result.x, dtype=float)
            worst, _ = _max_violation(iterate, y)
            if worst <= tol:
                objective = math.exp(iterate.objective(y))
                if best is None or objective < best[1]:
                    best = (y, objective)
                    method_used = method
                    iterations = int(getattr(result, "nit", 0) or 0)
                break  # this start produced a feasible point
        if best is not None:
            # The log-space problem is convex: one feasible converged solve
            # is globally optimal; no further starts needed.
            break

    if best is None:
        worst, residuals = _max_violation(iterate, _restore_feasibility(iterate, base))
        report = SolveReport(
            status="infeasible" if worst > tol else "failed",
            method=method_used,
            iterations=iterations,
            starts_tried=starts,
            max_violation=worst,
            residuals=residuals,
            message=last_message,
        )
        if report.status == "infeasible":
            raise InfeasibleProblemError(
                f"no feasible point found (worst violation {worst:.3e})", report
            )
        raise SolverFailedError(f"solver failed: {last_message}", report)

    y, objective = best
    worst, residuals = _max_violation(iterate, y)
    values = {
        name: float(math.exp(y[j])) for j, name in enumerate(compiled.variables)
    }
    report = SolveReport(
        status="optimal",
        method=method_used,
        iterations=iterations,
        starts_tried=starts,
        max_violation=worst,
        residuals=residuals,
        message=last_message,
    )
    return GPSolution(values=values, objective=objective, report=report)
