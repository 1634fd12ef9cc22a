"""The array form of a geometric program.

Every planner assembles its program straight into a
:class:`CompiledProgram`: one stacked exponent matrix and one
log-coefficient vector over a sorted variable order, objective first and
then each ``g_i(t) <= 1`` constraint, every function a posynomial given
by its rows.  There is no model-object layer in the package; the object
algebra that writes the paper's programs down term by term lives with
the tests as the oracle these arrays are held to (DESIGN §8.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import GPError


@dataclass(frozen=True)
class CompiledFunction:
    """Log-space representation of one posynomial: value is
    ``log(sum(exp(A @ y + log_c)))``.

    Inside a :class:`CompiledProgram` both arrays are *views* of the
    program's stacked arrays, so writing ``log_c`` in place (the template
    refresh) is all it takes to re-price the program; the fields themselves
    cannot be rebound.
    """

    A: np.ndarray
    log_c: np.ndarray


class Evaluation:
    """Every function of a :class:`CompiledProgram` at one point ``y``.

    Index 0 is the objective, ``1 + i`` constraint ``i``.  ``values`` holds
    ``F(y)`` per function and ``weights`` the softmax weight of every stacked
    row within its function; the Jacobian and Hessians are derived from the
    weights on first request.
    """

    __slots__ = ("_program", "values", "weights", "_jacobian")

    def __init__(self, program: "CompiledProgram", values: np.ndarray,
                 weights: np.ndarray):
        self._program = program
        self.values = values
        self.weights = weights
        self._jacobian: Optional[np.ndarray] = None

    def jacobian(self) -> np.ndarray:
        """``∇F`` per function (one row each): the weighted row sums of the
        function's exponent block."""
        if self._jacobian is None:
            program = self._program
            self._jacobian = np.add.reduceat(
                self.weights[:, None] * program.A, program.starts, axis=0)
        return self._jacobian

    def hessian(self, multipliers: np.ndarray) -> np.ndarray:
        """``Σ_f multipliers[f] · ∇²F_f``, each term being
        ``A_fᵀ (diag(w_f) - w_f w_fᵀ) A_f`` — positive semi-definite, which
        is what makes the log-space program convex and a warm Newton-KKT
        patch on it sound (see filters/delta_recompute.py)."""
        program = self._program
        jacobian = self.jacobian()
        row_scale = multipliers[program.row_function] * self.weights
        return ((program.A * row_scale[:, None]).T @ program.A
                - (jacobian * multipliers[:, None]).T @ jacobian)


@dataclass
class CompiledProgram:
    """Arrays for the solver: variable order, objective and constraints.

    Every posynomial row of the program — objective first, then each
    constraint in order — is stacked into one exponent matrix ``A`` and one
    offset vector ``log_c``; ``starts[f]`` is the first row of function
    ``f``.  :meth:`evaluate` is the only log-sum-exp in the package: the
    solver, the Newton-KKT patch and the sensitivity analysis all read values,
    gradients and Hessians from it.
    """

    variables: Tuple[str, ...]
    objective: CompiledFunction
    constraints: List[CompiledFunction]
    constraint_names: List[str]

    def __post_init__(self) -> None:
        functions = [self.objective, *self.constraints]
        sizes = [function.A.shape[0] for function in functions]
        if not all(sizes):
            raise GPError("a compiled function needs at least one row")
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.A = np.vstack([function.A for function in functions])
        self.log_c = np.concatenate([function.log_c for function in functions])
        self.starts = bounds[:-1]
        #: Function index of every stacked row.
        self.row_function = np.repeat(np.arange(len(sizes)), sizes)
        #: Per function: is it a true (multi-row) posynomial?  A one-row
        #: function is a monomial, linear in log-space, with no curvature.
        self.multi_row = np.asarray(sizes) > 1
        # Re-point the functions at the stacked storage so that in-place
        # coefficient refreshes are seen by the next evaluate().
        views = [CompiledFunction(self.A[lo:hi], self.log_c[lo:hi])
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.objective, self.constraints = views[0], views[1:]

    def evaluate(self, y: np.ndarray) -> Evaluation:
        """One fused pass: a mat-vec, a per-function max-shifted ``exp`` and
        a segmented reduce give every value and softmax weight.  A
        non-finite iterate (SLSQP probes outside the box) yields ``nan``
        values rather than an exception or an overflow warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.A @ y + self.log_c
        peak = np.maximum.reduceat(z, self.starts)
        if not np.isfinite(peak).all():
            return Evaluation(self, np.full(peak.shape, np.nan),
                              np.full(z.shape, np.nan))
        shifted = np.exp(z - peak[self.row_function])
        totals = np.add.reduceat(shifted, self.starts)
        return Evaluation(self, peak + np.log(totals),
                          shifted / totals[self.row_function])

    def solve(self, initial: Optional[Mapping[str, float]] = None, **kwargs):
        """Solve these arrays directly; see
        :func:`repro.gp.solver.solve_compiled`.

        Planners that reuse a compiled structure mutate the ``log_c``
        vectors in place between recomputations and re-solve without
        re-assembling.
        """
        from repro.gp.solver import solve_compiled

        return solve_compiled(self, initial=initial, **kwargs)
