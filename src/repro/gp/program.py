"""Geometric program model objects.

A :class:`GeometricProgram` owns a posynomial objective and a list of
:class:`Constraint` objects of the form ``lhs <= rhs`` where ``lhs`` is a
posynomial and ``rhs`` is a monomial (or positive scalar).  Each constraint
normalises itself to the standard form ``g(t) <= 1`` by dividing through by
the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleProblemError, NotPosynomialError
from repro.gp.monomial import Monomial
from repro.gp.posynomial import Posynomial, PosyLike, as_posynomial


@dataclass(frozen=True)
class Constraint:
    """``lhs <= rhs`` with posynomial ``lhs`` and monomial ``rhs``.

    The optional ``name`` shows up in solver diagnostics, which makes
    infeasibility reports actionable.
    """

    lhs: Posynomial
    rhs: Monomial
    name: str = ""

    @classmethod
    def leq(cls, lhs: PosyLike, rhs: PosyLike, name: str = "") -> "Constraint":
        lhs_posy = as_posynomial(lhs)
        rhs_posy = as_posynomial(rhs)
        if not rhs_posy.is_monomial:
            raise NotPosynomialError(
                "the right-hand side of a GP constraint must be a monomial; "
                "rewrite `posy1 <= posy2` as `posy1 / mono <= 1`"
            )
        return cls(lhs_posy, rhs_posy.as_monomial(), name)

    def normalised(self) -> Posynomial:
        """The constraint as ``g(t) <= 1``."""
        return self.lhs / self.rhs

    def violation(self, values: Mapping[str, float]) -> float:
        """``g(t) - 1`` at a point; positive means violated."""
        return self.normalised().evaluate(values) - 1.0

    def is_satisfied(self, values: Mapping[str, float], tol: float = 1e-8) -> bool:
        return self.violation(values) <= tol


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
            raise NotPosynomialError("a compiled function needs at least one row")
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.A = np.vstack([function.A for function in functions])
        self.log_c = np.concatenate([function.log_c for function in functions])
        self.starts = bounds[:-1]
        #: Function index of every stacked row.
        self.row_function = np.repeat(np.arange(len(sizes)), sizes)
        #: Per function: is it a true (multi-row) posynomial?  Monomials are
        #: linear in log-space and have no curvature.
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
        rebuilding posynomials or recompiling.
        """
        from repro.gp.solver import solve_compiled

        return solve_compiled(self, initial=initial, **kwargs)


class GeometricProgram:
    """A standard-form geometric program.

    Example
    -------
    >>> from repro.gp import Monomial, GeometricProgram
    >>> x, y = Monomial.variable("x"), Monomial.variable("y")
    >>> gp = GeometricProgram(objective=1 / x + 1 / y)
    >>> gp.add_constraint(x + y, 2.0, name="budget")
    >>> sol = gp.solve()
    >>> round(sol.values["x"], 4)
    1.0
    """

    def __init__(self, objective: PosyLike, constraints: Sequence[Constraint] = ()):
        self._objective = as_posynomial(objective)
        self._constraints: List[Constraint] = list(constraints)

    # -- model building ---------------------------------------------------------

    @property
    def objective(self) -> Posynomial:
        return self._objective

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return tuple(self._constraints)

    def add_constraint(self, lhs: PosyLike, rhs: PosyLike = 1.0, name: str = "") -> Constraint:
        """Add ``lhs <= rhs`` and return the created constraint."""
        constraint = Constraint.leq(lhs, rhs, name=name)
        self._constraints.append(constraint)
        return constraint

    @property
    def variables(self) -> Tuple[str, ...]:
        names = set(self._objective.variables)
        for constraint in self._constraints:
            names.update(constraint.lhs.variables)
            names.update(constraint.rhs.variables)
        return tuple(sorted(names))

    # -- compilation ------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        """Lower the model to the solver's array form (exponent matrices
        and log-coefficients per posynomial, in log-variable space)."""
        order = self.variables
        if not order:
            raise NotPosynomialError("the program has no variables to optimise")
        A0, c0 = self._objective.exponent_matrix(order)
        compiled_constraints = []
        names = []
        for i, constraint in enumerate(self._constraints):
            normalised = constraint.normalised()
            if normalised.is_constant:
                # Constant constraints are either trivially true or
                # structurally infeasible; catch the latter early.
                if normalised.constant_part > 1.0 + 1e-12:
                    raise InfeasibleProblemError(
                        f"constraint {constraint.name or i} is constant and violated: "
                        f"{normalised.constant_part:.6g} <= 1"
                    )
                continue
            A, log_c = normalised.exponent_matrix(order)
            compiled_constraints.append(CompiledFunction(A, log_c))
            names.append(constraint.name or f"constraint[{i}]")
        return CompiledProgram(
            variables=order,
            objective=CompiledFunction(A0, c0),
            constraints=compiled_constraints,
            constraint_names=names,
        )

    # -- solving ----------------------------------------------------------------

    def solve(self, initial: Optional[Mapping[str, float]] = None, **kwargs):
        """Solve the program; see :func:`repro.gp.solver.solve`."""
        from repro.gp.solver import solve as _solve

        return _solve(self, initial=initial, **kwargs)

    def check_feasible(self, values: Mapping[str, float], tol: float = 1e-8) -> bool:
        """True when every constraint holds at ``values`` (within ``tol``)."""
        return all(c.is_satisfied(values, tol) for c in self._constraints)

    def worst_violation(self, values: Mapping[str, float]) -> Tuple[str, float]:
        """Name and signed violation of the most-violated constraint."""
        worst_name, worst = "", -math.inf
        for i, constraint in enumerate(self._constraints):
            v = constraint.violation(values)
            if v > worst:
                worst_name, worst = constraint.name or f"constraint[{i}]", v
        return worst_name, worst

    def __repr__(self) -> str:
        return (
            f"GeometricProgram({len(self.variables)} variables, "
            f"{len(self._constraints)} constraints)"
        )
