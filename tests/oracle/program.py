"""Geometric program model objects (test oracle).

A :class:`GeometricProgram` owns a posynomial objective and a list of
:class:`Constraint` objects of the form ``lhs <= rhs`` where ``lhs`` is a
posynomial and ``rhs`` is a monomial (or positive scalar).  Each constraint
normalises itself to the standard form ``g(t) <= 1`` by dividing through by
the right-hand side, and :meth:`GeometricProgram.compile` lowers the model
to the :class:`~repro.gp.program.CompiledProgram` every planner in the
package assembles from arrays — the arrays those assemblers are held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InfeasibleProblemError
from repro.gp.program import CompiledFunction, CompiledProgram
from tests.oracle.monomial import Monomial, NotPosynomialError
from tests.oracle.posynomial import Posynomial, PosyLike, as_posynomial


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


class GeometricProgram:
    """A standard-form geometric program.

    Example
    -------
    >>> from tests.oracle import Monomial, GeometricProgram
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
        from repro.gp.solver import solve

        return solve(self, initial=initial, **kwargs)

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
