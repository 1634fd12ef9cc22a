"""Geometric programming substrate.

The paper solves its DAB-assignment formulations with CVXOPT's geometric
programming interface.  CVXOPT is not available in this environment, so this
subpackage implements the required machinery from scratch:

* :class:`~repro.gp.program.CompiledProgram` — a program in array form:
  one stacked exponent matrix and log-coefficient vector, objective first,
  which every planner assembles straight from its rows
  (:mod:`repro.filters.compiled_gp`),
* :func:`~repro.gp.solver.solve_compiled` — log-space convexification solved
  with scipy (SLSQP with analytic gradients, trust-constr fallback,
  multi-start); :func:`~repro.gp.solver.solve` is the same call for any
  object with a ``compile()`` method,
* :func:`~repro.gp.sensitivity.analyze_compiled` — constraint multipliers
  and elasticities at a solved optimum,
* :class:`~repro.gp.diagnostics.SolveReport` — feasibility and optimality
  diagnostics attached to every solution.

A geometric program in standard form is::

    minimise    f0(t)
    subject to  fi(t) <= 1,   i = 1..m     (posynomial constraints)
                gj(t) == 1,   j = 1..p     (monomial constraints)
                t > 0

With the substitution ``y = log t`` every posynomial becomes a log-sum-exp
function, which is smooth and convex, so a local solve is a global solve.
The object algebra that writes these programs down term by term is kept
with the tests (``tests/oracle/``) as the oracle the assembled arrays are
held to, bit for bit.
"""

from repro.gp.program import CompiledFunction, CompiledProgram
from repro.gp.solver import GPSolution, solve, solve_compiled
from repro.gp.diagnostics import SolveReport
from repro.gp.sensitivity import (
    SensitivityReport,
    analyze_compiled,
    qab_relaxation_value,
)

__all__ = [
    "CompiledFunction",
    "CompiledProgram",
    "GPSolution",
    "solve",
    "solve_compiled",
    "SolveReport",
    "SensitivityReport",
    "analyze_compiled",
    "qab_relaxation_value",
]
