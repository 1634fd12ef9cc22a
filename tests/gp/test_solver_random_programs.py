"""Randomised GP verification: the solver must match (or beat) a dense
grid search on random two-variable programs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InfeasibleProblemError
from tests.oracle import GeometricProgram, Monomial, Posynomial

coefficients = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
exponents = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


@st.composite
def random_programs(draw):
    """Objective: sum of 2-3 monomials over x, y with mixed exponents.
    Constraint: a posynomial budget that keeps the feasible set compact
    (every variable appears with a positive exponent somewhere)."""
    objective_terms = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        objective_terms.append(Monomial(draw(coefficients), {
            "x": draw(exponents), "y": draw(exponents)}))
    budget_terms = [
        Monomial(draw(coefficients), {"x": 1.0}),
        Monomial(draw(coefficients), {"y": 1.0}),
    ]
    if draw(st.booleans()):
        budget_terms.append(Monomial(draw(coefficients), {"x": 1.0, "y": 1.0}))
    budget = draw(st.floats(min_value=2.0, max_value=30.0))
    gp = GeometricProgram(objective=Posynomial(objective_terms))
    gp.add_constraint(Posynomial(budget_terms), budget, name="budget")
    # keep variables bounded away from 0 so the grid is meaningful
    gp.add_constraint(0.05 / Monomial.variable("x"), 1.0, name="x_floor")
    gp.add_constraint(0.05 / Monomial.variable("y"), 1.0, name="y_floor")
    return gp


class TestAgainstGridSearch:
    @given(random_programs())
    @settings(max_examples=25, deadline=None)
    def test_solver_not_beaten_by_grid(self, gp):
        try:
            solution = gp.solve()
        except InfeasibleProblemError:
            # floors + budget can genuinely clash; nothing to compare then
            return
        assert solution.report.max_violation <= 1e-6

        grid = np.geomspace(0.05, 50.0, 60)
        best_grid = np.inf
        objective = gp.objective
        for x, y in itertools.product(grid, grid):
            point = {"x": float(x), "y": float(y)}
            if gp.check_feasible(point, tol=1e-9):
                best_grid = min(best_grid, objective.evaluate(point))
        if np.isfinite(best_grid):
            assert solution.objective <= best_grid * (1 + 1e-3), \
                "a grid point beat the 'optimal' solution"

    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_resolve_from_solution_is_stable(self, gp):
        try:
            first = gp.solve()
        except InfeasibleProblemError:
            return
        second = gp.solve(initial=first.values)
        assert second.objective == pytest.approx(first.objective, rel=1e-4)
