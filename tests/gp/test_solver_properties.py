"""Property-based tests for the GP layer (hypothesis).

Invariants:
* posynomial algebra is consistent with numeric evaluation,
* the solver returns feasible points whose objective is no worse than any
  random feasible point (convexity ⇒ global optimality),
* substitution commutes with evaluation.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from tests.oracle import GeometricProgram, Monomial, Posynomial, substitute

coefficients = st.floats(min_value=0.01, max_value=100.0,
                         allow_nan=False, allow_infinity=False)
exponents = st.floats(min_value=-3.0, max_value=3.0,
                      allow_nan=False, allow_infinity=False)
values = st.floats(min_value=0.1, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
names = st.sampled_from(["x", "y", "z"])


@st.composite
def monomials(draw):
    coefficient = draw(coefficients)
    variable_count = draw(st.integers(min_value=0, max_value=3))
    exps = {draw(names): draw(exponents) for _ in range(variable_count)}
    return Monomial(coefficient, exps)


@st.composite
def posynomials(draw):
    terms = draw(st.lists(monomials(), min_size=1, max_size=5))
    return Posynomial(terms)


@st.composite
def points(draw):
    return {name: draw(values) for name in ("x", "y", "z")}


class TestAlgebraProperties:
    @given(posynomials(), posynomials(), points())
    @settings(max_examples=60, deadline=None)
    def test_addition_matches_evaluation(self, p, q, point):
        assert (p + q).evaluate(point) == pytest.approx(
            p.evaluate(point) + q.evaluate(point), rel=1e-9)

    @given(posynomials(), posynomials(), points())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_matches_evaluation(self, p, q, point):
        assert (p * q).evaluate(point) == pytest.approx(
            p.evaluate(point) * q.evaluate(point), rel=1e-9)

    @given(posynomials(), points())
    @settings(max_examples=60, deadline=None)
    def test_posynomials_are_positive(self, p, point):
        assert p.evaluate(point) > 0.0

    @given(monomials(), points())
    @settings(max_examples=60, deadline=None)
    def test_monomial_inverse(self, m, point):
        product = m * m ** -1
        assert product.evaluate(point) == pytest.approx(1.0, rel=1e-9)

    @given(posynomials(), points())
    @settings(max_examples=60, deadline=None)
    def test_substitute_commutes_with_evaluation(self, p, point):
        partial = {"x": point["x"]}
        rest = {k: v for k, v in point.items() if k != "x"}
        substituted = substitute(p, partial)
        assert substituted.evaluate(rest) == pytest.approx(
            p.evaluate(point), rel=1e-9)

    @given(posynomials(), points())
    @settings(max_examples=40, deadline=None)
    def test_exponent_matrix_roundtrip(self, p, point):
        import numpy as np

        order = ["x", "y", "z"]
        A, log_c = p.exponent_matrix(order)
        log_point = np.log([point[n] for n in order])
        reconstructed = float(np.exp(A @ log_point + log_c).sum())
        assert reconstructed == pytest.approx(p.evaluate(point), rel=1e-9)


class TestSolverProperties:
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=20.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_budget_matches_lagrange(self, wx, wy, budget):
        """min wx/x + wy/y s.t. x + y <= B has the closed form
        x = B·sqrt(wx)/(sqrt(wx)+sqrt(wy))."""
        x, y = Monomial.variable("x"), Monomial.variable("y")
        gp = GeometricProgram(objective=wx / x + wy / y)
        gp.add_constraint(x + y, budget)
        sol = gp.solve()
        sx, sy = math.sqrt(wx), math.sqrt(wy)
        assert sol.values["x"] == pytest.approx(budget * sx / (sx + sy), rel=1e-3)
        assert sol.values["y"] == pytest.approx(budget * sy / (sx + sy), rel=1e-3)

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_solution_dominates_random_feasible_points(self, vx, vy, budget, split):
        """The solver's objective must be <= that of any feasible point we
        construct by splitting the budget arbitrarily."""
        x, y = Monomial.variable("x"), Monomial.variable("y")
        gp = GeometricProgram(objective=1 / x + 1 / y)
        constraint_lhs = vx * x + vy * y
        gp.add_constraint(constraint_lhs, budget)
        sol = gp.solve()
        # A manual feasible point: give `split` of the budget to x.
        manual = {"x": split * budget / vx, "y": (1 - split) * budget / vy}
        assert constraint_lhs.evaluate(manual) == pytest.approx(budget, rel=1e-9)
        manual_objective = 1 / manual["x"] + 1 / manual["y"]
        assert sol.objective <= manual_objective * (1 + 1e-6)
