"""Solver tests against analytically solvable geometric programs."""

import math

import pytest

from repro.exceptions import InfeasibleProblemError
from tests.oracle import GeometricProgram, Monomial

x = Monomial.variable("x")
y = Monomial.variable("y")
z = Monomial.variable("z")


class TestKnownOptima:
    def test_symmetric_budget(self):
        # min 1/x + 1/y s.t. x + y <= 2  ->  x = y = 1 (AM-HM equality).
        gp = GeometricProgram(objective=1 / x + 1 / y)
        gp.add_constraint(x + y, 2.0)
        sol = gp.solve()
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-5)
        assert sol.values["y"] == pytest.approx(1.0, abs=1e-5)
        assert sol.objective == pytest.approx(2.0, abs=1e-5)

    def test_asymmetric_budget(self):
        # min 4/x + 1/y s.t. x + y <= 3: Lagrange gives x = 2y -> x=2, y=1.
        gp = GeometricProgram(objective=4 / x + 1 / y)
        gp.add_constraint(x + y, 3.0)
        sol = gp.solve()
        assert sol.values["x"] == pytest.approx(2.0, abs=1e-4)
        assert sol.values["y"] == pytest.approx(1.0, abs=1e-4)

    def test_monomial_objective_with_product_constraint(self):
        # min x s.t. 1/(x*y) <= 1, y <= 2  ->  x = 0.5.
        gp = GeometricProgram(objective=x)
        gp.add_constraint(1 / (x * y), 1.0)
        gp.add_constraint(y, 2.0)
        sol = gp.solve()
        assert sol.values["x"] == pytest.approx(0.5, abs=1e-5)

    def test_three_variable_volume(self):
        # min surface 2(xy + yz + xz) s.t. volume xyz >= 1 -> cube x=y=z=1.
        gp = GeometricProgram(objective=2 * x * y + 2 * y * z + 2 * x * z)
        gp.add_constraint(1 / (x * y * z), 1.0)
        sol = gp.solve()
        for name in ("x", "y", "z"):
            assert sol.values[name] == pytest.approx(1.0, abs=1e-4)
        assert sol.objective == pytest.approx(6.0, abs=1e-3)

    def test_equality_via_two_inequalities(self):
        # x <= 2 and 2/x <= 1 pin x = 2.
        gp = GeometricProgram(objective=x + 1 / x)
        gp.add_constraint(x, 2.0)
        gp.add_constraint(2 / x, 1.0)
        sol = gp.solve()
        assert sol.values["x"] == pytest.approx(2.0, abs=1e-5)


class TestRobustness:
    def test_warm_start_agrees_with_cold(self):
        gp = GeometricProgram(objective=1 / x + 1 / y)
        gp.add_constraint(2 * x + y, 4.0)
        cold = gp.solve()
        warm = gp.solve(initial=cold.values)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)

    def test_bad_warm_start_ignored_gracefully(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(x, 2.0)
        sol = gp.solve(initial={"x": -5.0})  # non-positive -> ignored
        assert sol.values["x"] == pytest.approx(2.0, abs=1e-5)

    def test_extreme_scales(self):
        # Optimal x = 1e6: far from the t=1 default start.
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(x, 1e6)
        sol = gp.solve(initial={"x": 1e6})
        assert sol.values["x"] == pytest.approx(1e6, rel=1e-4)

    def test_solution_getitem(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(x, 2.0)
        sol = gp.solve()
        assert sol["x"] == sol.values["x"]

    def test_report_is_optimal_and_feasible(self):
        gp = GeometricProgram(objective=1 / x + 1 / y)
        gp.add_constraint(x + y, 2.0)
        report = gp.solve().report
        assert report.is_optimal
        assert report.max_violation <= 1e-6
        assert report.starts_tried >= 1
        assert "status=optimal" in report.summary()

    def test_active_constraint_detection(self):
        gp = GeometricProgram(objective=1 / x + 1 / y)
        gp.add_constraint(x + y, 2.0, name="budget")
        gp.add_constraint(x, 100.0, name="slack_cap")
        report = gp.solve().report
        active = report.active_constraints()
        assert "budget" in active
        assert "slack_cap" not in active


class TestInfeasibility:
    def test_contradictory_monomials(self):
        # x <= 1 and 3/x <= 1 (x >= 3) cannot both hold.
        gp = GeometricProgram(objective=x)
        gp.add_constraint(x, 1.0, name="upper")
        gp.add_constraint(3 / x, 1.0, name="lower")
        with pytest.raises(InfeasibleProblemError) as excinfo:
            gp.solve()
        assert excinfo.value.report is not None
        assert excinfo.value.report.status == "infeasible"

    def test_infeasible_posynomial(self):
        # x + 1/x >= 2 always, so x + 1/x <= 1 is infeasible.
        gp = GeometricProgram(objective=x)
        gp.add_constraint(x + 1 / x, 1.0)
        with pytest.raises(InfeasibleProblemError):
            gp.solve()

    def test_unconstrained_program_solves(self):
        # min x + 1/x -> x = 1 without constraints.
        gp = GeometricProgram(objective=x + 1 / x)
        sol = gp.solve()
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-5)
        assert sol.objective == pytest.approx(2.0, abs=1e-6)
