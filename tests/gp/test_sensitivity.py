"""Tests for GP sensitivity analysis, validated against finite differences."""

import math

import pytest

from repro.exceptions import GPError
from repro.gp.sensitivity import analyze_compiled, qab_relaxation_value
from tests.oracle import GeometricProgram, Monomial

x = Monomial.variable("x")
y = Monomial.variable("y")


def budget_program(budget: float) -> GeometricProgram:
    gp = GeometricProgram(objective=1 / x + 1 / y)
    gp.add_constraint(x + y, budget, name="budget")
    return gp


class TestAnalyticCase:
    """min 1/x + 1/y s.t. x + y <= B has optimum 4/B, so
    d log(obj)/d log(B) = -1 exactly: the multiplier must be 1."""

    def test_multiplier_is_one(self):
        gp = budget_program(2.0)
        report = analyze_compiled(gp.compile(), gp.solve().values)
        assert report.multipliers["budget"] == pytest.approx(1.0, abs=1e-3)
        assert report.elasticities["budget"] == pytest.approx(-1.0, abs=1e-3)
        assert report.stationarity_residual < 1e-4
        assert report.active == ["budget"]

    def test_matches_finite_difference(self):
        base = budget_program(2.0).solve().objective
        bumped = budget_program(2.0 * 1.01).solve().objective
        fd_elasticity = (math.log(bumped) - math.log(base)) / math.log(1.01)
        gp = budget_program(2.0)
        report = analyze_compiled(gp.compile(), gp.solve().values)
        assert report.elasticities["budget"] == pytest.approx(fd_elasticity, abs=1e-2)

    def test_predicted_relative_change(self):
        gp = budget_program(2.0)
        report = analyze_compiled(gp.compile(), gp.solve().values)
        # +10% budget -> objective shrinks by ~ 1/1.1 - 1 = -9.09%
        predicted = report.predicted_relative_change("budget", 1.1)
        actual = budget_program(2.2).solve().objective / gp.solve().objective - 1.0
        assert predicted == pytest.approx(actual, abs=5e-3)

    def test_bad_limit_factor(self):
        gp = budget_program(2.0)
        report = analyze_compiled(gp.compile(), gp.solve().values)
        with pytest.raises(GPError):
            report.predicted_relative_change("budget", 0.0)


class TestSlackConstraints:
    def test_inactive_constraint_has_zero_multiplier(self):
        gp = budget_program(2.0)
        gp.add_constraint(x, 100.0, name="loose_cap")
        report = analyze_compiled(gp.compile(), gp.solve().values)
        assert report.multipliers["loose_cap"] == 0.0
        assert "loose_cap" not in report.active

    def test_most_binding_ranking(self):
        gp = budget_program(2.0)
        gp.add_constraint(x, 100.0, name="loose_cap")
        report = analyze_compiled(gp.compile(), gp.solve().values)
        ranked = report.most_binding()
        assert ranked and ranked[0][0] == "budget"
        assert all(v > 0 for _name, v in ranked)


class TestDabProgramSensitivity:
    def test_qab_relaxation_value_on_dual_dab(self):
        """On a real dual-DAB program the QAB constraint is binding: the
        operator-facing shortcut must return a positive saving rate that
        agrees with finite differences."""
        from repro.filters import CostModel
        from repro.filters.compiled_gp import CompiledDualDabTemplate
        from repro.queries import parse_query

        values = {"x": 2.0, "y": 2.0}
        model = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=2.0)

        def solve_with_qab(qab):
            query = parse_query("x*y", qab=qab, name="sens")
            template = CompiledDualDabTemplate(query, values, model)
            return template.compiled, template.solve(values)

        program, solution = solve_with_qab(5.0)
        nu = qab_relaxation_value(program, solution)
        assert nu > 0.0

        _p2, bumped = solve_with_qab(5.0 * 1.02)
        fd = (math.log(bumped.objective) - math.log(solution.objective)) \
            / math.log(1.02)
        assert -nu == pytest.approx(fd, abs=0.1)
