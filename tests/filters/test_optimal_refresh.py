"""Tests for the Optimal Refresh planner (paper Section III-A.1)."""

import pytest

from repro.exceptions import NotPositiveCoefficientError
from repro.filters import CostModel, OptimalRefreshPlanner
from repro.filters.heuristics import DifferentSumPlanner, HalfAndHalfPlanner
from repro.queries import parse_query
from repro.queries.deviation import max_query_deviation


class TestFig2Numbers:
    def test_symmetric_product(self, fig2_query, fig2_values, unit_cost_model):
        """Paper: for x*y:5 at V=(2,2) with equal rates the optimal
        assignment is b = (1, 1)."""
        plan = OptimalRefreshPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        assert plan.primary["x"] == pytest.approx(1.0, abs=1e-4)
        assert plan.primary["y"] == pytest.approx(1.0, abs=1e-4)
        assert plan.secondary is None
        assert not plan.is_dual

    def test_constraint_active_at_optimum(self, fig2_query, fig2_values, unit_cost_model):
        plan = OptimalRefreshPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        deviation = max_query_deviation(fig2_query.terms, fig2_values, plan.primary)
        assert deviation == pytest.approx(fig2_query.qab, rel=1e-4)

    def test_higher_rate_gets_wider_filter(self, fig2_query, fig2_values):
        """An item that changes faster should get a *less* stringent DAB
        (each refresh of it is expensive)."""
        model = CostModel(rates={"x": 9.0, "y": 1.0})
        plan = OptimalRefreshPlanner(model).plan(fig2_query, fig2_values)
        assert plan.primary["x"] > plan.primary["y"]

    def test_guarantees_condition_1(self, fig2_query, fig2_values, unit_cost_model):
        plan = OptimalRefreshPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        assert plan.guarantees_qab(fig2_query, fig2_values)


class TestGeneralPpqs:
    def test_multi_term_query(self):
        q = parse_query("2 x*y + 3 y*z : 4")
        values = {"x": 5.0, "y": 2.0, "z": 7.0}
        model = CostModel(rates={"x": 1.0, "y": 2.0, "z": 0.5})
        plan = OptimalRefreshPlanner(model).plan(q, values)
        assert set(plan.primary) == {"x", "y", "z"}
        deviation = max_query_deviation(q.terms, values, plan.primary)
        assert deviation <= q.qab * (1 + 1e-6)

    def test_squares(self):
        q = parse_query("x^2 + y^2 : 2")
        values = {"x": 3.0, "y": 4.0}
        plan = OptimalRefreshPlanner(CostModel()).plan(q, values)
        assert plan.guarantees_qab(q, values)

    def test_random_walk_model(self, fig2_query, fig2_values):
        model = CostModel(ddm="random_walk", rates={"x": 1.0, "y": 1.0})
        plan = OptimalRefreshPlanner(model).plan(fig2_query, fig2_values)
        # symmetric problem: same answer as monotonic
        assert plan.primary["x"] == pytest.approx(plan.primary["y"], rel=1e-3)
        assert plan.guarantees_qab(fig2_query, fig2_values)

    def test_mixed_sign_rejected(self):
        q = parse_query("x*y - u*v : 5")
        with pytest.raises(NotPositiveCoefficientError, match="positive-coefficient"):
            OptimalRefreshPlanner(CostModel()).plan(
                q, {"x": 1.0, "y": 1.0, "u": 1.0, "v": 1.0})

    def test_warm_start_reuse(self, fig2_query, fig2_values, unit_cost_model):
        planner = OptimalRefreshPlanner(unit_cost_model)
        first = planner.plan(fig2_query, fig2_values)
        second = planner.plan(fig2_query, {"x": 2.01, "y": 2.0})
        assert second.primary["x"] == pytest.approx(first.primary["x"], rel=0.05)
        planner.clear_warm_starts()  # must not raise

    def test_objective_reported(self, fig2_query, fig2_values, unit_cost_model):
        plan = OptimalRefreshPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        # objective = 1/bx + 1/by = 2 at b = (1, 1)
        assert plan.objective == pytest.approx(2.0, rel=1e-3)


class TestOptimality:
    def test_beats_equal_split(self):
        """The optimiser must do at least as well as naive equal DABs on the
        refresh objective, under heterogeneous rates."""
        q = parse_query("x*y : 50")
        values = {"x": 40.0, "y": 20.0}
        model = CostModel(rates={"x": 5.0, "y": 0.5})
        plan = OptimalRefreshPlanner(model).plan(q, values)
        optimal_cost = model.estimated_refresh_rate(plan.primary)
        # naive: equal b solving 20b + 40b + b^2 = 50 -> b ~ 0.8221
        naive_cost = model.estimated_refresh_rate({"x": 0.8221, "y": 0.8221})
        assert optimal_cost < naive_cost


class TestForgetQuery:
    """A removed query's name may come back as a different query; the
    compiled template and warm start cached under it must not."""

    VALUES = {"x": 2.0, "y": 4.0, "z": 3.0}

    def _stack(self):
        model = CostModel(rates={name: 1.0 for name in self.VALUES})
        return DifferentSumPlanner(
            model, OptimalRefreshPlanner(model))

    def test_same_name_tighter_budget_is_replanned(self):
        planner = self._stack()
        planner.plan(parse_query("x*y : 5.0", name="a"), self.VALUES)
        planner.forget_query("a")
        tight = parse_query("x*y : 0.5", name="a")
        plan = planner.plan(tight, self.VALUES)
        assert plan.guarantees_qab(tight, self.VALUES)
        fresh = self._stack().plan(tight, self.VALUES)
        assert plan.primary == pytest.approx(fresh.primary, rel=1e-6)

    def test_same_name_other_items_is_replanned(self):
        planner = self._stack()
        planner.plan(parse_query("x*y : 5.0", name="a"), self.VALUES)
        planner.forget_query("a")
        moved = parse_query("x*z : 5.0", name="a")
        plan = planner.plan(moved, self.VALUES)      # was KeyError: 'b__z'
        assert set(plan.primary) == {"x", "z"}
        assert plan.guarantees_qab(moved, self.VALUES)

    def test_split_derivatives_are_forgotten_too(self):
        model = CostModel(rates={name: 1.0 for name in self.VALUES})
        base = OptimalRefreshPlanner(model)
        planner = HalfAndHalfPlanner(model, base)
        planner.plan(parse_query("x*y - y*z : 5.0", name="a"), self.VALUES)
        planner.plan(parse_query("x*z : 5.0", name="ab"), self.VALUES)
        assert set(base._templates) == {"a__p1", "a__p2", "ab"}
        planner.forget_query("a")
        assert set(base._templates) == set(base._warm_starts) == {"ab"}
