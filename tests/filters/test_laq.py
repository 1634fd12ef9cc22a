"""Tests for the LAQ closed form (technical-report extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidQueryError
from repro.filters import CostModel, assign_laq
from repro.filters.laq import laq_condition_satisfied
from repro.queries import PolynomialQuery, QueryTerm, parse_query
from tests.oracle import GeometricProgram, Monomial


class TestClosedForm:
    def test_symmetric(self):
        q = parse_query("x + y : 2")
        plan = assign_laq(q, CostModel(rates={"x": 1.0, "y": 1.0}))
        assert plan.primary["x"] == pytest.approx(1.0)
        assert plan.primary["y"] == pytest.approx(1.0)

    def test_condition_tight(self):
        q = parse_query("2 a + 3 b : 6")
        plan = assign_laq(q, CostModel(rates={"a": 1.0, "b": 4.0}))
        assert laq_condition_satisfied(q, plan.primary)
        total = 2 * plan.primary["a"] + 3 * plan.primary["b"]
        assert total == pytest.approx(6.0, rel=1e-9)

    def test_matches_gp_solution_monotonic(self):
        """The closed form must agree with the general-purpose GP solver."""
        q = parse_query("2 a + 3 b + 0.5 c : 6")
        rates = {"a": 1.0, "b": 4.0, "c": 0.25}
        plan = assign_laq(q, CostModel(rates=rates))
        a, b, c = (Monomial.variable(n) for n in "abc")
        gp = GeometricProgram(objective=rates["a"] / a + rates["b"] / b + rates["c"] / c)
        gp.add_constraint(2 * a + 3 * b + 0.5 * c, 6.0)
        sol = gp.solve()
        for name in "abc":
            assert plan.primary[name] == pytest.approx(sol.values[name], rel=1e-3)

    def test_matches_gp_solution_random_walk(self):
        q = parse_query("2 a + 3 b : 6")
        rates = {"a": 1.0, "b": 4.0}
        plan = assign_laq(q, CostModel(ddm="random_walk", rates=rates))
        a, b = Monomial.variable("a"), Monomial.variable("b")
        gp = GeometricProgram(
            objective=rates["a"] ** 2 / a ** 2 + rates["b"] ** 2 / b ** 2)
        gp.add_constraint(2 * a + 3 * b, 6.0)
        sol = gp.solve()
        for name in "ab":
            assert plan.primary[name] == pytest.approx(sol.values[name], rel=1e-3)

    def test_negative_weights_use_absolute_value(self):
        q = PolynomialQuery(
            [QueryTerm(2.0, {"a": 1}), QueryTerm(-3.0, {"b": 1})], qab=6.0)
        plan = assign_laq(q, CostModel(rates={"a": 1.0, "b": 1.0}))
        assert laq_condition_satisfied(q.with_qab(6.0), plan.primary)
        mirrored = PolynomialQuery(
            [QueryTerm(2.0, {"a": 1}), QueryTerm(3.0, {"b": 1})], qab=6.0)
        mirror_plan = assign_laq(mirrored, CostModel(rates={"a": 1.0, "b": 1.0}))
        assert plan.primary == pytest.approx(mirror_plan.primary)

    def test_no_recompute_needed(self):
        q = parse_query("x + y : 2")
        plan = assign_laq(q, CostModel())
        assert plan.recompute_rate == 0.0
        assert plan.secondary is None


class TestValidation:
    def test_nonlinear_rejected(self):
        with pytest.raises(InvalidQueryError, match="degree"):
            assign_laq(parse_query("x*y : 5"), CostModel())

    def test_condition_checker(self):
        q = parse_query("2 a + 3 b : 6")
        assert laq_condition_satisfied(q, {"a": 1.0, "b": 1.0})
        assert not laq_condition_satisfied(q, {"a": 2.0, "b": 1.0})


class TestOptimalityProperty:
    @given(
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.2, max_value=8.0),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_beats_any_manual_split(self, w1, w2, l1, l2, split):
        """The closed form minimises Σλ/b over Σ|w|b <= B: any manual
        budget split must cost at least as much."""
        q = PolynomialQuery(
            [QueryTerm(w1, {"a": 1}), QueryTerm(w2, {"b": 1})], qab=10.0)
        model = CostModel(rates={"a": l1, "b": l2})
        plan = assign_laq(q, model)
        optimal_cost = model.estimated_refresh_rate(plan.primary)
        manual = {"a": split * 10.0 / w1, "b": (1 - split) * 10.0 / w2}
        manual_cost = model.estimated_refresh_rate(manual)
        assert optimal_cost <= manual_cost * (1 + 1e-9)
