"""Tests for EQI / AAO (paper Section IV)."""

import pytest

from repro.exceptions import FilterError, NotPositiveCoefficientError
from repro.filters import AAOPlanner, CostModel, EQIPlanner
from repro.filters.multi_query import AAOTSchedule
from repro.queries import parse_query
from repro.queries.deviation import max_query_deviation, secondary_variable
from tests.oracle import Monomial, Posynomial
from tests.oracle.builders import build_widen_program, rename_posynomial


@pytest.fixture(scope="module")
def two_queries():
    return [
        parse_query("x*y : 5", name="mq1"),
        parse_query("y*z : 4", name="mq2"),
    ]


@pytest.fixture(scope="module")
def three_values():
    return {"x": 2.0, "y": 2.0, "z": 3.0}


@pytest.fixture(scope="module")
def model(three_values):
    return CostModel(rates={k: 1.0 for k in three_values}, recompute_cost=2.0)


class TestRenamePosynomial:
    def test_rename(self):
        p = Posynomial([Monomial(2.0, {"a": 1.0, "b": 2.0})])
        renamed = rename_posynomial(p, {"a": "a2"})
        assert renamed.variables == ("a2", "b")
        assert renamed.evaluate({"a2": 3.0, "b": 1.0}) == pytest.approx(6.0)

    def test_identity_for_unmapped(self):
        p = Posynomial([Monomial.variable("a")])
        assert rename_posynomial(p, {}) == p


class TestEQI:
    def test_coordinator_is_min_merge(self, two_queries, three_values, model):
        multi = EQIPlanner(model).plan_all(two_queries, three_values)
        shared = multi.coordinator["y"]
        per_query_y = [multi.per_query[q.name].primary["y"] for q in two_queries]
        assert shared == pytest.approx(min(per_query_y))

    def test_every_query_guaranteed(self, two_queries, three_values, model):
        multi = EQIPlanner(model).plan_all(two_queries, three_values)
        for query in two_queries:
            bounds = {k: multi.coordinator[k] for k in query.variables}
            deviation = max_query_deviation(query.terms, three_values, bounds)
            assert deviation <= query.qab * (1 + 1e-6)

    def test_handles_general_queries(self, model):
        queries = [parse_query("x*y - u*v : 5", name="mixed_eqi")]
        values = {"x": 2.0, "y": 2.0, "u": 1.0, "v": 1.0}
        multi = EQIPlanner(CostModel(rates={k: 1.0 for k in values})).plan_all(
            queries, values)
        assert set(multi.coordinator) == {"x", "y", "u", "v"}

    def test_empty_rejected(self, model, three_values):
        with pytest.raises(FilterError):
            EQIPlanner(model).plan_all([], three_values)

    def test_replan_single_query(self, two_queries, three_values, model):
        planner = EQIPlanner(model)
        multi = planner.plan_all(two_queries, three_values)
        drifted = dict(three_values, y=2.5)
        updated = planner.replan(multi, two_queries[0], drifted)
        assert updated.per_query["mq2"] is multi.per_query["mq2"]
        assert updated.per_query["mq1"] is not multi.per_query["mq1"]
        assert set(updated.coordinator) == set(multi.coordinator)


class TestAAO:
    def test_shared_primary_across_queries(self, two_queries, three_values, model):
        multi = AAOPlanner(model).plan_all(two_queries, three_values)
        y1 = multi.per_query["mq1"].primary["y"]
        y2 = multi.per_query["mq2"].primary["y"]
        assert y1 == pytest.approx(y2, rel=1e-6)

    def test_secondary_is_per_query(self, two_queries, three_values, model):
        multi = AAOPlanner(model).plan_all(two_queries, three_values)
        c1 = multi.per_query["mq1"].secondary["y"]
        c2 = multi.per_query["mq2"].secondary["y"]
        # different QABs and partner items: windows should differ
        assert c1 != pytest.approx(c2, rel=1e-3)

    def test_window_guarantees_hold(self, two_queries, three_values, model):
        multi = AAOPlanner(model).plan_all(two_queries, three_values)
        for query in two_queries:
            assert multi.per_query[query.name].guarantees_qab_over_window(query)

    def test_aao_refresh_cost_at_most_eqi(self, two_queries, three_values, model):
        """AAO optimises the shared primaries jointly, so its estimated
        refresh rate cannot exceed EQI's min-merged one (the paper: AAO-T
        primaries are less stringent => fewer refreshes)."""
        eqi = EQIPlanner(model).plan_all(two_queries, three_values)
        aao = AAOPlanner(model).plan_all(two_queries, three_values)
        eqi_rate = model.estimated_refresh_rate(eqi.coordinator)
        aao_rate = model.estimated_refresh_rate(aao.coordinator)
        assert aao_rate <= eqi_rate * (1 + 1e-4)

    def test_secondaries_are_the_widening_oracle(self, two_queries,
                                                 three_values, model):
        """AAO widens each query's windows through its compiled template:
        bit for bit what the object-built widening program solves to."""
        queries = two_queries + [parse_query("x^2*y + 3 z : 6", name="mq3")]
        multi = AAOPlanner(model).plan_all(queries, three_values)
        for query in queries:
            plan = multi.per_query[query.name]
            widened = build_widen_program(
                query, three_values, plan.primary, model).solve()
            assert plan.secondary == {
                name: max(widened.values[secondary_variable(name)],
                          plan.primary[name])
                for name in query.variables}

    def test_rejects_mixed_sign(self, model):
        queries = [parse_query("x - u*v : 5", name="bad_aao")]
        with pytest.raises(NotPositiveCoefficientError):
            AAOPlanner(model).plan_all(queries, {"x": 1.0, "u": 1.0, "v": 1.0})

    def test_empty_rejected(self, model, three_values):
        with pytest.raises(FilterError):
            AAOPlanner(model).plan_all([], three_values)

    def test_program_variable_count(self, two_queries, three_values, model):
        program = AAOPlanner(model).build_program(two_queries, three_values)
        # 3 shared b, 2+2 per-query c, 2 R  ->  9 variables
        assert len(program.variables) == 9


class TestAAOTSchedule:
    def test_valid(self):
        assert AAOTSchedule(period=30).period == 30

    def test_invalid(self):
        with pytest.raises(FilterError):
            AAOTSchedule(period=0)
