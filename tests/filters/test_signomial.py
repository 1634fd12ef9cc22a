"""Tests for the signomial (successive-condensation) planner."""

import pytest

from repro.exceptions import FilterError
from repro.filters import (
    CostModel,
    DifferentSumPlanner,
    HalfAndHalfPlanner,
    SignomialPlanner,
)
from repro.filters.signomial import condense_to_monomial
from repro.gp import Monomial, Posynomial
from repro.queries import parse_query
from repro.queries.signed import mixed_worst_deviation


@pytest.fixture(scope="module")
def mixed_query():
    return parse_query("x*y - u*v : 5", name="sig_test")


@pytest.fixture(scope="module")
def mixed_values():
    return {"x": 5.0, "y": 4.0, "u": 3.0, "v": 2.0}


@pytest.fixture(scope="module")
def model(mixed_values):
    return CostModel(rates={k: 1.0 for k in mixed_values}, recompute_cost=2.0)


class TestCondensation:
    def test_underestimates_everywhere(self):
        x, y = Monomial.variable("x"), Monomial.variable("y")
        posy = 2 * x + 3 * y + 1
        anchor = {"x": 1.5, "y": 0.8}
        condensed = condense_to_monomial(posy, anchor)
        # exactness at the anchor
        assert condensed.evaluate(anchor) == pytest.approx(posy.evaluate(anchor))
        # AM-GM under-estimation at other points
        for point in ({"x": 0.5, "y": 0.5}, {"x": 3.0, "y": 0.1},
                      {"x": 1.5, "y": 2.5}):
            assert condensed.evaluate(point) <= posy.evaluate(point) * (1 + 1e-12)

    def test_single_term_is_identity(self):
        x = Monomial.variable("x")
        posy = Posynomial([2 * x])
        condensed = condense_to_monomial(posy, {"x": 4.0})
        assert condensed == 2 * x


class TestPlannerGuarantees:
    def test_feasible_for_both_directions(self, mixed_query, mixed_values, model):
        plan = SignomialPlanner(model).plan(mixed_query, mixed_values)
        deviation = mixed_worst_deviation(mixed_query.terms, mixed_values,
                                          plan.primary, plan.secondary)
        assert deviation <= mixed_query.qab * (1 + 1e-5)

    def test_never_worse_than_different_sum(self, mixed_query, mixed_values, model):
        """Seeded at DS and monotone by construction."""
        ds = DifferentSumPlanner(model).plan(mixed_query, mixed_values)
        planner = SignomialPlanner(model)
        plan = planner.plan(mixed_query, mixed_values)
        assert plan.objective <= ds.objective * (1 + 1e-6)
        trace = planner.last_trace
        # objectives are monotone non-increasing across iterations
        for earlier, later in zip(trace.objectives, trace.objectives[1:]):
            assert later <= earlier * (1 + 1e-9)

    def test_strict_improvement_on_offsetting_halves(self, mixed_query,
                                                     mixed_values, model):
        """When the halves can offset, the exact condition buys real slack
        over the mirror: expect a solid improvement."""
        ds = DifferentSumPlanner(model).plan(mixed_query, mixed_values)
        plan = SignomialPlanner(model).plan(mixed_query, mixed_values)
        assert plan.objective < 0.85 * ds.objective

    def test_uses_full_budget(self, mixed_query, mixed_values, model):
        plan = SignomialPlanner(model).plan(mixed_query, mixed_values)
        deviation = mixed_worst_deviation(mixed_query.terms, mixed_values,
                                          plan.primary, plan.secondary)
        assert deviation >= 0.95 * mixed_query.qab

    def test_heavy_negative_half_still_sound(self, mixed_values, model):
        query = parse_query("x*y - 10 u*v : 20", name="heavy")
        plan = SignomialPlanner(model).plan(query, mixed_values)
        deviation = mixed_worst_deviation(query.terms, mixed_values,
                                          plan.primary, plan.secondary)
        assert deviation <= query.qab * (1 + 1e-5)

    def test_dependent_halves(self, model):
        query = parse_query("x^2 - x*y : 4", name="dep_sig")
        values = {"x": 3.0, "y": 2.0}
        small_model = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=2.0)
        ds = DifferentSumPlanner(small_model).plan(query, values)
        plan = SignomialPlanner(small_model).plan(query, values)
        assert plan.objective <= ds.objective * (1 + 1e-6)
        deviation = mixed_worst_deviation(query.terms, values,
                                          plan.primary, plan.secondary)
        assert deviation <= query.qab * (1 + 1e-5)

    def test_windows_respect_lower_edge(self, mixed_query, mixed_values, model):
        plan = SignomialPlanner(model).plan(mixed_query, mixed_values)
        for name in mixed_query.variables:
            assert plan.primary[name] + plan.secondary[name] <= \
                mixed_values[name] * (1 + 1e-5)

    def test_ppq_passthrough(self, model):
        from repro.filters import DualDABPlanner

        query = parse_query("x*y : 5", name="ppq_sig")
        values = {"x": 2.0, "y": 2.0}
        small = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=2.0)
        direct = DualDABPlanner(small).plan(query, values)
        via = SignomialPlanner(small).plan(query, values)
        assert via.primary == pytest.approx(direct.primary, rel=1e-3)

    def test_bad_max_iterations(self, model):
        with pytest.raises(FilterError):
            SignomialPlanner(model, max_iterations=0)


class TestStackProtocol:
    """The coordinator forgets a removed query and clears starts on a fault
    resync through whatever planner it holds; under ``--algorithm
    signomial`` both calls must reach the PPQ planner and the Different-Sum
    seed planner."""

    @pytest.fixture()
    def planned(self, mixed_query, mixed_values, model):
        planner = SignomialPlanner(model)
        ppq = parse_query("x*y + u : 5", name="sig_ppq")
        planner.plan(ppq, mixed_values)
        planner.plan(mixed_query, mixed_values)
        inner = (planner._ppq_planner, planner._seed_planner.base)
        assert all(dual._queries for dual in inner)
        return planner, inner, (ppq, mixed_query)

    def test_forget_query_reaches_every_inner_planner(self, planned):
        planner, inner, queries = planned
        for query in queries:
            planner.forget_query(query.name)
        assert [dual._queries for dual in inner] == [{}, {}]

    def test_clear_warm_starts_reaches_every_inner_planner(self, planned):
        planner, inner, _ = planned
        planner.clear_warm_starts()
        assert all(state.main is None
                   for dual in inner for state in dual._queries.values())


class TestPlannerVsHeuristics:
    def test_beats_both_heuristics_on_refresh_objective(self, mixed_query,
                                                        mixed_values, model):
        hh = HalfAndHalfPlanner(model).plan(mixed_query, mixed_values)
        ds = DifferentSumPlanner(model).plan(mixed_query, mixed_values)
        sp = SignomialPlanner(model).plan(mixed_query, mixed_values)
        sp_rate = model.estimated_refresh_rate(sp.primary)
        assert sp_rate <= model.estimated_refresh_rate(ds.primary) * (1 + 1e-6)
        assert sp_rate <= model.estimated_refresh_rate(hh.primary) * (1 + 1e-6)

    def test_simulation_integration(self):
        from repro.simulation import SimulationConfig, run_simulation
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(query_count=2, item_count=20,
                                   trace_length=101, source_count=3, seed=47,
                                   query_kind="arbitrage")
        config = SimulationConfig(
            queries=scenario.queries, traces=scenario.traces,
            algorithm="signomial", recompute_cost=2.0, source_count=3,
            seed=47, fidelity_interval=4,
        )
        metrics = run_simulation(config).metrics
        assert metrics.refreshes > 0

    def test_zero_delay_fidelity(self):
        from repro.simulation import SimulationConfig, run_simulation
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(query_count=2, item_count=20,
                                   trace_length=101, source_count=3, seed=47,
                                   query_kind="arbitrage")
        config = SimulationConfig(
            queries=scenario.queries, traces=scenario.traces,
            algorithm="signomial", recompute_cost=2.0, source_count=3,
            seed=47, zero_delay=True, fidelity_interval=1,
        )
        metrics = run_simulation(config).metrics
        assert metrics.fidelity_loss_percent == 0.0
