"""Compiled-GP templates must hand the solver bitwise-identical arrays —
and hence return bitwise-identical solutions — to the scalar builders;
the planners' patch ladders must land on the builders' optima."""

import numpy as np
import pytest

from repro.dynamics.models import DataDynamicsModel
from repro.dynamics.traces import Trace, TraceSet
from repro.filters import dual_dab
from repro.filters.compiled_gp import (
    CompiledDualDabTemplate,
    CompiledOptimalRefreshTemplate,
)
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import (
    DualDABPlanner,
    build_dual_dab_program,
    build_widen_program,
)
from repro.filters.optimal_refresh import (
    OptimalRefreshPlanner,
    build_optimal_refresh_program,
)
from repro.queries import parse_query
from repro.queries.deviation import primary_variable
from repro.simulation.harness import SimulationConfig, build_planner
from tests.filters.test_delta_equivalence import _Oracle


def _assert_same_arrays(compiled, reference):
    assert compiled.variables == reference.variables
    assert compiled.constraint_names == reference.constraint_names
    assert np.array_equal(compiled.objective.A, reference.objective.A)
    assert np.array_equal(compiled.objective.log_c, reference.objective.log_c)
    assert len(compiled.constraints) == len(reference.constraints)
    for mine, theirs in zip(compiled.constraints, reference.constraints):
        assert np.array_equal(mine.A, theirs.A)
        assert np.array_equal(mine.log_c, theirs.log_c)


QUERIES = [
    parse_query("2 x*y + x^2 : 5", name="mixed"),
    parse_query("x^3 + 4 y*z + x*z^2 : 20", name="cubic"),
    parse_query("x : 1", name="linear"),
]

VALUE_SETS = [
    {"x": 10.0, "y": 20.0, "z": 5.0},
    {"x": 13.7, "y": 18.2, "z": 6.6},
    {"x": 9.1, "y": 26.0, "z": 4.2},
]


@pytest.mark.parametrize("ddm", [DataDynamicsModel.MONOTONIC,
                                 DataDynamicsModel.RANDOM_WALK])
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_dual_dab_template_matches_scalar_compile(query, ddm):
    rates = {"x": 1.0, "y": 2.0, "z": 0.5}
    cost_model = CostModel(rates=rates, recompute_cost=5.0, ddm=ddm)
    template = CompiledDualDabTemplate(query, VALUE_SETS[0], cost_model)
    for values in VALUE_SETS:
        # mutate live rates between solves, like OnlineRateTracker does
        rates["x"] += 0.125
        template.refresh(values)
        reference = build_dual_dab_program(query, values, cost_model).compile()
        _assert_same_arrays(template.compiled, reference)


@pytest.mark.parametrize("envelope", ["sum", "max"])
def test_dual_dab_template_matches_scalar_compile_envelopes(envelope):
    query = QUERIES[0]
    cost_model = CostModel(rates={"x": 1.0, "y": 2.0}, recompute_cost=5.0)
    template = CompiledDualDabTemplate(
        query, VALUE_SETS[0], cost_model, recompute_envelope=envelope)
    template.refresh(VALUE_SETS[1])
    reference = build_dual_dab_program(
        query, VALUE_SETS[1], cost_model, recompute_envelope=envelope).compile()
    _assert_same_arrays(template.compiled, reference)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_optimal_refresh_template_matches_scalar_compile(query):
    cost_model = CostModel(rates={"x": 1.5, "y": 0.25, "z": 3.0})
    template = CompiledOptimalRefreshTemplate(query, VALUE_SETS[0], cost_model)
    for values in VALUE_SETS:
        template.refresh(values)
        reference = build_optimal_refresh_program(query, values, cost_model).compile()
        _assert_same_arrays(template.compiled, reference)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_widen_template_matches_scalar_compile(query):
    cost_model = CostModel(rates={"x": 1.0, "y": 2.0, "z": 0.5})
    primary = {name: 0.005 for name in query.variables}
    main = CompiledDualDabTemplate(query, VALUE_SETS[0], cost_model)
    main.widen(VALUE_SETS[0], primary)
    widen = main._widen
    for values in VALUE_SETS:
        reference = build_widen_program(query, values, primary, cost_model)
        if widen.substituted.is_constant:
            # The fully-substituted QAB row is dropped by compile(); the
            # template must make the same infeasibility judgement instead.
            widen.refresh(values, primary)
            continue
        widen.refresh(values, primary)
        _assert_same_arrays(widen.compiled, reference.compile())


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_planner_solutions_identical(query, monkeypatch):
    """End to end: with every Newton-KKT patch declined, the dual-DAB
    planner returns, bit for bit, what the object builders' programs solve
    to from the same warm starts — the declined rungs leave no trace."""
    monkeypatch.setattr(dual_dab, "newton_patch", lambda *args, **kwargs: None)
    cost_model = CostModel(rates={"x": 1.0, "y": 2.0, "z": 0.5},
                           recompute_cost=5.0)
    dual, oracle = DualDABPlanner(cost_model), _Oracle(cost_model)
    for vals in VALUE_SETS:
        assert dual.plan(query, vals) == oracle.plan(query, vals)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_planner_ladders_match_builders(query):
    """Both ladders as shipped: every dual-DAB plan — a linear-anchor patch
    first, then patches from the last optimum — is within 1e-6 relative
    objective of the builders' chain and holds the QAB over its window.
    Optimal Refresh's first plan is its builder's program solved cold, bit
    for bit; a later one is patched from the last optimum, and matches the
    builder's warm-started solve to 1e-6 relative objective."""
    items = query.variables
    cost_model = CostModel(rates={"x": 1.0, "y": 2.0, "z": 0.5},
                           recompute_cost=5.0)
    dual, oracle = DualDABPlanner(cost_model), _Oracle(cost_model)
    refresh = OptimalRefreshPlanner(cost_model)
    refresh_warm = None
    for vals in VALUE_SETS:
        plan = dual.plan(query, vals)
        assert plan.objective == pytest.approx(
            oracle.plan(query, vals).objective, rel=1e-6)
        assert plan.guarantees_qab_over_window(query)

        single = build_optimal_refresh_program(query, vals, cost_model).solve(
            initial=refresh_warm)
        plan = refresh.plan(query, vals)
        if refresh_warm is None:
            assert plan.primary == {name: single.values[primary_variable(name)]
                                    for name in items}
            assert plan.objective == single.objective
        else:
            assert plan.objective == pytest.approx(single.objective, rel=1e-6)
            assert plan.guarantees_qab(query, vals)
        refresh_warm = single.values
    assert dual.stats.multistart_solves == 0


def _shipped_stack(query, values, cost_model):
    """The dual-DAB planner stack the simulator and the service ship."""
    traces = TraceSet(Trace(name, [value, value])
                      for name, value in values.items())
    config = SimulationConfig(queries=[query], traces=traces,
                              algorithm="dual_dab")
    return build_planner(config, cost_model)


class TestTemplateServesItsQuery:
    """A template is reused only for an equal query (terms and QAB): the
    same name under a tenfold tighter QAB is planned on its own program."""

    QUERY = QUERIES[0]
    VALUES = {"x": 10.0, "y": 20.0}
    TIGHT = QUERY.with_qab(QUERY.qab / 10)

    @pytest.fixture()
    def cost_model(self):
        return CostModel(rates={"x": 1.0, "y": 2.0}, recompute_cost=5.0)

    def test_optimal_refresh(self, cost_model):
        planner = OptimalRefreshPlanner(cost_model)
        planner.plan(self.QUERY, self.VALUES)
        plan = planner.plan(self.TIGHT, self.VALUES)
        assert plan.guarantees_qab(self.TIGHT, self.VALUES)
        assert plan == OptimalRefreshPlanner(cost_model).plan(
            self.TIGHT, self.VALUES)

    def test_dual_dab(self, cost_model):
        planner = DualDABPlanner(cost_model)
        planner.plan(self.QUERY, self.VALUES)
        plan = planner.plan(self.TIGHT, self.VALUES)
        assert plan.guarantees_qab_over_window(self.TIGHT)
        assert plan == DualDABPlanner(cost_model).plan(self.TIGHT, self.VALUES)

    def test_shipped_stack(self, cost_model):
        stack = _shipped_stack(self.QUERY, self.VALUES, cost_model)
        stack.plan(self.QUERY, self.VALUES)
        plan = stack.plan(self.TIGHT, self.VALUES)
        assert plan.guarantees_qab_over_window(self.TIGHT)
        fresh = _shipped_stack(self.TIGHT, self.VALUES, cost_model)
        assert plan == fresh.plan(self.TIGHT, self.VALUES)
