"""Fallback-trigger tests for the dual-DAB planner's patch ladder.

A patch may *decline* for many reasons — an unreachable KKT tolerance, an
iteration budget too small for the drift, values too violent for a local
step, a degenerate start.  Every decline must (a) increment the fallback
counter with the reason recorded, (b) still answer the breach with the
full multi-start solve, and (c) ship a plan that holds the QAB invariant.
"""

import functools
import math

import pytest

from repro.filters import (
    CostModel,
    DifferentSumPlanner,
    DualDABPlanner,
    HalfAndHalfPlanner,
    dual_dab,
)
from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.delta_recompute import find_planner_stats, newton_patch
from repro.queries import parse_query

#: ``newton_patch``'s default KKT tolerance, which the planner runs with.
KKT_TOL = 1e-7


@pytest.fixture()
def world():
    query = parse_query("2*x^2*y + 0.5*y*z : 8", name="fbq")
    values = {"x": 2.0, "y": 3.0, "z": 1.5}
    model = CostModel(rates={"x": 1.0, "y": 1.2, "z": 0.8},
                      recompute_cost=4.0)
    return query, values, model


def _patch_with(monkeypatch, **kwargs):
    """Run every patch with ``newton_patch`` options other than its
    defaults."""
    monkeypatch.setattr(dual_dab, "newton_patch",
                        functools.partial(newton_patch, **kwargs))


class TestForcedDeclines:
    def test_unreachable_kkt_tol_declines_and_falls_back(self, world,
                                                         monkeypatch):
        query, values, model = world
        _patch_with(monkeypatch, kkt_tol=0.0)  # no finite residual passes
        planner = DualDABPlanner(model)
        first = planner.plan(query, values)
        stats = planner.stats
        # The first plan's one patch rung (the linear anchor) declined ...
        assert stats.cold_solves == 1 and stats.multistart_solves == 1
        assert stats.declines == {"main_kkt": 1}
        assert first.guarantees_qab_over_window(query)
        plan = planner.plan(query, {k: v * 1.05 for k, v in values.items()})
        # ... and the breach's two (last optimum, then the linear anchor).
        assert stats.patches == 0
        assert stats.fallbacks == 1
        assert stats.reanchors == 0
        assert stats.multistart_solves == 2
        assert stats.declines == {"main_kkt": 3}
        # The breach was still answered, by the full solve, soundly.
        assert plan.guarantees_qab_over_window(query)
        assert plan.recompute_rate > 0.0

    def test_tiny_iteration_budget_declines_on_large_drift(self, world,
                                                            monkeypatch):
        query, values, model = world
        _patch_with(monkeypatch, max_newton_iterations=1,
                    max_working_set_rounds=1)
        planner = DualDABPlanner(model)
        planner.plan(query, values)
        shaken = {k: v * (1.8 if k == "x" else 0.6)
                  for k, v in values.items()}
        plan = planner.plan(query, shaken)
        stats = planner.stats
        assert stats.fallbacks == 1
        assert stats.patches == 0
        assert sum(stats.declines.values()) >= 1
        assert plan.guarantees_qab_over_window(query)

    def test_value_collapse_exceeds_log_step_budget(self, world):
        """A near-zero crossing: one item loses ~12 orders of magnitude,
        far beyond what the damped log-space steps can cover — the patch
        must decline rather than return a half-converged point."""
        query, values, model = world
        planner = DualDABPlanner(model)
        planner.plan(query, values)
        crashed = dict(values)
        crashed["y"] = 1e-12
        plan = planner.plan(query, crashed)
        stats = planner.stats
        assert stats.fallbacks == 1
        assert stats.patches == 0
        assert plan.guarantees_qab_over_window(query)

    def test_fallback_reanchors_so_next_breach_can_patch(self, world,
                                                         monkeypatch):
        query, values, model = world
        planner = DualDABPlanner(model)
        shaken = {k: v * (1.8 if k == "x" else 0.6)
                  for k, v in values.items()}
        with monkeypatch.context() as patch:
            _patch_with(patch, max_newton_iterations=1,
                        max_working_set_rounds=1)
            planner.plan(query, values)
            planner.plan(query, shaken)
        assert planner.stats.fallbacks == 1
        # The full solve re-anchored the patch state: a gentle follow-up
        # breach patches (with a sane budget it converges in one round).
        plan = planner.plan(query, {k: v * 1.02 for k, v in shaken.items()})
        assert planner.stats.patches == 1
        assert plan.guarantees_qab_over_window(query)

    def test_clear_warm_starts_forces_cold_solve(self, world):
        query, values, model = world
        planner = DualDABPlanner(model)
        planner.plan(query, values)
        planner.clear_warm_starts()
        planner.plan(query, {k: v * 1.03 for k, v in values.items()})
        assert planner.stats.cold_solves == 2
        assert planner.stats.breaches == 0


class TestReanchorRung:
    """A common move large enough to leave ``qab`` slacker than the
    working-set tolerance at the last optimum used to decline every patch
    (an empty working set has no KKT point) and pay a multi-start solve
    per query; the ladder's linear-anchor rung answers it instead."""

    @pytest.fixture()
    def bank(self):
        from repro.dynamics.estimation import estimate_rates
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(query_count=12, item_count=20,
                                   trace_length=51, source_count=4, seed=3)
        items = sorted({name for query in scenario.queries
                        for name in query.variables})
        model = CostModel(rates=estimate_rates(scenario.traces, items=items),
                          recompute_cost=5.0)
        return scenario.queries, scenario.traces.initial_values(items), model

    @pytest.mark.parametrize("factor", [0.7, 0.85, 0.9, 1.1, 1.3])
    def test_common_move_never_reaches_the_multistart_solve(
            self, bank, factor, monkeypatch):
        from repro.gp import solver

        queries, values, model = bank
        planner = DualDABPlanner(model)
        for query in queries:
            planner.plan(query, values)

        solves = []
        solve_compiled = solver.solve_compiled
        monkeypatch.setattr(
            solver, "solve_compiled",
            lambda *args, **kwargs: (solves.append(1),
                                     solve_compiled(*args, **kwargs))[1])
        moved = {name: value * factor for name, value in values.items()}
        for query in queries:
            plan = planner.plan(query, moved)
            assert plan.guarantees_qab_over_window(query)
        stats = planner.stats
        assert solves == []
        assert stats.patches == len(queries) and stats.fallbacks == 0
        assert stats.max_residual <= 10.0 * KKT_TOL
        if factor <= 0.85:
            # The drop left every last optimum strictly interior.
            assert stats.declines == {"main_kkt": len(queries)}
            assert stats.reanchors >= 2 * len(queries)


class TestNewtonPatchGuards:
    """Degenerate starts are declines (None), never exceptions."""

    @pytest.fixture()
    def compiled(self, world):
        query, values, model = world
        return CompiledDualDabTemplate(query, values, model).compiled

    def test_no_start_declines(self, compiled):
        assert newton_patch(compiled, None) is None

    def test_missing_variable_declines(self, compiled):
        assert newton_patch(compiled, {"not_a_var": 1.0}) is None

    def test_nonpositive_value_declines(self, compiled):
        start = {name: 1.0 for name in compiled.variables}
        start[compiled.variables[0]] = 0.0
        assert newton_patch(compiled, start) is None
        start[compiled.variables[0]] = -2.0
        assert newton_patch(compiled, start) is None

    def test_nonfinite_value_declines(self, compiled):
        start = {name: 1.0 for name in compiled.variables}
        start[compiled.variables[0]] = math.nan
        assert newton_patch(compiled, start) is None
        start[compiled.variables[0]] = math.inf
        assert newton_patch(compiled, start) is None


class TestNewtonPatchCost:
    """One fused-kernel pass per Newton iterate: the warm start's pass
    seeds the working set and is the first round's first iterate, and the
    acceptance residual reads the pass the last step ended on."""

    def test_one_round_patch_evaluates_once_per_iterate(self, world,
                                                        monkeypatch):
        from repro.filters import delta_recompute
        from repro.gp.program import CompiledProgram

        query, values, model = world
        template = CompiledDualDabTemplate(query, values, model)
        optimum = template.solve(values).values
        template.refresh({k: v * 1.02 for k, v in values.items()})

        calls = {"evaluate": 0, "rounds": 0}
        evaluate = CompiledProgram.evaluate
        newton_round = delta_recompute._newton_working_set

        def counting_evaluate(self, y):
            calls["evaluate"] += 1
            return evaluate(self, y)

        def counting_round(*args, **kwargs):
            calls["rounds"] += 1
            return newton_round(*args, **kwargs)

        monkeypatch.setattr(CompiledProgram, "evaluate", counting_evaluate)
        monkeypatch.setattr(delta_recompute, "_newton_working_set",
                            counting_round)
        patched = newton_patch(template.compiled, optimum)
        assert patched is not None
        assert calls["rounds"] == 1 and patched.iterations >= 1
        assert calls["evaluate"] == 1 + patched.iterations



class TestStack:
    def test_stats_reach_the_stack(self, world):
        """The ladder's counters are what a run reports, found through
        either general-polynomial wrapper a shipped stack carries."""
        _, _, model = world
        planner = DualDABPlanner(model)
        for stack in (planner, DifferentSumPlanner(model, planner),
                      HalfAndHalfPlanner(model, planner)):
            assert find_planner_stats(stack) is planner.stats
        assert find_planner_stats(None) is None
