"""Fallback-trigger tests for the delta-recompute planner (ISSUE 7).

A patch may *decline* for many reasons — an unreachable KKT tolerance, an
iteration budget too small for the drift, values too violent for a local
step, a degenerate start.  Every decline must (a) increment the fallback
counter with the reason recorded, (b) still answer the breach with the
full multi-start solve, and (c) ship a plan that holds the QAB invariant.
"""

import math

import pytest

from repro.exceptions import FilterError
from repro.filters import CostModel, DualDABPlanner
from repro.filters.caching import QuantisingCachePlanner
from repro.filters.delta_recompute import (
    DeltaRecomputePlanner,
    find_delta_planner,
    newton_patch,
)
from repro.queries import parse_query


@pytest.fixture()
def world():
    query = parse_query("2*x^2*y + 0.5*y*z : 8", name="fbq")
    values = {"x": 2.0, "y": 3.0, "z": 1.5}
    model = CostModel(rates={"x": 1.0, "y": 1.2, "z": 0.8},
                      recompute_cost=4.0)
    return query, values, model


def _delta(model, **kwargs):
    return DeltaRecomputePlanner(
        DualDABPlanner(model, use_compiled=True), **kwargs)


class TestForcedDeclines:
    def test_unreachable_kkt_tol_declines_and_falls_back(self, world):
        query, values, model = world
        planner = _delta(model, kkt_tol=0.0)   # no finite residual passes
        planner.plan(query, values)
        plan = planner.plan(query, {k: v * 1.05 for k, v in values.items()})
        stats = planner.stats
        assert stats.patches == 0
        assert stats.fallbacks == 1
        assert stats.declines.get("main_kkt", 0) == 1
        # The breach was still answered, by the full solve, soundly.
        assert plan.guarantees_qab_over_window(query)
        assert plan.recompute_rate > 0.0

    def test_tiny_iteration_budget_declines_on_large_drift(self, world):
        query, values, model = world
        planner = _delta(model, max_newton_iterations=1,
                         max_working_set_rounds=1)
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
        planner = _delta(model)
        planner.plan(query, values)
        crashed = dict(values)
        crashed["y"] = 1e-12
        plan = planner.plan(query, crashed)
        stats = planner.stats
        assert stats.fallbacks == 1
        assert stats.patches == 0
        assert plan.guarantees_qab_over_window(query)

    def test_fallback_reanchors_so_next_breach_can_patch(self, world):
        query, values, model = world
        planner = _delta(model, max_newton_iterations=1,
                         max_working_set_rounds=1)
        planner.plan(query, values)
        shaken = {k: v * (1.8 if k == "x" else 0.6)
                  for k, v in values.items()}
        planner.plan(query, shaken)
        assert planner.stats.fallbacks == 1
        # The full solve re-anchored the patch state: a gentle follow-up
        # breach patches (with a sane budget it converges in one round).
        planner.max_newton_iterations = 12
        planner.max_working_set_rounds = 4
        plan = planner.plan(query, {k: v * 1.02 for k, v in shaken.items()})
        assert planner.stats.patches == 1
        assert plan.guarantees_qab_over_window(query)

    def test_clear_warm_starts_forces_cold_solve(self, world):
        query, values, model = world
        planner = _delta(model)
        planner.plan(query, values)
        planner.clear_warm_starts()
        planner.plan(query, {k: v * 1.03 for k, v in values.items()})
        assert planner.stats.cold_solves == 2
        assert planner.stats.breaches == 0


class TestNewtonPatchGuards:
    """Degenerate starts are declines (None), never exceptions."""

    @pytest.fixture()
    def compiled(self, world):
        query, values, model = world
        inner = DualDABPlanner(model, use_compiled=True)
        inner.plan(query, values)
        return inner.compiled_template(query.name).compiled

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
        inner = DualDABPlanner(model, use_compiled=True)
        inner.plan(query, values)
        template = inner.compiled_template(query.name)
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
        patched = newton_patch(template.compiled, inner.warm_start(query.name))
        assert patched is not None
        assert calls["rounds"] == 1 and patched.iterations >= 1
        assert calls["evaluate"] == 1 + patched.iterations


class TestConstruction:
    def test_unknown_mode_rejected(self, world):
        """There is one pipeline and no selector: the deleted ``mode``
        argument has no shim behind it, whatever its value."""
        _, _, model = world
        inner = DualDABPlanner(model, use_compiled=True)
        for mode in ("full", "delta", "incremental"):
            with pytest.raises(TypeError, match="mode"):
                DeltaRecomputePlanner(inner, mode=mode)

    def test_delta_requires_compiled_templates(self, world):
        _, _, model = world
        inner = DualDABPlanner(model, use_compiled=False)
        with pytest.raises(FilterError, match="use_compiled"):
            DeltaRecomputePlanner(inner)

    def test_find_delta_planner_walks_wrapper_stacks(self, world):
        _, _, model = world
        delta = _delta(model)
        cache = QuantisingCachePlanner(delta)
        assert find_delta_planner(cache) is delta
        assert find_delta_planner(delta) is delta
        assert find_delta_planner(DualDABPlanner(model)) is None
        assert find_delta_planner(None) is None
