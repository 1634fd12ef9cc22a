"""Optimal Refresh's two-rung plan ladder.

:class:`OptimalRefreshPlanner` re-plans on every refresh.  Once a query
has an optimum, a plan is first a Newton-KKT patch of the refreshed
template from that optimum; a declined patch, and a query's first plan,
are the template's solve.  Asserted over generated PPQs and value walks
(the world builder and walk of ``test_delta_equivalence.py``):

1. **First plan** — bit for bit the object builder's program solved cold.
2. **Later plans** — within 1e-6 relative objective of the oracle (the
   builder's program solved at the same values, warm-started along its
   own chain), and the QAB holds at the plan's values.
3. **Coverage** — the patch answers at least 95 % of the later plans.

A declined patch may not perturb the solve rung: with every patch
declined, the planner is the oracle chain, bit for bit.
"""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.exceptions import GPError
from repro.filters import CostModel, DifferentSumPlanner, OptimalRefreshPlanner
from repro.filters import delta_recompute
from repro.filters.delta_recompute import find_planner_stats
from repro.filters.optimal_refresh import build_optimal_refresh_program
from repro.queries.deviation import primary_variable
from tests.filters.test_delta_equivalence import _build_case, _perturb

#: Relative objective tolerance of a patched plan against the oracle: both
#: are KKT points of one convex program, the solve's to ≈ 1e-6.
OBJECTIVE_RTOL = 1e-6


def _oracle(query, values, model, warm):
    return build_optimal_refresh_program(query, values, model).solve(
        initial=warm)


def _assert_is_solution(plan, query, solution):
    assert plan.primary == {name: solution.values[primary_variable(name)]
                            for name in query.variables}
    assert plan.objective == solution.objective


class TestLadder:
    @given(case_seed=st.integers(0, 2**20),
           qab_frac=st.floats(0.01, 0.5),
           ddm=st.sampled_from(["monotonic", "random_walk"]),
           walk_seed=st.integers(0, 2**20),
           magnitude=st.floats(0.001, 0.03),
           ticks=st.integers(1, 20))
    @example(case_seed=12, qab_frac=0.25, ddm="monotonic", walk_seed=7,
             magnitude=0.02, ticks=20)
    @example(case_seed=77, qab_frac=0.3, ddm="random_walk", walk_seed=3,
             magnitude=0.03, ticks=12)
    # A purely linear query.
    @example(case_seed=2, qab_frac=0.05, ddm="monotonic", walk_seed=1,
             magnitude=0.01, ticks=5)
    def test_plans_match_the_solve(self, case_seed, qab_frac, ddm, walk_seed,
                                   magnitude, ticks):
        query, values, model = _build_case(case_seed, qab_frac)
        model = CostModel(ddm=ddm, rates=model.rates,
                          recompute_cost=model.recompute_cost)
        planner = OptimalRefreshPlanner(model)
        try:
            want = _oracle(query, values, model, None)
            plan = planner.plan(query, values)
        except GPError:
            assume(False)
        _assert_is_solution(plan, query, want)
        for tick in range(1, ticks + 1):
            values = _perturb(values, walk_seed, tick, magnitude)
            try:
                want = _oracle(query, values, model, want.values)
                plan = planner.plan(query, values)
            except GPError:
                assume(False)
            assert plan.objective == pytest.approx(want.objective,
                                                   rel=OBJECTIVE_RTOL)
            assert plan.guarantees_qab(query, values)
            assert plan.reference_values == {
                name: values[name] for name in query.variables}
        stats = planner.stats
        assert stats.cold_solves == 1
        assert stats.breaches == ticks
        assert stats.multistart_solves == 1 + stats.fallbacks
        assert stats.patches >= 0.95 * ticks
        assert stats.max_residual <= 1e-6

    def test_declined_patch_is_the_solve(self, monkeypatch):
        """Exact float equality: with ``newton_patch`` declining every
        plan, each one is the solve warm-started from the last optimum —
        the oracle chain itself."""
        monkeypatch.setattr(delta_recompute, "newton_patch",
                            lambda *args, **kwargs: None)
        query, values, model = _build_case(12, 0.25)
        planner = OptimalRefreshPlanner(model)
        want = None
        for tick in range(6):
            if tick:
                values = _perturb(values, 99, tick, 0.02)
            want = _oracle(query, values, model,
                           None if want is None else want.values)
            _assert_is_solution(planner.plan(query, values), query, want)
        stats = planner.stats
        assert (stats.cold_solves, stats.patches, stats.fallbacks) == (1, 0, 5)
        assert stats.multistart_solves == 6
        assert stats.declines == {"main_kkt": 5}

    def test_stats_reach_the_stack(self):
        """The ladder's counters are what a run reports, through the
        general-polynomial wrapper every shipped stack carries."""
        model = CostModel(rates={"x": 1.0, "y": 2.0})
        planner = OptimalRefreshPlanner(model)
        assert find_planner_stats(DifferentSumPlanner(model, planner)) \
            is planner.stats
