"""Property-based equivalence suite for the dual-DAB planner's patch ladder.

Asserted over Hypothesis-generated query banks and perturbation sequences:

1. **Fidelity** — every plan :class:`DualDABPlanner` ships (patched or not)
   satisfies the paper's QAB-over-window invariant
   (:meth:`DABAssignment.guarantees_qab_over_window`).
2. **Equivalence** — whenever a breach is answered with a Newton-KKT
   patch, the patched objective matches a from-scratch full multi-start
   solve at the same values to solver tolerance (the log-space program is
   convex, so a KKT point *is* the optimum — this suite is the empirical
   check on that argument).
3. **Cold start** — a query's first plan (nothing to patch from) is a
   Newton-KKT patch from the linear anchor, held to the same acceptance
   checks as a breach patch and to the full solve's objective within
   1e-6; when that rung declines it is the oracle's solve, bit for bit.

The reference throughout is the object builders' solve chain
(:func:`build_dual_dab_program` warm-started from the query's previous
optimum, then :func:`build_widen_program`) — the multi-start solve the
patch replaces, and the planner's own last rung.

Budget: the default ``ci`` Hypothesis profile keeps the suite under a
minute for tier-1; set ``REPRO_HYPOTHESIS_PROFILE=nightly`` for the
>=200-example nightly sweep.  The ``@example`` corpus pins seeds that
exercised every decline/accept path while the feature was built, so the
interesting cases run even at ``max_examples=1``.
"""

import functools
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import GPError
from repro.filters import CostModel, DABAssignment, DualDABPlanner, dual_dab
from repro.filters.delta_recompute import newton_patch
from repro.filters.dual_dab import (
    RECOMPUTE_RATE_VARIABLE,
    build_dual_dab_program,
    build_widen_program,
)
from repro.queries import parse_query
from repro.queries.deviation import primary_variable, secondary_variable

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

#: Relative tolerance for patched-vs-full objective agreement: both are
#: KKT points of one convex program, the solve's to ≈ 1e-6 and an accepted
#: patch's to 1e-7; observed disagreement is ~1e-9.
OBJECTIVE_RTOL = 1e-6

#: ``newton_patch``'s default KKT tolerance, which the planner runs with;
#: an accepted patch's residual is at most ten times it.
KKT_TOL = 1e-7


def _build_case(case_seed, qab_frac):
    """A deterministic (query, values, cost model) world from one seed.

    Everything — item count, term structure, exponents, rates, mu — comes
    from ``case_seed`` so ``@example`` pins are plain integers.
    """
    rng = np.random.default_rng(case_seed)
    n_items = int(rng.integers(2, 5))
    items = [f"i{k}" for k in range(n_items)]
    n_terms = int(rng.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        width = int(rng.integers(1, min(n_items, 2) + 1))
        chosen = rng.choice(n_items, size=width, replace=False)
        factors = [f"{items[j]}^{int(rng.integers(1, 3))}" for j in chosen]
        coefficient = round(float(rng.uniform(0.5, 3.0)), 3)
        terms.append(f"{coefficient}*" + "*".join(factors))
    values = {name: round(float(rng.uniform(1.0, 10.0)), 4)
              for name in items}
    probe = parse_query(" + ".join(terms), qab=1.0, name=f"pq{case_seed}")
    qab = qab_frac * probe.evaluate(values)
    query = parse_query(" + ".join(terms), qab=qab, name=f"pq{case_seed}")
    rates = {name: round(float(rng.uniform(0.5, 2.0)), 3) for name in items}
    mu = round(float(rng.uniform(1.0, 10.0)), 3)
    model = CostModel(rates=rates, recompute_cost=mu)
    return query, values, model


def _perturb(values, perturb_seed, tick, magnitude):
    """Tick ``tick`` of a multiplicative random walk on the item values."""
    rng = np.random.default_rng((perturb_seed, tick))
    deltas = rng.uniform(-magnitude, magnitude, len(values))
    return {name: value * float(1.0 + d)
            for (name, value), d in zip(sorted(values.items()), deltas)}


class _Oracle:
    """The builders' solve chain for one query: the dual-DAB program solved
    warm from the previous optimum, then the widening program solved from
    the new one."""

    def __init__(self, model):
        self.model = model
        self.warm = None

    def plan(self, query, values):
        items = query.variables
        main = build_dual_dab_program(query, values, self.model).solve(
            initial=self.warm)
        self.warm = main.values
        primary = {name: main.values[primary_variable(name)] for name in items}
        widened = build_widen_program(query, values, primary,
                                      self.model).solve(initial=main.values)
        return DABAssignment(
            primary=primary,
            secondary={name: max(widened.values[secondary_variable(name)],
                                 primary[name]) for name in items},
            reference_values={name: float(values[name]) for name in items},
            recompute_rate=main.values[RECOMPUTE_RATE_VARIABLE],
            objective=main.objective,
        )


def _delta_pair(model):
    """The planner plus an independent full-solve reference."""
    return DualDABPlanner(model), _Oracle(model)


def _decline_every_patch(monkeypatch):
    """``kkt_tol=0``: no finite residual passes, so every patch declines."""
    monkeypatch.setattr(dual_dab, "newton_patch",
                        functools.partial(newton_patch, kkt_tol=0.0))


class TestPatchedPlanEquivalence:
    """The headline property: patch ≡ full solve, QAB never violated."""

    @given(case_seed=st.integers(0, 2**20),
           qab_frac=st.floats(0.05, 0.5),
           perturb_seed=st.integers(0, 2**20),
           magnitude=st.floats(0.01, 0.25),
           ticks=st.integers(1, 4))
    # Seed-pinned regression corpus: shrunk cases that historically hit the
    # patch-accept, widen-patch, qab-guard and fallback paths respectively.
    @example(case_seed=12, qab_frac=0.25, perturb_seed=7,
             magnitude=0.05, ticks=3)
    @example(case_seed=901, qab_frac=0.08, perturb_seed=41,
             magnitude=0.2, ticks=2)
    @example(case_seed=4478, qab_frac=0.5, perturb_seed=0,
             magnitude=0.25, ticks=4)
    @example(case_seed=230000, qab_frac=0.05, perturb_seed=1,
             magnitude=0.01, ticks=1)
    def test_patched_objective_matches_full_solve(
            self, case_seed, qab_frac, perturb_seed, magnitude, ticks):
        query, values, model = _build_case(case_seed, qab_frac)
        delta, reference = _delta_pair(model)
        try:
            plan = delta.plan(query, values)      # cold solve
        except GPError:
            assume(False)
        assert plan.guarantees_qab_over_window(query)

        for tick in range(1, ticks + 1):
            values = _perturb(values, perturb_seed, tick, magnitude)
            patches_before = delta.stats.patches
            try:
                plan = delta.plan(query, values)
            except GPError:
                assume(False)
            # Invariant 1: fidelity holds for every shipped plan.
            assert plan.guarantees_qab_over_window(query)
            assert plan.recompute_rate > 0.0
            for item in query.variables:
                assert plan.secondary[item] >= plan.primary[item] * (1 - 1e-9)
            if delta.stats.patches == patches_before:
                continue                           # fell back: full solve ran
            # Invariant 2: the patch equals an independent full solve.
            try:
                full = reference.plan(query, values)
            except GPError:
                assume(False)
            assert math.isfinite(plan.objective)
            assert plan.objective == pytest.approx(
                full.objective, rel=OBJECTIVE_RTOL, abs=1e-9)


#: Relative tolerance for a cold (linear-anchor) plan against the full
#: solve: both are KKT points of one convex program.
COLD_OBJECTIVE_RTOL = 1e-6


class TestColdPlan:
    """A first plan answered by the linear-anchor rung is the optimum the
    multi-start solve finds, and passes the same gates as a breach patch."""

    @given(case_seed=st.integers(0, 2**20),
           qab_frac=st.floats(0.01, 0.5),
           ddm=st.sampled_from(["monotonic", "random_walk"]))
    @example(case_seed=12, qab_frac=0.25, ddm="monotonic")
    @example(case_seed=77, qab_frac=0.3, ddm="random_walk")
    # A purely linear query: the anchor's closed form is its optimum.
    @example(case_seed=2, qab_frac=0.05, ddm="monotonic")
    def test_cold_plan_matches_full_solve(self, case_seed, qab_frac, ddm):
        query, values, model = _build_case(case_seed, qab_frac)
        model = CostModel(ddm=ddm, rates=model.rates,
                          recompute_cost=model.recompute_cost)
        delta, reference = _delta_pair(model)
        try:
            plan = delta.plan(query, values)
        except GPError:
            assume(False)
        stats = delta.stats
        assert stats.cold_solves == 1 and stats.breaches == 0
        assert stats.reanchors + stats.multistart_solves == 1
        assert plan.guarantees_qab_over_window(query)
        assert plan.recompute_rate > 0.0
        for item in query.variables:
            assert plan.secondary[item] >= plan.primary[item] * (1 - 1e-9)
        if not stats.reanchors:
            return                                 # the oracle itself answered
        assert stats.max_residual <= 10.0 * KKT_TOL
        try:
            full = reference.plan(query, values)
        except GPError:
            assume(False)
        assert plan.objective == pytest.approx(
            full.objective, rel=COLD_OBJECTIVE_RTOL)

    def test_the_rung_answers_generated_queries(self):
        """The anchor is not a rarity: over a pinned spread of generated
        queries and budgets it answers most first plans outright."""
        answered = planned = 0
        for case_seed in range(40):
            query, values, model = _build_case(case_seed, 0.1)
            delta, _ = _delta_pair(model)
            try:
                delta.plan(query, values)
            except GPError:
                continue
            planned += 1
            answered += delta.stats.reanchors
        assert planned >= 30
        assert answered >= 0.85 * planned


class TestDeterministicWalk:
    """A longer pinned random walk: exercises repeated patching with the
    warm-start state advancing each tick — independent of the Hypothesis
    budget, so CI always gets this coverage."""

    def test_fifty_tick_walk_stays_equivalent(self):
        query, values, model = _build_case(12, 0.25)
        delta, reference = _delta_pair(model)
        delta.plan(query, values)
        checked = 0
        for tick in range(1, 51):
            values = _perturb(values, 99, tick, 0.06)
            patches_before = delta.stats.patches
            plan = delta.plan(query, values)
            assert plan.guarantees_qab_over_window(query)
            if delta.stats.patches > patches_before:
                full = reference.plan(query, values)
                assert plan.objective == pytest.approx(
                    full.objective, rel=OBJECTIVE_RTOL, abs=1e-9)
                checked += 1
        # The walk must actually exercise the patch path, and mostly so.
        assert checked >= 10
        assert delta.stats.patch_hit_rate >= 0.7
        assert delta.stats.max_residual <= 10.0 * KKT_TOL

    def test_cold_solve_is_the_inner_planners_plan(self, monkeypatch):
        """Exact float equality, not approx: when the linear-anchor rung
        declines the cold plan *is* the oracle's solve, and the declined
        attempt may not have perturbed the solve path in any way."""
        _decline_every_patch(monkeypatch)
        query, values, model = _build_case(77, 0.3)
        delta, reference = _delta_pair(model)
        assert delta.plan(query, values) == reference.plan(query, values)
        stats = delta.stats
        assert stats.cold_solves == 1 and stats.breaches == 0
        assert stats.reanchors == 0 and stats.multistart_solves == 1
        assert stats.declines == {"main_kkt": 1}

    def test_every_patch_declining_is_the_oracle_chain(self, monkeypatch):
        """With every patch declined, each plan is the solve warm-started
        from the last optimum — the oracle chain itself, bit for bit."""
        _decline_every_patch(monkeypatch)
        query, values, model = _build_case(12, 0.25)
        delta, reference = _delta_pair(model)
        for tick in range(6):
            if tick:
                values = _perturb(values, 99, tick, 0.06)
            assert delta.plan(query, values) == reference.plan(query, values)
        stats = delta.stats
        assert (stats.cold_solves, stats.patches, stats.fallbacks) == (1, 0, 5)
        assert stats.multistart_solves == 6
        assert stats.declines == {"main_kkt": 1 + 2 * 5}

    def test_residual_counters_track_accepted_patches(self):
        query, values, model = _build_case(12, 0.25)
        delta, _ = _delta_pair(model)
        delta.plan(query, values)
        for tick in range(1, 11):
            values = _perturb(values, 5, tick, 0.04)
            delta.plan(query, values)
        stats = delta.stats
        assert stats.breaches == stats.patches + stats.fallbacks
        assert stats.cold_solves == 1
        if stats.patches:
            assert 0.0 <= stats.last_residual <= stats.max_residual
            assert stats.patch_newton_iterations >= stats.patches
        summary = stats.latency_summary()
        assert summary["samples"] == stats.breaches
        if stats.breaches:
            assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
