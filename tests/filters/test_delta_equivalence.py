"""Property-based equivalence suite for delta-driven incremental recompute.

The tentpole invariants of ISSUE 7, asserted over Hypothesis-generated
query banks and perturbation sequences:

1. **Fidelity** — every plan the delta planner ships (patched or not)
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
   1e-6; when that rung declines it is the inner planner's plan, bit for
   bit.

The reference throughout is a bare :class:`DualDABPlanner` — the
multi-start solve the patch replaces on the breach path.

Budget: the default ``ci`` Hypothesis profile keeps the suite under a
minute for tier-1; set ``REPRO_HYPOTHESIS_PROFILE=nightly`` for the
>=200-example nightly sweep.  The ``@example`` corpus pins seeds that
exercised every decline/accept path while the feature was built, so the
interesting cases run even at ``max_examples=1``.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import GPError
from repro.filters import CostModel, DualDABPlanner
from repro.filters.delta_recompute import DeltaRecomputePlanner
from repro.queries import parse_query

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

#: Relative tolerance for patched-vs-full objective agreement.  The full
#: solver itself only promises ~1e-6 feasibility, and an accepted patch
#: holds the KKT residual to 1e-7; observed disagreement is ~1e-9.
OBJECTIVE_RTOL = 1e-5


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


def _delta_pair(model):
    """A patch-first planner plus an independent full-solve reference."""
    delta = DeltaRecomputePlanner(DualDABPlanner(model))
    reference = DualDABPlanner(model)
    return delta, reference


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
        assert stats.max_residual <= 10.0 * delta.kkt_tol
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
        assert delta.stats.max_residual <= 10.0 * delta.kkt_tol

    def test_cold_solve_is_the_inner_planners_plan(self):
        """Exact float equality, not approx: when the linear-anchor rung
        declines (``kkt_tol=0`` — no finite residual passes) the cold plan
        *is* the inner planner's, and the declined attempt may not have
        perturbed the solve path in any way."""
        query, values, model = _build_case(77, 0.3)
        delta, reference = _delta_pair(model)
        delta.kkt_tol = 0.0
        got, want = delta.plan(query, values), reference.plan(query, values)
        assert got.primary == want.primary
        assert got.secondary == want.secondary
        assert got.recompute_rate == want.recompute_rate
        assert got.objective == want.objective
        stats = delta.stats
        assert stats.cold_solves == 1 and stats.breaches == 0
        assert stats.reanchors == 0 and stats.multistart_solves == 1
        assert stats.declines == {"main_kkt": 1}

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
