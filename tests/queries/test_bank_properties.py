"""Property-based equivalence of ``SharedStructureBank`` and per-query
compiled evaluation.

``repro.queries.bank_index`` is no longer a service mode — nothing in
``src/`` imports it; it stays on disk until the benchmark PR that drops
its ``SPAN_TABLE`` row (ROADMAP item 3), and this class-level suite keeps
it honest until then.  Hypothesis-generated high-overlap banks,
perturbation walks and churn sequences, asserting the shared-structure
index is *observably identical* to the flat per-query path:

1. **Value equivalence** — ``SharedStructureBank.values_all`` matches the
   per-query :class:`CompiledPolynomial` evaluation at every walk step.
2. **Notification equivalence** — the slack-screened mover set from
   ``refresh_movers`` equals the flat path's exact per-member QAB check;
   screening may evaluate extra members, never skip a real mover.
3. **Churn** — arbitrary add/remove interleavings (with swap-remove
   position maintenance, as the live QUERY_SUB path performs it) keep
   every surviving member's value and the stats plane consistent.
4. **Edge cases** — empty bank, all-distinct structures, duplicate
   registration, re-registration after removal.

Budget: the default ``ci`` profile keeps this in tier-1 seconds; set
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the >=200-example sweep (wired
into the nightly-properties CI job).
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.queries.bank_index import SharedStructureBank
from repro.queries.compiled import CompiledPolynomial, PowerTable
from repro.workloads import generate_template_bank, paper_registry

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

REGISTRY = paper_registry(20)


def _world(seed, count, distinct_frac):
    """A deterministic (queries, values) world from one seed."""
    rng = np.random.default_rng(seed)
    values = {name: float(rng.uniform(5.0, 50.0)) for name in REGISTRY.names}
    distinct = max(1, min(count, int(round(count * distinct_frac))))
    queries = generate_template_bank(REGISTRY, values, count, distinct,
                                     seed=seed)
    return queries, values, distinct


def _indexed(queries):
    table = PowerTable()
    bank = SharedStructureBank(table)
    for position, query in enumerate(queries):
        bank.add_query(query, position)
    return table, bank


class TestValueEquivalence:
    @given(seed=st.integers(0, 2**20),
           count=st.integers(1, 30),
           distinct_frac=st.floats(0.05, 1.0),
           ticks=st.integers(0, 25))
    @example(seed=0, count=1, distinct_frac=1.0, ticks=0)
    @example(seed=7, count=30, distinct_frac=0.1, ticks=25)
    def test_values_all_matches_flat_path_along_walk(
            self, seed, count, distinct_frac, ticks):
        queries, values, distinct = _world(seed, count, distinct_frac)
        table, bank = _indexed(queries)
        flat = [CompiledPolynomial(q, table) for q in queries]
        assert bank.stats()["distinct_structures"] == distinct
        rng = np.random.default_rng(seed + 1)
        pvec = table.vector(values)
        items = sorted({name for q in queries for name in q.variables})
        for _ in range(ticks + 1):
            out = bank.values_all(pvec, count)
            for i, compiled in enumerate(flat):
                exact = compiled.evaluate_vector(pvec)
                assert out[i] == pytest.approx(exact, rel=1e-9, abs=1e-9)
            item = items[int(rng.integers(len(items)))]
            values[item] *= float(1.0 + rng.uniform(-0.08, 0.08))
            table.update(pvec, [item], [values[item]])


class TestNotificationEquivalence:
    @given(seed=st.integers(0, 2**20),
           count=st.integers(1, 30),
           distinct_frac=st.floats(0.05, 1.0),
           ticks=st.integers(1, 40))
    @example(seed=3, count=30, distinct_frac=0.1, ticks=40)
    @example(seed=11, count=12, distinct_frac=1.0, ticks=20)
    def test_screened_movers_equal_flat_exact_check(
            self, seed, count, distinct_frac, ticks):
        queries, values, _ = _world(seed, count, distinct_frac)
        table, bank = _indexed(queries)
        qab = np.array([q.qab for q in queries])
        pvec = table.vector(values)
        last_user = bank.values_all(pvec, count).copy()
        rng = np.random.default_rng(seed + 2)
        items = sorted({name for q in queries for name in q.variables})
        for _ in range(ticks):
            item = items[int(rng.integers(len(items)))]
            values[item] *= float(1.0 + rng.uniform(-0.05, 0.05))
            table.update(pvec, [item], [values[item]])
            exact = bank.values_all(pvec, count)
            affected = set()
            for tid in bank.templates_of_item(item):
                affected.update(bank.template_positions(tid).tolist())
            brute = {p for p in affected
                     if abs(exact[p] - last_user[p]) > qab[p]}
            positions, moved = bank.refresh_movers(item, pvec, last_user, qab)
            assert set(positions) == brute
            for p, v in zip(positions, moved):
                last_user[p] = v


class TestChurn:
    @given(seed=st.integers(0, 2**20),
           count=st.integers(2, 16),
           distinct_frac=st.floats(0.1, 1.0),
           ops=st.lists(st.integers(0, 2**16), min_size=1, max_size=40))
    @example(seed=1, count=16, distinct_frac=0.2, ops=[0, 1, 2, 3, 4, 5])
    def test_add_remove_interleavings_stay_consistent(
            self, seed, count, distinct_frac, ops):
        queries, values, _ = _world(seed, count, distinct_frac)
        table, bank = _indexed([])
        pvec = None
        order = []                       # caller-side bank positions
        pending = list(queries)
        for op in ops:
            if pending and (op % 2 == 0 or not order):
                query = pending.pop(0)
                bank.add_query(query, len(order))
                order.append(query)
            else:
                victim = order[op % len(order)]
                # Swap-remove exactly as the live core does: move the
                # last member into the vacated position first.
                row = order.index(victim)
                last = order[-1]
                if last.name != victim.name:
                    order[row] = last
                    bank.set_position(last.name, row)
                order.pop()
                bank.remove_query(victim.name)
                pending.append(victim)   # may be re-registered later
            pvec = table.vector(values)
            out = bank.values_all(pvec, len(order))
            assert len(bank) == len(order)
            for position, query in enumerate(order):
                exact = CompiledPolynomial(query, table).evaluate_vector(pvec)
                assert out[position] == pytest.approx(exact, rel=1e-9,
                                                      abs=1e-9)
        stats = bank.stats()
        assert stats["queries"] == len(order)
        assert stats["appends"] - stats["removals"] == len(order)


class TestEdgeCases:
    def test_empty_bank(self):
        table, bank = _indexed([])
        assert len(bank) == 0
        out = bank.values_all(table.vector({}), 0)
        assert out.shape == (0,)
        assert bank.stats()["distinct_structures"] == 0

    def test_all_distinct_structures_dedup_ratio_one(self):
        queries, values, distinct = _world(5, 8, 1.0)
        assert distinct == 8
        _, bank = _indexed(queries)
        stats = bank.stats()
        assert stats["distinct_structures"] == 8
        assert stats["dedup_ratio"] == 1.0
        assert stats["structure_hits"] == 0

    def test_duplicate_registration_rejected_then_reusable(self):
        queries, values, _ = _world(9, 2, 0.5)
        table, bank = _indexed(queries)
        with pytest.raises(ValueError, match="already indexed"):
            bank.add_query(queries[0], 7)
        bank.remove_query(queries[0].name)
        bank.add_query(queries[0], 0)    # re-registration after removal
        pvec = table.vector(values)
        exact = CompiledPolynomial(queries[0], table).evaluate_vector(pvec)
        assert bank.value_of(pvec, queries[0].name) == pytest.approx(exact)

