"""Unit tests for the shared-structure bank index (ISSUE 8 tentpole).

Covers the index layer in isolation: template-key canonicalization,
structure dedup, swap-remove bookkeeping, exact evaluation against the
per-query compiled path, slack-screening soundness (screened-out members
never actually moved).
"""

import numpy as np
import pytest

from repro.queries import PolynomialQuery, QueryTerm
from repro.queries.bank_index import (
    BANK_INDEX_MODES,
    SharedStructureBank,
    template_key,
)
from repro.queries.compiled import CompiledPolynomial, PowerTable


def _pq(name, terms, qab=1.0):
    return PolynomialQuery(terms, qab=qab, name=name)


def _pair(weight, a, b):
    return QueryTerm.product(weight, a, b)


def _values(items, seed=0):
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(1.0, 10.0)) for name in items}


class TestTemplateKey:
    def test_same_structure_different_weights_share_key(self):
        q1 = _pq("a", [_pair(2.0, "x", "y"), _pair(3.0, "u", "v")])
        q2 = _pq("b", [_pair(7.5, "x", "y"), _pair(-1.25, "u", "v")])
        assert template_key(q1) == template_key(q2)

    def test_term_order_is_canonical(self):
        # PolynomialQuery sorts terms by signature, so authoring order
        # cannot split a structure into two templates.
        q1 = _pq("a", [_pair(2.0, "x", "y"), _pair(3.0, "u", "v")])
        q2 = _pq("b", [_pair(3.0, "u", "v"), _pair(2.0, "x", "y")])
        assert template_key(q1) == template_key(q2)

    def test_different_items_or_exponents_split(self):
        base = _pq("a", [_pair(1.0, "x", "y")])
        other_items = _pq("b", [_pair(1.0, "x", "z")])
        other_exp = _pq("c", [QueryTerm(1.0, {"x": 2, "y": 1})])
        assert template_key(base) != template_key(other_items)
        assert template_key(base) != template_key(other_exp)

    def test_modes_tuple(self):
        assert BANK_INDEX_MODES == ("flat", "shared")


class TestMembership:
    def test_dedup_counts_structure_hits(self):
        table = PowerTable()
        bank = SharedStructureBank(table)
        queries = [_pq(f"q{i}", [_pair(1.0 + i, "x", "y")]) for i in range(5)]
        tids = [bank.add_query(q, i) for i, q in enumerate(queries)]
        assert len(set(tids)) == 1
        assert bank.structure_hits == 4
        assert len(bank) == 5
        stats = bank.stats()
        assert stats["distinct_structures"] == 1
        assert stats["queries"] == 5
        assert stats["dedup_ratio"] == 5.0
        assert stats["appends"] == 5

    def test_duplicate_name_rejected(self):
        bank = SharedStructureBank(PowerTable())
        q = _pq("dup", [_pair(1.0, "x", "y")])
        bank.add_query(q, 0)
        with pytest.raises(ValueError, match="already indexed"):
            bank.add_query(q, 1)

    def test_swap_remove_remaps_moved_member(self):
        table = PowerTable()
        bank = SharedStructureBank(table)
        for i in range(4):
            bank.add_query(_pq(f"q{i}", [_pair(float(i + 1), "x", "y")]), i)
        version = bank.template_version(0)
        bank.remove_query("q1")         # q3's row swaps into q1's slot
        assert "q1" not in bank
        assert len(bank) == 3
        assert bank.template_version(0) == version + 1
        values = _values(["x", "y"])
        pvec = table.vector(values)
        for i in (0, 2, 3):
            expected = (i + 1) * values["x"] * values["y"]
            assert bank.value_of(pvec, f"q{i}") == pytest.approx(expected)

    def test_set_position_rescatters(self):
        table = PowerTable()
        bank = SharedStructureBank(table)
        bank.add_query(_pq("q0", [_pair(2.0, "x", "y")]), 0)
        bank.add_query(_pq("q1", [_pair(3.0, "x", "y")]), 1)
        bank.set_position("q1", 5)
        values = _values(["x", "y"])
        pvec = table.vector(values)
        out = bank.values_all(pvec, 6)
        assert out[5] == pytest.approx(3.0 * values["x"] * values["y"])
        assert out[1] == 0.0

    def test_capacity_growth_preserves_members(self):
        table = PowerTable()
        bank = SharedStructureBank(table)
        n = 37                          # forces several capacity doublings
        for i in range(n):
            bank.add_query(_pq(f"q{i}", [_pair(float(i + 1), "x", "y")]), i)
        values = _values(["x", "y"])
        pvec = table.vector(values)
        out = bank.values_all(pvec, n)
        expected = np.array([(i + 1) * values["x"] * values["y"]
                             for i in range(n)])
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestEvaluation:
    def _mixed_bank(self, seed=7):
        rng = np.random.default_rng(seed)
        table = PowerTable()
        bank = SharedStructureBank(table)
        structures = [
            [("x", "y"), ("u", "v")],
            [("x", "z")],
            [("a", "b"), ("c", "d"), ("x", "y")],
        ]
        queries = []
        for i in range(24):
            pairs = structures[i % len(structures)]
            terms = [_pair(float(rng.uniform(0.5, 5.0)), a, b)
                     for a, b in pairs]
            q = _pq(f"q{i}", terms, qab=float(rng.uniform(0.5, 2.0)))
            queries.append(q)
            bank.add_query(q, i)
        items = sorted({name for s in structures for ab in s for name in ab})
        return table, bank, queries, items

    def test_values_all_matches_compiled_per_query(self):
        table, bank, queries, items = self._mixed_bank()
        values = _values(items, seed=3)
        pvec = table.vector(values)
        out = bank.values_all(pvec, len(queries))
        for i, q in enumerate(queries):
            exact = CompiledPolynomial(q, table).evaluate_vector(pvec)
            assert out[i] == pytest.approx(exact, rel=1e-12)
            assert bank.value_of(pvec, q.name) == pytest.approx(exact,
                                                                rel=1e-12)

    def test_inverted_index_covers_exactly_item_templates(self):
        table, bank, queries, items = self._mixed_bank()
        for item in items:
            for tid in bank.templates_of_item(item):
                assert item in bank.template_items(tid)
        # "x" appears in all three structures, "a" in exactly one.
        assert len(bank.templates_of_item("x")) == 3
        assert len(bank.templates_of_item("a")) == 1
        assert bank.templates_of_item("nope") == ()

    def test_screening_soundness_random_walk(self):
        """Screened-out members must never actually be movers: every tick,
        the mover set from ``refresh_movers`` equals the brute-force exact
        check over the affected templates."""
        table, bank, queries, items = self._mixed_bank(seed=11)
        rng = np.random.default_rng(42)
        values = _values(items, seed=5)
        pvec = table.vector(values)
        n = len(queries)
        qab = np.array([q.qab for q in queries])
        last_user = bank.values_all(pvec, n).copy()
        notified = 0
        for tick in range(400):
            item = items[int(rng.integers(len(items)))]
            values[item] *= float(1.0 + rng.uniform(-0.05, 0.05))
            table.update(pvec, [item], [values[item]])
            affected = set()
            for tid in bank.templates_of_item(item):
                affected.update(bank.template_positions(tid).tolist())
            exact = bank.values_all(pvec, n)
            brute = {p for p in affected
                     if abs(exact[p] - last_user[p]) > qab[p]}
            positions, moved_values = bank.refresh_movers(
                item, pvec, last_user, qab)
            assert set(positions) == brute
            for p, v in zip(positions, moved_values):
                assert v == pytest.approx(exact[p], rel=1e-12)
                last_user[p] = v
            notified += len(positions)
        assert notified > 0                      # the walk exercised movers
        stats = bank.stats()
        assert stats["screen_evaluated"] > 0
        total = stats["screen_evaluated"] + stats["screen_skipped"]
        assert total >= notified

    def test_invalidate_forces_resync(self):
        table, bank, queries, items = self._mixed_bank()
        values = _values(items, seed=5)
        pvec = table.vector(values)
        n = len(queries)
        qab = np.array([q.qab for q in queries])
        last_user = bank.values_all(pvec, n).copy()
        bank.refresh_movers("x", pvec, last_user, qab)
        syncs = bank.template_syncs
        assert syncs > 0
        bank.invalidate()
        bank.refresh_movers("x", pvec, last_user, qab)
        assert bank.template_syncs > syncs


class TestStatsPlane:
    def test_stats_shape(self):
        table = PowerTable()
        bank = SharedStructureBank(table)
        bank.add_query(_pq("q0", [_pair(1.0, "x", "y")]), 0)
        bank.add_query(_pq("q1", [_pair(2.0, "x", "y")]), 1)
        bank.remove_query("q0")
        stats = bank.stats()
        for key in ("mode", "queries", "distinct_structures", "dedup_ratio",
                    "min_template_queries", "max_template_queries",
                    "mean_template_queries", "appends", "removals",
                    "structure_hits", "screen_evaluated", "screen_skipped",
                    "template_syncs", "nbytes"):
            assert key in stats
        assert stats["mode"] == "shared"
        assert stats["removals"] == 1
        assert stats["nbytes"] > 0
        latency = stats["update_latency_us"]
        assert latency["samples"] == 3
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_empty_bank_stats(self):
        bank = SharedStructureBank(PowerTable())
        stats = bank.stats()
        assert stats["queries"] == 0
        assert stats["distinct_structures"] == 0
        assert stats["dedup_ratio"] == 0.0
        assert "update_latency_us" not in stats
