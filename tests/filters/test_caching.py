"""Tests for the quantised solve cache (simulator optimisation)."""

import pytest

from repro.exceptions import FilterError
from repro.filters import CostModel, DualDABPlanner, OptimalRefreshPlanner
from repro.filters.caching import QuantisingCachePlanner
from repro.queries import parse_query
from repro.queries.deviation import max_query_deviation


class _CountingPlanner:
    """Wraps a planner and counts actual plan() invocations."""

    def __init__(self, planner):
        self.planner = planner
        self.calls = 0

    def plan(self, query, values):
        self.calls += 1
        return self.planner.plan(query, values)


@pytest.fixture()
def cached_optimal(fig2_query, unit_cost_model):
    inner = _CountingPlanner(OptimalRefreshPlanner(unit_cost_model))
    return inner, QuantisingCachePlanner(inner, grid=0.02)


class TestCacheBehaviour:
    def test_nearby_values_hit(self, cached_optimal, fig2_query):
        inner, cache = cached_optimal
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 2.001, "y": 2.0})  # same 2% cell
        assert inner.calls == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_distant_values_miss(self, cached_optimal, fig2_query):
        inner, cache = cached_optimal
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 2.5, "y": 2.0})
        assert inner.calls == 2

    def test_different_queries_do_not_collide(self, unit_cost_model):
        inner = _CountingPlanner(OptimalRefreshPlanner(unit_cost_model))
        cache = QuantisingCachePlanner(inner)
        q1 = parse_query("x*y : 5", name="cq1")
        q2 = parse_query("x*y : 3", name="cq2")
        cache.plan(q1, {"x": 2.0, "y": 2.0})
        cache.plan(q2, {"x": 2.0, "y": 2.0})
        assert inner.calls == 2

    def test_clear(self, cached_optimal, fig2_query):
        inner, cache = cached_optimal
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        cache.clear()
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        assert inner.calls == 2
        assert cache.stats.misses == 1

    def test_lru_eviction(self, unit_cost_model, fig2_query):
        inner = _CountingPlanner(OptimalRefreshPlanner(unit_cost_model))
        cache = QuantisingCachePlanner(inner, grid=0.02, max_entries=2)
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 3.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 4.0, "y": 2.0})  # evicts first entry
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})  # must re-solve
        assert inner.calls == 4

    def test_invalid_parameters(self, unit_cost_model):
        inner = OptimalRefreshPlanner(unit_cost_model)
        with pytest.raises(FilterError):
            QuantisingCachePlanner(inner, grid=0.0)
        with pytest.raises(FilterError):
            QuantisingCachePlanner(inner, max_entries=0)

    def test_nonpositive_value_rejected(self, cached_optimal, fig2_query):
        _inner, cache = cached_optimal
        with pytest.raises(FilterError):
            cache.plan(fig2_query, {"x": -2.0, "y": 2.0})


class TestLRUEviction:
    """Eviction order and stats accounting under eviction pressure."""

    def _cache(self, unit_cost_model, max_entries):
        inner = _CountingPlanner(OptimalRefreshPlanner(unit_cost_model))
        return inner, QuantisingCachePlanner(inner, grid=0.02,
                                             max_entries=max_entries)

    def test_hit_refreshes_recency(self, unit_cost_model, fig2_query):
        # A hit must move the entry to the back of the LRU queue, so the
        # *other* entry is the eviction victim.
        inner, cache = self._cache(unit_cost_model, max_entries=2)
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})  # A
        cache.plan(fig2_query, {"x": 3.0, "y": 2.0})  # B
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})  # hit A -> B is LRU
        cache.plan(fig2_query, {"x": 4.0, "y": 2.0})  # C evicts B, not A
        assert inner.calls == 3
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})  # A still cached
        assert inner.calls == 3
        cache.plan(fig2_query, {"x": 3.0, "y": 2.0})  # B was evicted
        assert inner.calls == 4

    def test_eviction_is_oldest_first(self, unit_cost_model, fig2_query):
        inner, cache = self._cache(unit_cost_model, max_entries=3)
        xs = (2.0, 3.0, 4.0, 5.0)  # distinct 2%-grid cells
        for x in xs:
            cache.plan(fig2_query, {"x": x, "y": 2.0})
        # Capacity 3, four inserts: only the first entry fell off.
        cache.plan(fig2_query, {"x": 3.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 4.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 5.0, "y": 2.0})
        assert inner.calls == 4
        cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        assert inner.calls == 5

    def test_size_stays_bounded(self, unit_cost_model, fig2_query):
        _inner, cache = self._cache(unit_cost_model, max_entries=2)
        for x in (2.0, 3.0, 4.0, 5.0, 6.0):
            cache.plan(fig2_query, {"x": x, "y": 2.0})
        assert len(cache._cache) == 2

    def test_stats_under_eviction_pressure(self, unit_cost_model, fig2_query):
        # Cycle through 3 cells with room for only 2: every round-robin
        # access misses (the returning key was always just evicted), so
        # eviction pressure shows up as a 0% hit rate, not a silent
        # under-count of solver work.
        inner, cache = self._cache(unit_cost_model, max_entries=2)
        for _ in range(3):
            for x in (2.0, 3.0, 4.0):
                cache.plan(fig2_query, {"x": x, "y": 2.0})
        assert inner.calls == 9
        assert cache.stats.misses == 9
        assert cache.stats.hits == 0
        assert cache.stats.hit_rate == 0.0
        # Re-touching the two resident cells is pure hits.
        cache.plan(fig2_query, {"x": 3.0, "y": 2.0})
        cache.plan(fig2_query, {"x": 4.0, "y": 2.0})
        assert cache.stats.hits == 2
        assert cache.stats.misses == 9
        assert inner.calls == 9


class TestSoundness:
    """The load-bearing property: cached plans re-centred on the true
    values must still satisfy Condition 1 (and the window guarantee)."""

    def test_hit_remains_feasible_at_true_values(self, unit_cost_model, fig2_query):
        cache = QuantisingCachePlanner(OptimalRefreshPlanner(unit_cost_model),
                                       grid=0.05)
        cache.plan(fig2_query, {"x": 2.09, "y": 2.09})  # populates cell
        for x in (2.05, 2.07, 2.0999):
            plan = cache.plan(fig2_query, {"x": x, "y": 2.05})
            deviation = max_query_deviation(
                fig2_query.terms, {"x": x, "y": 2.05}, plan.primary)
            assert deviation <= fig2_query.qab * (1 + 1e-9)

    def test_hit_keeps_window_guarantee(self, fig2_query, unit_cost_model):
        cache = QuantisingCachePlanner(DualDABPlanner(unit_cost_model), grid=0.05)
        cache.plan(fig2_query, {"x": 2.09, "y": 2.09})
        plan = cache.plan(fig2_query, {"x": 2.02, "y": 2.05})
        assert plan.reference_values == {"x": 2.02, "y": 2.05}
        assert plan.guarantees_qab_over_window(fig2_query)

    def test_same_name_tighter_qab_misses(self, cached_optimal, fig2_query):
        """An entry serves the query it was solved for: the same name
        under a tenfold tighter QAB at the same values is a miss that
        takes the entry over, never a replay of the loose plan."""
        inner, cache = cached_optimal
        values = {"x": 2.0, "y": 2.0}
        tight = fig2_query.with_qab(fig2_query.qab / 10)
        cache.plan(fig2_query, values)
        plan = cache.plan(tight, values)
        assert (cache.stats.hits, cache.stats.misses, inner.calls) == (0, 2, 2)
        assert plan.guarantees_qab(tight, values)
        assert len(cache._cache) == 1
        cache.plan(tight, values)
        assert cache.stats.hits == 1

    def test_references_always_recentred(self, cached_optimal, fig2_query):
        _inner, cache = cached_optimal
        plan1 = cache.plan(fig2_query, {"x": 2.0, "y": 2.0})
        plan2 = cache.plan(fig2_query, {"x": 2.001, "y": 2.0})
        assert plan1.reference_values["x"] == 2.0
        assert plan2.reference_values["x"] == 2.001
        # the cached bounds are shared, not aliased
        assert plan1.primary == plan2.primary
        assert plan1.primary is not plan2.primary



class _StubPlanner:
    """A planner whose plans cost nothing, for cache-bookkeeping tests."""

    def __init__(self):
        self.forgotten = []

    def plan(self, query, values):
        from repro.filters.assignment import DABAssignment

        bounds = {name: 0.1 for name in query.variables}
        return DABAssignment(primary=bounds, secondary=None,
                             reference_values=dict(values))

    def forget_query(self, name):
        self.forgotten.append(name)


class TestForgetQuery:
    """``forget_query`` runs on the event loop at every dynamic-query
    disconnect: it must cost the forgotten name's entries, not the cache's."""

    def _filled(self, foreign):
        cache = QuantisingCachePlanner(_StubPlanner(), grid=0.02)
        for i in range(foreign):
            cache.plan(parse_query("x*y : 5", name=f"other{i % 100}"),
                       {"x": 1.03 ** (i // 100 + 1), "y": 2.0})
        return cache

    def test_drops_the_name_and_its_derivatives_only(self):
        cache = self._filled(300)
        for name in ("gone", "gone__pos", "gone__neg", "gone2", "go"):
            cache.plan(parse_query("x*y : 5", name=name), {"x": 2.0, "y": 2.0})
            cache.plan(parse_query("x*y : 5", name=name), {"x": 3.0, "y": 2.0})
        cache.forget_query("gone")
        assert cache.planner.forgotten == ["gone"]
        left = {key[0] for key in cache._cache}
        assert not left & {"gone", "gone__pos", "gone__neg"}
        assert {"gone2", "go"} <= left
        assert len(cache._cache) == 300 + 4
        # The index follows the cache exactly.
        indexed = {key for keys in cache._keys_of.values() for key in keys}
        assert indexed == set(cache._cache)
        # A derivative can be forgotten on its own.
        cache.plan(parse_query("x*y : 5", name="gone__pos"), {"x": 2.0, "y": 2.0})
        cache.plan(parse_query("x*y : 5", name="gone__neg"), {"x": 2.0, "y": 2.0})
        cache.forget_query("gone__pos")
        assert {key[0] for key in cache._cache} >= {"gone__neg"}
        assert "gone__pos" not in {key[0] for key in cache._cache}

    def test_eviction_keeps_the_index_in_step(self):
        cache = QuantisingCachePlanner(_StubPlanner(), grid=0.02, max_entries=3)
        for i, name in enumerate(("a", "b", "a", "c", "d")):
            cache.plan(parse_query("x*y : 5", name=name),
                       {"x": 1.5 + i, "y": 2.0})
        assert len(cache._cache) == 3
        indexed = {key for keys in cache._keys_of.values() for key in keys}
        assert indexed == set(cache._cache)
        assert "b" not in cache._keys_of       # its only entry was evicted
        cache.clear()
        assert not cache._keys_of

    def test_cost_is_the_names_entries_not_the_caches(self):
        """At 10^4 foreign entries, forgetting a 3-entry name never walks
        the cache: counted, not timed."""
        from collections import OrderedDict

        class NoScan(OrderedDict):
            def __iter__(self):
                raise AssertionError("forget_query scanned the whole cache")

        cache = self._filled(10_000)
        query = parse_query("x*y : 5", name="mine")
        for x in (2.0, 3.0, 4.0):
            cache.plan(query, {"x": x, "y": 2.0})
        assert len(cache._cache) == 10_003
        assert len(cache._keys_of["mine"]) == 3
        cache._cache = NoScan(cache._cache)
        cache.forget_query("mine")
        assert len(cache._cache) == 10_000
        assert "mine" not in cache._keys_of
        assert cache.stats.misses == 10_003       # stats untouched by forgetting
