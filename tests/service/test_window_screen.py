"""The per-item safe band against the reference window predicate.

``CoordinatorCore.react_to_refresh`` answers "did this refresh break a
secondary-DAB window?" from one per-item band and only falls through to
the per-query predicate when the value is outside it.  The band is a
screen, never a decision: these tests drive a core through generated
refresh/plan-change sequences and check, refresh by refresh, both halves
of the reaction against the reference definitions — it recomputes exactly
the queries, in exactly the order, that
:meth:`DABAssignment.window_contains` says it must, and it notifies
exactly the queries whose :meth:`PolynomialQuery.evaluate` moved beyond
their QAB, with that value.

The oracles are :func:`must_recompute` and :func:`must_notify` below:
they read nothing but the core's public ``item_index``/``plans``/
``cache``/``last_user_values`` *before* the reaction.

Budget: the default ``ci`` profile keeps this in tier-1 seconds; set
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the >=200-example sweep (wired
into the nightly-properties CI job).
"""

import math
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import GPError
from repro.filters.assignment import DABAssignment
from repro.queries import PolynomialQuery, QueryTerm
from repro.service import protocol
from repro.service.core import CoordinatorCore
from repro.service.resilience import CircuitBreaker
from repro.service.server import build_scenario_server
from repro.simulation.metrics import MetricsCollector

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

ITEMS = ("a", "b", "c", "d", "e", "f")
INITIAL = {"a": 10.0, "b": 20.0, "c": 15.0, "d": 40.0, "e": 8.0, "f": 25.0}


def _pq(name, qab, *pairs):
    return PolynomialQuery([QueryTerm.product(w, x, y) for w, x, y in pairs],
                           qab=qab, name=name)


#: Overlapping on purpose: every item is read by two to four queries, so
#: a band is an intersection and a plan change voids several of them.
STATIC = (
    _pq("q0", 30.0, (1.0, "a", "b"), (2.0, "c", "d")),
    _pq("q1", 25.0, (1.5, "a", "c"), (1.0, "e", "f")),
    _pq("q2", 40.0, (1.0, "b", "d"), (0.5, "a", "f")),
    _pq("q3", 20.0, (2.0, "c", "e"),),
)
POOL = (
    _pq("dyn0", 35.0, (1.0, "a", "d"), (1.0, "b", "e")),
    _pq("dyn1", 15.0, (3.0, "e", "f"),),
    _pq("dyn2", 50.0, (1.0, "b", "c"), (1.0, "d", "f")),
)


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


#: Primary DAB of each query's items, relative to the value planned at;
#: the secondary window is twice as wide.
FRACTION = {"q0": 0.02, "q1": 0.03, "q2": 0.05, "q3": 0.04}
DYNAMIC_FRACTION = 0.025


class WindowPlanner:
    """A solver-free dual-DAB planner: windows centred on the values it
    is called at, a different relative width per query.  ``fail`` makes
    it raise the way a GP solve does."""

    def __init__(self):
        self.fail = False

    def plan(self, query, values, recompute_scale=1.0):
        if self.fail:
            raise GPError("solver down")
        frac = FRACTION.get(query.name, DYNAMIC_FRACTION)
        primary = {name: frac * abs(value) for name, value in values.items()}
        return DABAssignment(
            primary=primary,
            secondary={name: 2.0 * bound for name, bound in primary.items()},
            reference_values=dict(values), recompute_rate=1.0, objective=1.0)


class RecordingMetrics(MetricsCollector):
    """Keeps the *order* of recomputations, which the counters lose."""

    def __init__(self):
        super().__init__(recompute_cost=1.0)
        self.recompute_order = []

    def record_recomputation(self, query_name, count=1):
        super().record_recomputation(query_name, count)
        self.recompute_order.append(query_name)


def must_recompute(core, item):
    """The reference decision for a refresh of ``item`` that has already
    landed in the cache: every query reading it, in ``item_index`` order,
    that has no plan or whose plan's window does not contain the cache."""
    names = []
    for query in core.item_index.get(item, ()):
        plan = core.plans.get(query.name)
        values = {name: core.cache[name] for name in query.variables}
        if plan is None or not plan.window_contains(values):
            names.append(query.name)
    return names


def must_notify(core, item):
    """The reference notifications for a refresh of ``item`` that has
    already landed in the cache: every query reading it, in ``item_index``
    order, whose value moved beyond its QAB since the user last saw it."""
    moved = []
    for query in core.item_index.get(item, ()):
        value = query.evaluate(core.cache)
        if abs(value - core.last_user_values[query.name]) > query.qab:
            moved.append((query.name, value))
    return moved


class Rig:
    """One core, checked against the two oracles at every refresh."""

    def __init__(self, breaker=False):
        self.planner = WindowPlanner()
        self.clock = StepClock()
        self.breaker = breaker
        self.core = self._core()
        self.core.bootstrap()

    def _core(self):
        breaker = (CircuitBreaker(failure_threshold=2, reset_timeout=3.0,
                                  clock=self.clock)
                   if self.breaker else None)
        return CoordinatorCore(
            queries=STATIC, planner=self.planner,
            metrics=RecordingMetrics(), initial_values=INITIAL,
            item_to_source={name: 0 for name in ITEMS},
            solver_breaker=breaker)

    def refresh(self, item, value):
        self.clock.now += 1.0
        core = self.core
        before = len(core.metrics.recompute_order)
        core.apply_refresh([item], [value])
        expected = must_recompute(core, item)
        moved = must_notify(core, item)
        notifications, recomputed = core.react_to_refresh([item])
        assert core.metrics.recompute_order[before:] == expected
        assert recomputed == bool(expected)
        assert notifications == moved            # bitwise
        return notifications, recomputed, expected

    def edge_value(self, item, pick, side, nudge):
        """A value on (or one ulp / 1e-12 either side of) the edge of one
        of the windows around ``item``; ``None`` when it has none."""
        readers = self.core.item_index.get(item, ())
        if not readers:
            return None
        plan = self.core.plans.get(readers[pick % len(readers)].name)
        if plan is None or plan.secondary is None or item not in plan.primary:
            return None
        reference = plan.reference_values[item]
        width = plan.secondary[item]
        if nudge == "widened":
            width += 1e-12
        value = reference + side * width
        if nudge == "out":
            value = math.nextafter(value, side * math.inf)
        elif nudge == "in":
            value = math.nextafter(value, -side * math.inf)
        return value

    def add(self, query):
        if query.name not in self.core.query_names:
            self.core.add_query(query)

    def remove(self, name):
        if name in self.core.query_names:
            self.core.remove_query(name)

    def snapshot_restore(self):
        """Cut a snapshot of the core, through the journal's own codec,
        and carry on from a freshly built core restored from it."""
        state = protocol.decode_body(
            protocol.encode_body(self.core.recovery_state()))
        self.core = self._core()
        self.core.restore_recovery_state(state)


refresh_ops = st.tuples(
    st.just("refresh"), st.sampled_from(ITEMS),
    st.one_of(
        # Mostly moves the size of the windows (4-10 % wide), so a walk
        # mixes quiet refreshes, near misses and breaches.
        st.tuples(st.just("scale"), st.one_of(
            st.sampled_from((0.94, 0.97, 0.985, 0.995, 1.0,
                             1.005, 1.015, 1.03, 1.06)),
            st.floats(0.9, 1.1))),
        st.tuples(st.just("edge"), st.integers(0, 7),
                  st.sampled_from((-1.0, 1.0)),
                  st.sampled_from(("on", "in", "out", "widened")))))
other_ops = st.one_of(
    st.tuples(st.just("fail"), st.booleans()),
    st.tuples(st.just("add"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("remove"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("restore")),
    st.tuples(st.just("adopt"), st.sampled_from(ITEMS), st.floats(0.7, 1.3)))
operations = st.lists(st.one_of(refresh_ops, refresh_ops, refresh_ops,
                                other_ops), min_size=1, max_size=60)


def _drive(rig, ops):
    for op in ops:
        kind = op[0]
        if kind == "refresh":
            _, item, how = op
            if how[0] == "scale":
                value = rig.core.cache[item] * how[1]
            else:
                value = rig.edge_value(item, *how[1:])
                if value is None:
                    continue
            rig.refresh(item, value)
        elif kind == "fail":
            rig.planner.fail = op[1]
        elif kind == "add":
            rig.add(POOL[op[1]])
        elif kind == "remove":
            rig.remove(POOL[op[1]].name)
        elif kind == "restore":
            rig.snapshot_restore()
        elif kind == "adopt":
            rig.core.adopt_item(op[1], rig.core.cache[op[1]] * op[2])


EDGE_WALK = [("refresh", "a", ("edge", pick, side, nudge))
             for pick in range(3) for side in (-1.0, 1.0)
             for nudge in ("on", "in", "out", "widened")]

#: ``d`` sits inside q0's and q2's windows with its band built; ``a``
#: then breaks q0/q1/q2, whose new windows re-centre on d = 41.4; d = 39
#: is inside the *old* q0 window [38.4, 41.6] and outside the new one.
STALE_BAND_WALK = [("refresh", "d", ("scale", 1.035)),
                   ("refresh", "a", ("scale", 1.2)),
                   ("refresh", "d", ("scale", 39.0 / 41.4))]

#: The planner fails while ``a`` breaks three queries: the old plans come
#: back, and until it recovers every refresh of any of their items must
#: ask again — including after ``a`` itself returns.
FAILED_PLANNER_WALK = [("fail", True), ("refresh", "a", ("scale", 1.5)),
                       ("refresh", "b", ("scale", 1.0)),
                       ("refresh", "a", ("scale", 1 / 1.5)),
                       ("refresh", "d", ("scale", 1.0)), ("fail", False),
                       ("refresh", "c", ("scale", 1.0)),
                       ("refresh", "a", ("scale", 1.0))]


class TestScreenMatchesReferencePredicate:
    @given(ops=operations)
    @example(ops=EDGE_WALK)
    @example(ops=STALE_BAND_WALK)
    @example(ops=FAILED_PLANNER_WALK)
    @example(ops=[("add", 0), ("refresh", "a", ("scale", 1.08)),
                  ("restore",), ("refresh", "d", ("scale", 1.09)),
                  ("remove", 0), ("refresh", "b", ("scale", 0.93))])
    def test_flat_bank(self, ops):
        _drive(Rig(), ops)

    @given(ops=operations)
    @example(ops=FAILED_PLANNER_WALK
             + [("refresh", item, ("scale", 1.0)) for item in ITEMS])
    def test_open_breaker_serves_shrunk_plans(self, ops):
        _drive(Rig(breaker=True), ops)


class TestStandingBreach:
    def test_failed_recompute_keeps_triggering_on_every_item(self):
        rig = Rig()
        rig.planner.fail = True
        stale = rig.core.plans["q3"]
        _, recomputed, names = rig.refresh("e", INITIAL["e"] * 1.5)
        assert recomputed and "q3" in names
        assert rig.core.plans["q3"] is stale     # same object came back
        solves = rig.core.metrics.solver_fallbacks
        # ``c`` never left its window, but q3 = c*e still has ``e`` outside:
        # every refresh of either item must try again.
        for _ in range(3):
            _, recomputed, names = rig.refresh("c", INITIAL["c"])
            assert recomputed and "q3" in names
        assert rig.core.metrics.solver_fallbacks > solves
        rig.planner.fail = False
        _, recomputed, names = rig.refresh("c", INITIAL["c"])
        assert recomputed and "q3" in names
        assert rig.core.plans["q3"] is not stale
        assert rig.refresh("c", INITIAL["c"])[1] is False
        assert rig.refresh("e", INITIAL["e"] * 1.5)[1] is False

    def test_breach_that_heals_by_itself_restores_the_band(self):
        rig = Rig()
        rig.planner.fail = True
        rig.refresh("e", INITIAL["e"] * 1.5)
        rig.refresh("e", INITIAL["e"])               # back inside, no solve
        rig.refresh("c", INITIAL["c"])               # band rebuilt from here
        misses = rig.core.window_screen_misses
        for item in ("c", "e", "c", "e"):
            assert rig.refresh(item, INITIAL[item])[1] is False
        assert rig.core.window_screen_misses == misses


class TestAdoptedValue:
    """A hand-off moves a *known* item's cached value outside a refresh.
    The windows of every query reading it must be looked at again."""

    def test_adopted_value_outside_a_window_is_seen_at_the_next_refresh(self):
        rig = Rig()
        for item in ITEMS:                           # build every band
            assert rig.refresh(item, INITIAL[item])[1] is False
        rig.core.adopt_item("e", INITIAL["e"] * 1.5)
        # ``c`` itself did not move, but q1 and q3 read ``e`` next to it.
        _, recomputed, names = rig.refresh("c", INITIAL["c"])
        assert recomputed and names == ["q1", "q3"]

    def test_restored_cache_value_voids_the_bands_around_it(self):
        rig = Rig()
        for item in ITEMS:
            rig.refresh(item, INITIAL[item])
        rig.core.replay({"t": "refresh", "item": "e",
                         "value": INITIAL["e"] * 1.5})
        _, recomputed, names = rig.refresh("f", INITIAL["f"])
        assert recomputed and names == ["q1"]


class TestPlanSeam:
    def test_install_plan_voids_exactly_that_querys_items(self):
        rig = Rig()
        core = rig.core
        for item in ITEMS:
            rig.refresh(item, INITIAL[item])
        assert set(core._bands) == set(ITEMS)
        core.install_plan("q3", core.plans["q3"])    # q3 reads c and e
        assert set(core._bands) == set(ITEMS) - {"c", "e"}

    def test_single_dab_and_unplanned_queries_have_no_band(self):
        rig = Rig()
        core = rig.core
        single = DABAssignment(primary={"c": 1.0, "e": 1.0},
                               reference_values={"c": INITIAL["c"],
                                                 "e": INITIAL["e"]})
        core.install_plan("q3", single)
        hits = core.window_screen_hits
        assert rig.refresh("c", INITIAL["c"])[1] is False    # nothing moved
        _, recomputed, names = rig.refresh("c", INITIAL["c"] * 1.0001)
        assert recomputed and names == ["q3"]
        assert core.window_screen_hits == hits               # never screened
        core.add_query(POOL[1], plan=False)          # dyn1 = e*f, no plan
        _, recomputed, names = rig.refresh("f", INITIAL["f"])
        assert recomputed and names == ["dyn1"]


def _scenario_server(trace_length=31):
    server, scenario, _ = build_scenario_server(
        query_count=8, item_count=20, source_count=2,
        trace_length=trace_length, seed=1)
    return server, scenario


def _sweep(scenario, items, amp):
    """One forward-and-back pass over the scenario's traces — the
    benchmark's stream shape, ``x(k) = v0 * (trace(k) / v0) ** amp``."""
    start = scenario.traces.initial_values(items)
    last = len(scenario.traces[items[0]].values) - 1
    for step in list(range(1, last + 1)) + list(range(last - 1, 0, -1)):
        for item in items:
            ratio = scenario.traces[item].at(step) / start[item]
            yield item, start[item] * ratio ** amp


class TestScreenCounters:
    def test_steady_sweep_misses_nothing_after_the_first_pass(self):
        server, scenario = _scenario_server()
        core = server.core
        items = sorted(core.cache)
        refreshes = 0
        for item, value in _sweep(scenario, items, amp=0.02):
            core.apply_refresh([item], [value])
            assert core.react_to_refresh([item])[1] is False
            refreshes += 1
            if refreshes == len(items):
                first_pass = core.window_screen_misses
        assert core.window_screen_misses == first_pass == 0
        stats = server.server_stats()
        assert stats["window_screen_hits"] == refreshes
        assert stats["window_screen_misses"] == 0
        assert stats["recomputations"] == 0

    def test_storm_sweep_every_recomputation_follows_a_miss(self):
        server, scenario = _scenario_server()
        core = server.core
        items = sorted(core.cache)
        recomputing = 0
        # This bank's secondary windows are wide: below ≈ 8× the traces'
        # own log-moves no window breaks.
        for item, value in _sweep(scenario, items, amp=12.0):
            misses = core.window_screen_misses
            core.apply_refresh([item], [value])
            if core.react_to_refresh([item])[1]:
                recomputing += 1
                assert core.window_screen_misses == misses + 1
        stats = server.server_stats()
        assert 0 < recomputing <= stats["recomputations"]
        assert stats["window_screen_misses"] >= recomputing
        assert (stats["window_screen_hits"] + stats["window_screen_misses"]
                == stats["refreshes"])
