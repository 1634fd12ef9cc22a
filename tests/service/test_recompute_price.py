"""The coordinator's recompute price (DESIGN.md §4, §9.1).

A query whose secondary window has never been left is planned with its
μ·R row priced at ``UNEXITED_PRICE`` (1/2) of μ; from its first window
exit on, at μ.  The price is the core's: every planner it drives takes it
as ``recompute_scale`` — Dual-DAB, Different-Sum's mirror, Half-and-Half's
splits, the signomial rounds and AAO's joint rows — while a planner called
directly keeps μ.  The exit is journaled once, as an ``exit`` record ahead
of the re-plan's ``plan`` record, and survives snapshot and WAL restore.
The metric's μ never moves: the rule changes what a plan is solved at,
not what a recomputation costs, and it adds no recomputation.
"""

import asyncio

import pytest

from repro.filters import (
    AAOPlanner,
    CostModel,
    DifferentSumPlanner,
    DualDABPlanner,
    HalfAndHalfPlanner,
    OptimalRefreshPlanner,
)
from repro.filters.signomial import SignomialPlanner
from repro.queries import parse_query
from repro.service import protocol
from repro.service.cluster.router import build_scenario_cluster
from repro.service.core import UNEXITED_PRICE, CoordinatorCore
from repro.service.server import build_scenario_server
from repro.simulation.metrics import MetricsCollector

MU = 2.0
VALUES = {"x": 5.0, "y": 4.0, "u": 3.0, "v": 2.0}
RATES = {"x": 1.0, "y": 0.5, "u": 2.0, "v": 0.8}
PPQ = parse_query("x*y + u*v : 5", name="ppq")
MIXED = parse_query("x*y - u*v : 5", name="mixed")


def _model(mu=MU):
    return CostModel(rates=RATES, recompute_cost=mu)


def _core(queries, planner, **kw):
    core = CoordinatorCore(queries=queries, planner=planner,
                           metrics=MetricsCollector(MU),
                           initial_values=VALUES,
                           item_to_source={name: 0 for name in VALUES}, **kw)
    core.bootstrap()
    return core


def _leave_window(core, item, factor=3.0):
    """One refresh of ``item`` far outside every window it is in."""
    core.apply_refresh((item,), (core.cache[item] * factor,))
    return core.react_to_refresh((item,))


class JournalTap:
    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


class TestThePlanIsSolvedAtTheQuerysPrice:
    def test_an_unexited_plan_is_the_plan_at_half_mu_bit_for_bit(self):
        core = _core([PPQ], DifferentSumPlanner(_model(),
                                                DualDABPlanner(_model())))
        assert core.recompute_scale("ppq") == UNEXITED_PRICE == 0.5
        half = DualDABPlanner(_model(MU / 2)).plan(PPQ, VALUES)
        full = DualDABPlanner(_model()).plan(PPQ, VALUES)
        assert core.plans["ppq"] == half
        assert half != full       # the price moves the plan

    def test_after_its_first_exit_a_query_is_planned_at_mu(self):
        core = _core([PPQ], DualDABPlanner(_model()))
        _, recomputed = _leave_window(core, "x")
        assert recomputed and core.exited == {"ppq"}
        assert core.recompute_scale("ppq") == 1.0
        values = {name: core.cache[name] for name in PPQ.variables}
        full = DualDABPlanner(_model()).plan(PPQ, values)
        # The exit's re-plan is patched from the μ/2 optimum: the μ
        # optimum to the patch's tolerance ...
        assert core.plans["ppq"].objective == pytest.approx(full.objective,
                                                            rel=1e-6)
        # ... and from a cold start, the μ plan itself.
        core.clear_planner_warm_starts()
        core.plan_query("ppq")
        assert core.plans["ppq"] == full

    @pytest.mark.parametrize("stack", ["different_sum", "half_and_half",
                                       "signomial"])
    def test_a_mixed_sign_query_prices_what_its_planner_plans(self, stack):
        """The mirror, the ``__p1``/``__p2`` splits and the condensation
        rounds are named apart from the query: the price rides the call,
        not the name."""
        def build(model):
            if stack == "different_sum":
                return DifferentSumPlanner(model, DualDABPlanner(model))
            if stack == "half_and_half":
                return HalfAndHalfPlanner(model, DualDABPlanner(model))
            return SignomialPlanner(model)

        core = _core([MIXED], build(_model()))
        half = build(_model(MU / 2)).plan(MIXED, VALUES)
        assert core.plans["mixed"] == half
        assert half != build(_model()).plan(MIXED, VALUES)

    def test_aao_prices_each_query_row_at_its_own_price(self):
        other = parse_query("u*v : 3", name="other")
        queries = [PPQ, other]
        core = _core(queries, DualDABPlanner(_model()),
                     aao_planner=AAOPlanner(_model()))
        want = AAOPlanner(_model(MU / 2)).plan_all(queries, VALUES)
        assert core.plans == want.per_query
        assert AAOPlanner(_model()).build_program(
            queries, VALUES, {"ppq": 0.5, "other": 0.5}).log_c.tolist() == \
            AAOPlanner(_model(MU / 2)).build_program(
                queries, VALUES).log_c.tolist()
        core.exited.add("ppq")       # one exited, one not
        core.clear_planner_warm_starts()
        assert core.aao_replan()
        want = AAOPlanner(_model()).plan_all(
            queries, core.cache, {"ppq": 1.0, "other": 0.5})
        assert core.plans == want.per_query

    def test_a_planner_called_directly_keeps_mu(self):
        model = _model()
        assert DualDABPlanner(model).plan(PPQ, VALUES) == \
            DualDABPlanner(model).plan(PPQ, VALUES, recompute_scale=1.0)


class TestWhatCountsAsAnExit:
    def test_only_a_window_break_marks_an_exit(self):
        core = _core([PPQ], DualDABPlanner(_model()))
        _, recomputed = _leave_window(core, "x", factor=1.0 + 1e-9)
        assert not recomputed and core.exited == set()
        _leave_window(core, "x")
        assert core.exited == {"ppq"}

    def test_every_refresh_recomputes_are_not_exits(self):
        core = _core([PPQ], OptimalRefreshPlanner(_model()))
        _, recomputed = _leave_window(core, "x")
        assert recomputed and core.exited == set()
        assert core.recompute_prices() == {"discounted": 1, "exited": 0}

    def test_a_query_with_no_plan_is_planned_but_has_left_nothing(self):
        core = _core([PPQ], DualDABPlanner(_model()))
        other = parse_query("u*v : 3", name="other")
        core.add_query(other, plan=False)
        _leave_window(core, "u", factor=1.0 + 1e-9)
        assert "other" in core.plans and "other" not in core.exited

    def test_the_exit_is_journaled_once_ahead_of_its_plan(self):
        core = _core([PPQ], DualDABPlanner(_model()))
        core.journal = JournalTap()
        _leave_window(core, "x")
        _leave_window(core, "y")
        kinds = [record["t"] for record in core.journal.records]
        assert kinds.count("exit") == 1 and kinds.count("plan") == 2
        assert kinds[kinds.index("exit") + 1] == "plan"
        assert core.journal.records[kinds.index("exit")] == \
            {"t": "exit", "q": "ppq"}

    def test_a_removed_query_comes_back_unexited(self):
        other = parse_query("u*v : 3", name="other")
        core = _core([PPQ, other], DualDABPlanner(_model()))
        _leave_window(core, "u")
        assert core.exited == {"ppq", "other"}
        assert core.recompute_prices() == {"discounted": 0, "exited": 2}
        core.remove_query("other")
        assert core.exited == {"ppq"}
        core.add_query(other)
        assert core.recompute_scale("other") == UNEXITED_PRICE
        assert core.recompute_prices() == {"discounted": 1, "exited": 1}


class TestTheExitedSetSurvivesRestore:
    def test_a_snapshot_carries_the_set_and_restores_it(self):
        core = _core([PPQ, parse_query("u*v : 3", name="other")],
                     DualDABPlanner(_model()))
        assert "exited" not in core.recovery_state()
        _leave_window(core, "x")
        state = core.recovery_state()
        assert state["exited"] == ["ppq"]
        fresh = _core([PPQ, parse_query("u*v : 3", name="other")],
                      DualDABPlanner(_model()))
        fresh.restore_recovery_state(state)
        assert fresh.exited == {"ppq"}
        assert fresh.recovery_state() == state

    def test_a_wal_without_exit_records_restores_every_query_unexited(self):
        core = _core([PPQ], DualDABPlanner(_model()))
        core.journal = JournalTap()
        _leave_window(core, "x")
        fresh = _core([PPQ], DualDABPlanner(_model()))
        for record in core.journal.records:
            if record["t"] != "exit":
                fresh.replay(record)
        assert fresh.exited == set()
        fresh.replay({"t": "exit", "q": "ppq"})
        fresh.replay({"t": "exit", "q": "gone"})     # names no query
        assert fresh.exited == {"ppq"}


# -- the metric's μ, on a server and a 2-shard cluster ---------------------------

SCENARIO = dict(query_count=6, item_count=16, source_count=2,
                trace_length=5, seed=3, recompute_cost=5.0)


def _count_window_breaks(server):
    """Wrap the core's window predicate: the re-plans it decides."""
    core, breaks = server.core, []
    decide = core._window_broken

    def counted(query):
        broken = decide(query)
        breaks.extend([query.name] if broken else [])
        return broken

    core._window_broken = counted
    return breaks


async def _register_sources(node, item_to_source):
    streams = []
    for source_id in sorted(set(item_to_source.values())):
        stream = node.connect_loopback()
        await stream.send(protocol.register_source(
            source_id, sorted(name for name, owner in item_to_source.items()
                              if owner == source_id)))
        streams.append(stream)
    return streams


async def _drive(node, servers, scenario, item_to_source):
    """Register every source, then move one item 50 % in one refresh."""
    breaks = [_count_window_breaks(server) for server in servers]
    streams = await _register_sources(node, item_to_source)
    readers = {}
    for server in servers:
        for item, queries in server.core.item_index.items():
            readers.setdefault(item, set()).update(q.name for q in queries)
    total = len(scenario.queries)
    # The item the fewest queries read: both prices stay in use.
    item = min(sorted(readers), key=lambda name: len(readers[name]))
    assert len(readers[item]) < total
    source_id = item_to_source[item]
    value = scenario.traces.initial_values()[item] * 1.5
    await streams[source_id].send(protocol.refresh(
        source_id, [item], [value], [1]))
    for _ in range(50):
        await asyncio.sleep(0)
    stats = node.server_stats()
    await node.close()
    return breaks, stats


@pytest.mark.parametrize("shards", [None, 2])
def test_the_metrics_mu_is_the_configured_one_at_both_prices(shards):
    async def check():
        if shards is None:
            node, scenario, item_to_source = build_scenario_server(**SCENARIO)
            servers = [node]
        else:
            node, scenario, item_to_source = build_scenario_cluster(
                shards=shards, **SCENARIO)
            await node.start()
            servers = list(node.shards.values())
        breaks, stats = await _drive(node, servers, scenario, item_to_source)
        prices = [server.core.recompute_prices() for server in servers]
        assert sum(price["exited"] for price in prices) >= 1
        assert sum(price["discounted"] for price in prices) >= 1
        assert stats["recompute_price"] == {
            key: sum(price[key] for price in prices)
            for key in ("discounted", "exited")}
        for server, decided in zip(servers, breaks):
            assert server.metrics.recompute_cost == 5.0
            assert server.core.planner.cost_model.recompute_cost == 5.0
            # Every counted recomputation is a window-break re-plan.
            assert server.metrics.recomputations == len(decided)
            assert server.core.exited == set(decided)
        assert sum(len(decided) for decided in breaks) >= 1

    asyncio.run(check())
