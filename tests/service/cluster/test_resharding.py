"""Epoch-fenced live resharding: ShardMap rebalance and item migration."""

import asyncio

import pytest

from repro.exceptions import ReproError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.migration import ShardMigrator
from repro.service.cluster.router import build_scenario_cluster
from repro.service.cluster.routing import ShardMap, stable_shard


def run(coro):
    return asyncio.run(coro)


SCENARIO = dict(query_count=12, item_count=16, source_count=4,
                trace_length=40, seed=3)


async def _drain(rounds=10):
    for _ in range(rounds):
        await asyncio.sleep(0)


async def _registered_sources(cluster, item_to_source):
    streams = {}
    for source_id in sorted(set(item_to_source.values())):
        items = sorted(n for n, s in item_to_source.items()
                       if s == source_id)
        stream = cluster.connect_loopback()
        await stream.send(protocol.register_source(source_id, items))
        await stream.receive()
        streams[source_id] = stream
    return streams


async def _push_steps(streams, item_to_source, traces, steps, seq):
    for step in steps:
        for item in sorted(item_to_source):
            seq[item] = seq.get(item, 0) + 1
            source_id = item_to_source[item]
            await streams[source_id].send(protocol.refresh(
                source_id, item, traces[item].at(step), seq[item]))
        await _drain()


class TestShardMap:
    def test_rebalance_bumps_epoch_and_moves_only_named_items(self):
        items = [f"x{i}" for i in range(20)]
        base = ShardMap(4)
        moved = base.rebalance({"x0": 3, "x7": 1})
        assert moved.epoch == base.epoch + 1
        assert moved.shard_of("x0") == 3
        assert moved.shard_of("x7") == 1
        for item in items:
            if item not in ("x0", "x7"):
                assert moved.shard_of(item) == base.shard_of(item)
        # The original map is untouched (immutability is what lets a
        # mid-flight migration hold both epochs side by side).
        assert base.epoch == 0
        assert base.overrides == {}

    def test_moving_home_again_drops_the_override(self):
        base = ShardMap(4)
        item = "x3"
        away = base.rebalance({item: (base.shard_of(item) + 1) % 4})
        home = away.rebalance({item: stable_shard(item, 4)})
        assert home.overrides == {}
        assert home.epoch == 2

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(2).rebalance({"x0": 2})
        with pytest.raises(ValueError):
            ShardMap(2, overrides={"x0": 5})


class TestRebalanceMinimalMovementProperty:
    def test_only_moved_items_change_owner(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        given, settings = hypothesis.given, hypothesis.settings

        @settings(max_examples=200, deadline=None)
        @given(
            shards=st.integers(min_value=1, max_value=8),
            items=st.lists(st.text(
                alphabet="abcdefghij0123456789", min_size=1, max_size=8),
                min_size=1, max_size=30, unique=True),
            prior=st.data(),
        )
        def check(shards, items, prior):
            # Start from an arbitrary override table (a map mid-history),
            # then apply an arbitrary move set.
            prior_moves = prior.draw(st.dictionaries(
                st.sampled_from(items),
                st.integers(min_value=0, max_value=shards - 1)))
            moves = prior.draw(st.dictionaries(
                st.sampled_from(items),
                st.integers(min_value=0, max_value=shards - 1),
                min_size=1))
            base = ShardMap(shards, overrides=prior_moves)
            new = base.rebalance(moves)
            assert new.epoch == base.epoch + 1
            for item in items:
                if item in moves:
                    assert new.shard_of(item) == moves[item]
                else:
                    # Minimal movement: every unmoved item keeps its
                    # prior owner bit-for-bit across the epoch bump.
                    assert new.shard_of(item) == base.shard_of(item)

        check()


class TestLiveMigration:
    def test_migrate_item_across_shards_keeps_answers_in_bounds(
            self, tmp_path):
        now = [0.0]
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=3, journal_dir=str(tmp_path / "wal"),
            clock=lambda: now[0], **SCENARIO)
        migrator = ShardMigrator(cluster, clock=lambda: now[0])

        async def body():
            await cluster.start()
            streams = await _registered_sources(cluster, item_to_source)
            seq = {}
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(1, 10), seq)

            item = sorted(item_to_source)[0]
            owner = cluster.shard_map.shard_of(item)
            active = cluster.decomposition.active_shards
            target = next(s for s in active if s != owner)
            assert migrator.start({item: target}) == 1

            # FREEZE tick: the item is mid-flight — refreshes buffer
            # instead of routing, and affected queries serve honestly
            # widened (degraded-flagged) bounds.
            now[0] += 1.0
            await migrator.tick()
            assert migrator.active
            assert item in cluster._frozen_items
            assert cluster._migration_degraded
            await _push_steps(streams, item_to_source, scenario.traces,
                              [10, 11], seq)
            assert cluster.stats["refreshes_frozen"] >= 2

            # CUTOVER tick: new map installed, fenced, flushed, unflagged.
            now[0] += 1.0
            record = await migrator.tick()
            await _drain()
            assert record["outcome"] == "completed"
            assert record["item"] == item
            assert record["epoch"] == 1
            assert record["flushed_refreshes"] >= 2
            assert record["migration_steps"] == 1.0  # freeze → cutover span
            assert not migrator.active
            assert cluster._frozen_items == {} if isinstance(
                cluster._frozen_items, dict) else not cluster._frozen_items
            assert not cluster._migration_degraded
            assert cluster.map_epoch == 1
            assert cluster.shard_map.shard_of(item) == target
            # Every live shard fences at the new epoch now.
            for sid in active:
                assert cluster.shards[sid].map_epoch == 1

            # The moved item keeps flowing end to end under the new map.
            await _push_steps(streams, item_to_source, scenario.traces,
                              range(12, 20), seq)
            client = ServiceClient(cluster.connect_loopback())
            served = await client.subscribe("*")
            truth_inputs = {name: scenario.traces[name].at(19)
                            for name in item_to_source}
            for query in scenario.queries:
                truth = query.evaluate(truth_inputs)
                assert abs(served[query.name] - truth) <= (
                    query.qab * (1.0 + 1e-9) + 1e-12)
            await client.close()
            for stream in streams.values():
                stream.close()
            await cluster.close()

        run(body())

    def test_migrator_rejects_unknown_item_and_bad_target(self, tmp_path):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"), **SCENARIO)
        migrator = ShardMigrator(cluster)
        with pytest.raises(ReproError):
            migrator.start({"no_such_item": 0})
        item = sorted(item_to_source)[0]
        with pytest.raises(ReproError):
            migrator.start({item: 99})
        # A move to the current owner is a recorded no-op, not an error.
        assert migrator.start({item: cluster.shard_map.shard_of(item)}) == 0
        assert migrator.stats["moves_noop"] == 1

    def test_shard_fences_refreshes_routed_under_a_stale_map(self, tmp_path):
        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=2, journal_dir=str(tmp_path / "wal"), **SCENARIO)

        async def body():
            await cluster.start()
            sid = cluster.decomposition.active_shards[0]
            server = cluster.shards[sid]
            item = sorted(server.core.cache)[0]
            server.advance_map_epoch(3)
            before = server.core.cache[item]
            stale = protocol.refresh(0, item, before + 1000.0, 10**6)
            stale["map_epoch"] = 2
            await server._on_refresh(None, stale)
            assert server.stats["refreshes_rejected_stale_map_epoch"] == 1
            assert server.core.cache[item] == before
            # An unstamped (pre-resharding) frame is also stale once the
            # shard has fenced: epoch-0 traffic cannot land post-cutover.
            legacy = protocol.refresh(0, item, before + 1000.0, 10**6)
            await server._on_refresh(None, legacy)
            assert server.stats["refreshes_rejected_stale_map_epoch"] == 2
            # A current-epoch frame converges the fence monotonically.
            server.advance_map_epoch(2)
            assert server.map_epoch == 3
            await cluster.close()

        run(body())


# ---------------------------------------------------------------------------
# A move that re-homes whole queries
# ---------------------------------------------------------------------------

#: ShardMap(3) owns x1, x12 on shard 0; x3, x4, x5, x8 (…) on shard 1;
#: x0, x10 (…) on shard 2.  Moving x1 to shard 1 takes shard 0 out of
#: the spread of every query whose only shard-0 item is x1.
MOVED, TARGET = "x1", 1


def _homed(text, prefix, before, after):
    """The first ``<prefix><n>`` that the placement rule homes on shard
    *before* under the plain map and on *after* once MOVED lives on
    TARGET — placement hashes the query's *name*."""
    import itertools

    from repro.filters.shard_budget import decompose_query
    from repro.queries import parse_query

    old = ShardMap(3)
    new = old.rebalance({MOVED: TARGET})
    for n in itertools.count():
        query = parse_query(text, name=f"{prefix}{n}")
        if (decompose_query(query, old.shard_of).home == before
                and decompose_query(query, new.shard_of).home == after):
            return query


def _custom_cluster(queries):
    """A 3-shard cluster over a hand-built bank, on the scenario's items,
    traces and planner stack."""
    from repro.filters.shard_budget import decompose_bank
    from repro.service.cluster.router import ClusterCoordinator
    from repro.service.server import _scenario_planning

    scenario, _, make_server, item_to_source = _scenario_planning(
        **SCENARIO, algorithm="dual_dab", recompute_cost=5.0,
        workload="portfolio")
    shard_map = ShardMap(3)
    assert shard_map.partition(["x0", "x1", "x10", "x12", "x3", "x4", "x5",
                                "x8"]) == {
        0: ["x1", "x12"], 1: ["x3", "x4", "x5", "x8"], 2: ["x0", "x10"]}
    decomposition = decompose_bank(queries, shard_map.shard_of)
    cluster = ClusterCoordinator(
        shards={sid: make_server(decomposition.sub_queries_for[sid],
                                 decomposition.items_needed[sid],
                                 shard_id=sid)
                for sid in decomposition.active_shards},
        decomposition=decomposition, shard_map=shard_map,
        item_to_source=item_to_source, queries=queries)
    return cluster, scenario, item_to_source


class TestRehomingMigration:
    """One item move that changes the home of two queries at once."""

    def _bank(self, anchor):
        from repro.queries import parse_query

        # Both read x1 as their only shard-0 item and are homed there;
        # the second also reads x0 (shard 2), which shard 1 reads through
        # no other query — its new home has to adopt it.
        leaving = [_homed("x1*x3 : 150", "alpha", before=0, after=1),
                   _homed("x1*x4 + 2 x0 : 300", "beta", before=0, after=1)]
        bank = leaving + [parse_query("x5*x8 : 400", name="stays1"),
                          parse_query("x0*x10 : 800", name="stays2")]
        if anchor:
            # Something to keep shard 0's bank non-empty after the move.
            bank.append(parse_query("3 x12 : 10", name="anchor"))
        return [q.name for q in leaving], bank

    def test_a_move_that_would_empty_a_shard_is_deferred_untouched(self):
        leaving, bank = self._bank(anchor=False)
        cluster, _, _ = _custom_cluster(bank)
        migrator = ShardMigrator(cluster)

        async def body():
            await cluster.start()
            assert cluster.decomposition.queries_per_shard[0] == 2
            banks = {sid: [q.name for q in server.core.queries]
                     for sid, server in cluster.shards.items()}
            assert migrator.start({MOVED: TARGET}) == 1
            assert await migrator.tick() is None
            # Deferred *before* anything was touched: nothing frozen,
            # nothing flagged, no bank edited, the move still queued.
            assert migrator.stats["deferrals"] == 1
            assert migrator.stats["moves_completed"] == 0
            assert MOVED not in cluster._frozen_items
            assert not cluster._migration_degraded
            assert migrator._current is None and migrator.active
            assert {sid: [q.name for q in server.core.queries]
                    for sid, server in cluster.shards.items()} == banks
            assert cluster.map_epoch == 0
            await cluster.close()

        run(body())

    def test_rehomed_queries_are_announced_and_keep_their_push_contract(self):
        from repro.service.agent import agents_for_scenario

        leaving, bank = self._bank(anchor=True)
        cluster, scenario, item_to_source = _custom_cluster(bank)
        migrator = ShardMigrator(cluster)
        by_name = {q.name: q for q in bank}

        async def body():
            await cluster.start()
            agents = agents_for_scenario(scenario, item_to_source)
            for agent in agents.values():
                await agent.connect(cluster.connect_loopback())
            client = ServiceClient(cluster.connect_loopback())
            await client.subscribe("*")

            async def walk(steps):
                for step in steps:
                    for agent in agents.values():
                        await agent.tick({item: scenario.traces[item].at(step)
                                          for item in agent.items})
                    await _drain(20)

            def truth(name):
                live = {}
                for agent in agents.values():
                    live.update(agent.values)
                return by_name[name].evaluate(live)

            await walk(range(1, 6))
            assert cluster.decomposition.decompositions[leaving[0]].home == 0
            assert "x0" not in cluster.shards[TARGET].core.cache

            assert migrator.start({MOVED: TARGET}) == 1
            await migrator.tick()                          # FREEZE
            assert MOVED in cluster._frozen_items
            for name in leaving:
                # Moved whole, at the full budget, arrivals first.
                assert name not in cluster.shards[0].core.query_names
                moved = next(q for q in cluster.shards[TARGET].core.queries
                             if q.name == name)
                assert moved is by_name[name]
            assert [q.name for q in cluster.shards[0].core.queries] == [
                "anchor"]
            await walk([6, 7])            # x0 moves while shard 1 is deaf to it
            record = await migrator.tick()                 # CUTOVER
            await _drain(20)
            assert record["outcome"] == "completed"
            assert record["rehomed"] == sorted(leaving)
            assert not cluster._frozen_items
            assert not cluster._migration_degraded

            new_home = cluster.shards[TARGET].core
            for name in leaving:
                assert cluster.decomposition.decompositions[name].home == TARGET
                assert cluster._home[name] == TARGET
                # The ex-home's value is gone from the table, the new
                # home's is in it, and the subscriber holds exactly the
                # baseline its new home pushes against.
                assert cluster._served[name] == new_home.last_user_values[name]
                assert client.values[name] == new_home.last_user_values[name]
                assert abs(client.values[name] - truth(name)) <= (
                    2 * by_name[name].qab)
            # The item the new home adopted at freeze was probed for at
            # cutover: what it holds is the source's live value, not the
            # donor's copy from two steps ago.
            x0_source = agents[item_to_source["x0"]]
            assert cluster.stats["probes_forwarded"] >= 1
            assert new_home.cache["x0"] == x0_source.values["x0"]

            # A drift past B at the new home reaches the subscriber.
            name = leaving[0]
            held, seen = client.values[name], client.notifies_received
            x3_source = agents[item_to_source["x3"]]
            await x3_source.tick({"x3": x3_source.values["x3"] * 1.5})
            await _drain(20)
            assert abs(truth(name) - held) > by_name[name].qab
            assert client.notifies_received > seen
            assert client.values[name] != held
            assert abs(client.values[name] - truth(name)) <= by_name[name].qab

            # And the push contract holds along a walk under the new map.
            for step in range(8, 30):
                await walk([step])
                for query in bank:
                    assert abs(client.values[query.name]
                               - truth(query.name)) <= (
                        2 * query.qab * (1.0 + 1e-9)), (step, query.name)

            await client.close()
            for agent in agents.values():
                await agent.close()
            await cluster.close()

        run(body())
