"""A batch of refreshes, handled as one (DESIGN.md §8.5, §9.3).

Whatever one read delivered is one batch: the node applies each REFRESH
in order and the core reacts once, at the cache the batch left.  Three
contracts are checked here:

* **a batch of one is the per-refresh reaction** — its notifications,
  recomputations (in order), journal records (a query's first window
  exit among them) and plans are the ones the reference predicates of
  ``test_window_screen`` prescribe, bit for bit;
* **any split of a refresh sequence is safe** — driven batch by batch
  beside a core that reacts to every refresh alone, the caches agree
  after every batch, every notification is the reference one, no query
  is recomputed twice in a batch or leaves it with a broken window and no
  recompute, and every user value stays within its QAB of the truth;
* **the peer loop keeps message order** — REFRESHes around a SNAPSHOT or
  in front of a malformed message are handled exactly where they stand;
* **a batch is what one loop turn delivered** — reads from several
  sources that land in one turn make one reaction, which leaves the node
  where the same frames sent a turn apart leave it, and a reaction
  cancelled before it ran leaves its items to the next turn's.

Budget: the ``ci`` Hypothesis profile keeps this in tier-1 seconds.
"""

import asyncio
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.filters import (
    CostModel,
    DifferentSumPlanner,
    OptimalRefreshPlanner,
    SharfmanStyleBaseline,
    UniformAllocationBaseline,
)
from repro.service import protocol
from repro.service.core import CoordinatorCore
from repro.service.journal import plan_to_wire
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from repro.service.transports import (inprocess_pair, loopback_pair,
                                      open_tcp_stream)

from tests.service.nodes import SCENARIO, register_sources, start_node
from tests.service.test_window_screen import (
    INITIAL,
    ITEMS,
    STATIC,
    RecordingMetrics,
    Rig,
    _drive,
    must_notify,
    must_recompute,
    operations,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))


def run(coro):
    return asyncio.run(coro)


class JournalTap:
    """Stands in for the write-ahead journal: keeps what was appended."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


def broken(core, query):
    """The reference predicate: no plan, or a value outside its window."""
    plan = core.plans.get(query.name)
    values = {name: core.cache[name] for name in query.variables}
    return plan is None or not plan.window_contains(values)


# ---------------------------------------------------------------------------
# a batch of one
# ---------------------------------------------------------------------------

class OneAtATime(Rig):
    """Every refresh is a batch of one, checked against the reference
    reaction down to its journal records and plans."""

    def _core(self):
        core = super()._core()
        core.journal = JournalTap()
        return core

    def refresh(self, item, value):
        self.clock.now += 1.0
        core = self.core
        before = dict(core.plans)
        exited = set(core.exited)
        order = len(core.metrics.recompute_order)
        records = len(core.journal.records)
        core.apply_refresh([item], [value])
        expected = must_recompute(core, item)
        moved = must_notify(core, item)
        notifications, recomputed = core.react_to_refresh([item])
        assert notifications == moved                   # bitwise
        assert core.metrics.recompute_order[order:] == expected
        assert recomputed == bool(expected)
        journal = [{"t": "refresh", "item": item, "value": value}]
        for name in expected:
            if name not in exited and before.get(name) is not None \
                    and before[name].secondary is not None:
                # The query's first window exit, journaled ahead of its
                # re-plan (DESIGN.md §4).
                journal.append({"t": "exit", "q": name})
            query = core.queries[core._position[name]]
            # A failed solve keeps the plan it had.
            plan = before[name] if self.planner.fail else self.planner.plan(
                query, {v: core.cache[v] for v in query.variables})
            assert plan_to_wire(core.plans[name]) == plan_to_wire(plan)
            journal.append({"t": "plan", "q": name,
                            "plan": plan_to_wire(plan)})
        if moved:
            journal.append({"t": "notify", "values": dict(moved)})
        assert core.journal.records[records:] == journal
        return notifications, recomputed, expected


class TestBatchOfOne:
    @given(ops=operations)
    def test_matches_the_per_refresh_reaction(self, ops):
        _drive(OneAtATime(), ops)

    def test_a_string_is_not_a_batch(self):
        with pytest.raises(TypeError):
            Rig().core.react_to_refresh("a")


# ---------------------------------------------------------------------------
# any split of a refresh sequence
# ---------------------------------------------------------------------------

#: ``(item, factor, the batch ends here)``, or ``("fail", on)`` — which
#: ends the batch and switches the planner's failures on or off.
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(ITEMS),
                  st.sampled_from((0.94, 0.97, 0.985, 0.995, 1.0,
                                   1.005, 1.015, 1.03, 1.06)),
                  st.booleans()),
        st.tuples(st.just("fail"), st.booleans())),
    min_size=1, max_size=50)


def _batches(ops):
    """``(planner fails, [(item, factor), ...])`` per batch."""
    batch, fail = [], False
    for op in ops:
        if op[0] == "fail":
            if batch:
                yield fail, batch
                batch = []
            fail = op[1]
            continue
        item, factor, last = op
        batch.append((item, factor))
        if last:
            yield fail, batch
            batch = []
    if batch:
        yield fail, batch


#: With the planner down a breach outlives its recompute: ``a`` and ``b``
#: both leave their bands, and q0 and q2 read both.
STANDING_BREACH = [("fail", True), ("a", 1.06, False), ("b", 1.06, True)]

#: Only the middle item of the batch moves: it breaks q3 = 2·c·e, which
#: reads neither ``a`` nor ``b``, and moves it past its QAB.
QUIET_AROUND = [("a", 1.0, False), ("e", 1.06, False), ("e", 1.06, False),
                ("b", 1.0, True)]


class TestAnySplit:
    @given(ops=steps)
    @example(ops=STANDING_BREACH)
    @example(ops=QUIET_AROUND)
    def test_batched_run_is_as_safe_as_the_per_item_run(self, ops):
        single, batched = Rig(), Rig()
        core = batched.core
        failed = False
        for fail, batch in _batches(ops):
            single.planner.fail = batched.planner.fail = fail
            failed = failed or fail
            for item, factor in batch:
                value = single.core.cache[item] * factor
                single.refresh(item, value)      # checked refresh by refresh
                core.apply_refresh([item], [value])
            assert core.cache == single.core.cache
            items = [item for item, _ in batch]
            readers = {query.name: query for item in items
                       for query in core.item_index[item]}
            expected = {}
            for name, query in readers.items():
                value = query.evaluate(core.cache)
                if abs(value - core.last_user_values[name]) > query.qab:
                    expected[name] = value
            order = len(core.metrics.recompute_order)
            notifications, recomputed = core.react_to_refresh(items)
            assert len(notifications) == len(expected)
            assert dict(notifications) == expected      # bitwise
            names = core.metrics.recompute_order[order:]
            assert len(names) == len(set(names))        # once per batch
            assert recomputed == bool(names)
            assert set(names) <= set(readers)
            for name, query in readers.items():
                assert name in names or not broken(core, query)
            if not failed:
                assert not any(broken(core, query) for query in core.queries)
            for query in core.queries:
                value = query.evaluate(core.cache)
                assert abs(value - core.last_user_values[query.name]) \
                    <= query.qab

    def test_every_refresh_mode_recomputes_each_reader_once(self):
        core = single_dab_core("optimal_refresh")
        for item in ("a", "c"):
            core.apply_refresh([item], [core.cache[item] * 1.001])
        _, recomputed = core.react_to_refresh(["a", "c", "a"])
        readers = list(dict.fromkeys(
            query.name for item in ("a", "c") for query in core.item_index[item]))
        assert recomputed
        assert core.metrics.recompute_order == readers

    def test_items_nobody_reads_make_no_batch(self):
        core = Rig().core
        assert core.react_to_refresh([]) == ([], False)
        assert core.react_to_refresh(["nobody"]) == ([], False)


# ---------------------------------------------------------------------------
# a single-DAB plan is stale at any move of its inputs
# ---------------------------------------------------------------------------

#: The single-DAB planner stacks of the simulator's ``build_planner``.
SINGLE_DAB_STACKS = {
    "optimal_refresh": lambda model: DifferentSumPlanner(
        model, OptimalRefreshPlanner(model)),
    "sharfman": SharfmanStyleBaseline,
    "uniform": UniformAllocationBaseline,
}


def single_dab_core(stack):
    model = CostModel(rates={name: 1.0 for name in ITEMS}, recompute_cost=2.0)
    core = CoordinatorCore(
        queries=STATIC, planner=SINGLE_DAB_STACKS[stack](model),
        metrics=RecordingMetrics(), initial_values=INITIAL,
        item_to_source={name: 0 for name in ITEMS})
    core.bootstrap()
    return core


#: Batches of refreshes that each move their item: ``(item, factor)``
#: with distinct items per batch and ``factor != 1``.
moved_batches = st.lists(
    st.lists(st.tuples(st.sampled_from(ITEMS),
                       st.sampled_from((0.9, 0.97, 0.999, 1.001, 1.03, 1.1))),
             min_size=1, max_size=len(ITEMS), unique_by=lambda op: op[0]),
    min_size=1, max_size=4)


class TestSingleDabPlans:
    @given(stack=st.sampled_from(sorted(SINGLE_DAB_STACKS)),
           batches=moved_batches)
    def test_every_reader_of_a_moved_item_is_recomputed_in_order(
            self, stack, batches):
        """The window screen recomputes what a rule of "every refresh
        recomputes each of its readers" did, in that rule's order, and a
        plan with no window records no exit."""
        core = single_dab_core(stack)
        for batch in batches:
            items = [item for item, _ in batch]
            core.apply_refresh(items, [core.cache[item] * factor
                                       for item, factor in batch])
            # The reader order of a rule that recomputes every reader of
            # every refreshed item, once per batch.
            readers = list(dict.fromkeys(
                query.name for item in items
                for query in core.item_index[item]))
            order = len(core.metrics.recompute_order)
            _, recomputed = core.react_to_refresh(items)
            assert recomputed
            assert core.metrics.recompute_order[order:] == readers
        assert core.exited == set()


# ---------------------------------------------------------------------------
# the transports hand over what one read delivered
# ---------------------------------------------------------------------------

def _refreshes(count, source_id=0):
    return [protocol.refresh(source_id, [f"x{n}"], [float(n)], [n + 1])
            for n in range(count)]


class TestReceiveMany:
    @pytest.mark.parametrize("pair", [loopback_pair, inprocess_pair])
    def test_everything_sent_arrives_as_one_batch_then_eof(self, pair):
        async def check():
            client_end, server_end = pair()
            messages = _refreshes(3)
            for message in messages:
                await client_end.send(message)
            assert await server_end.receive_many() == messages
            await client_end.send(messages[0])
            client_end.close()
            assert await server_end.receive_many() == messages[:1]
            assert await server_end.receive_many() == []
            assert await server_end.receive_many() == []

        run(check())

    def test_a_pipe_read_returns_everything_buffered_up_to_n(self):
        async def check():
            client_end, _ = loopback_pair()
            pipe = client_end._writer
            pipe.write(b"abc")
            pipe.write(b"defg")
            assert await pipe.read(5) == b"abcde"
            pipe.write(b"h")
            pipe.close()
            assert await pipe.read() == b"fgh"
            assert await pipe.read() == b""

        run(check())


# ---------------------------------------------------------------------------
# the peer loop: order and error semantics
# ---------------------------------------------------------------------------

async def _one_read(pair, build):
    """A server, and a peer whose ``build(server, item_to_source)``
    messages reach it in one read (sent without a yield in between)."""
    server, close, item_to_source = await start_node("server")
    if pair is None:
        client_end = server.connect_loopback()
    else:
        client_end, server_end = pair()
        server.adopt_connection(server_end)
    for message in build(server, item_to_source):
        await client_end.send(message)
    return server, close, client_end


def _two_refreshes(server, item_to_source):
    """REFRESHes of two different items, each far from its cached value."""
    first, second = sorted(item_to_source)[:2]
    cache = server.core.cache
    return [protocol.refresh(item_to_source[first], [first],
                             [cache[first] * 1.5], [1]),
            protocol.refresh(item_to_source[second], [second],
                             [cache[second] * 0.5], [1])]


class TestPeerLoopOrder:
    @pytest.mark.parametrize("pair", [None, loopback_pair])
    def test_refreshes_before_a_malformed_message_are_applied(self, pair):
        async def check():
            sent = []

            def build(server, item_to_source):
                sent.extend(_two_refreshes(server, item_to_source))
                malformed = dict(sent[0], seq=2)
                del malformed["values"]
                return sent + [malformed]

            server, close, client_end = await _one_read(pair, build)
            reply = await asyncio.wait_for(client_end.receive(), 5)
            assert reply["type"] == MessageType.ERROR.value
            assert await client_end.receive() is None        # hung up
            for refresh in sent:
                assert (server.core.cache[refresh["items"][0]]
                        == refresh["values"][0])
            stats = server.server_stats()
            assert stats["refreshes_accepted"] == 2
            assert stats["refresh_batches"] == 1
            assert stats["protocol_errors"] == 1
            await close()

        run(check())

    @pytest.mark.parametrize("pair", [None, loopback_pair])
    def test_a_snapshot_between_refreshes_sees_the_first_only(self, pair):
        async def check():
            sent, expected = [], {}

            def build(server, item_to_source):
                sent.extend(_two_refreshes(server, item_to_source))
                cache = dict(server.core.cache)
                cache[sent[0]["items"][0]] = sent[0]["values"][0]
                expected.update({query.name: query.evaluate(cache)
                                 for query in server.core.queries})
                return [sent[0], protocol.snapshot(), sent[1]]

            server, close, client_end = await _one_read(pair, build)
            reply = await asyncio.wait_for(client_end.receive(), 5)
            assert reply["type"] == MessageType.SNAPSHOT.value
            assert reply["values"] == expected               # bitwise
            for _ in range(10):
                await asyncio.sleep(0)
            for refresh in sent:
                assert (server.core.cache[refresh["items"][0]]
                        == refresh["values"][0])
            assert server.stats["refresh_batches"] == 2
            client_end.close()
            await close()

        run(check())


class TestBatchCounter:
    def test_the_router_sums_its_shards_batches(self):
        async def check():
            cluster, close, item_to_source = await start_node("router")
            source_id = min(item_to_source.values())
            items = sorted(name for name, owner in item_to_source.items()
                           if owner == source_id)
            stream = cluster.connect_loopback()
            await stream.send(protocol.register_source(source_id, items))
            await stream.receive()
            await stream.send(protocol.refresh(
                source_id, items, [1.0 + n for n in range(len(items))],
                [1] * len(items)))
            for _ in range(20):
                await asyncio.sleep(0)
            shards = [server.server_stats()["refresh_batches"]
                      for server in cluster.shards.values()]
            assert cluster.server_stats()["refresh_batches"] == sum(shards)
            # Each shard took its share of the routed run as one batch.
            assert 0 < sum(shards) <= len(shards)
            stream.close()
            await close()

        run(check())


# ---------------------------------------------------------------------------
# one reaction per loop turn
# ---------------------------------------------------------------------------

#: Four sources, so a turn can carry four reads.
FOUR_SOURCES = dict(SCENARIO, source_count=4)


async def _settle(rounds=10):
    for _ in range(rounds):
        await asyncio.sleep(0)


def _bursts(server, item_to_source, factor=1.5):
    """One REFRESH per source moving each of its items by ``factor``."""
    frames = {}
    for source_id in sorted(set(item_to_source.values())):
        items = sorted(name for name, owner in item_to_source.items()
                       if owner == source_id)
        frames[source_id] = protocol.refresh(
            source_id, items, [server.core.cache[name] * factor
                               for name in items], [1] * len(items))
    return frames


class _Built:
    """A subscriber that keeps what its NOTIFYs built, per query."""

    def __init__(self, stream):
        self.stream = stream
        self.values = {}

    async def read(self):
        while True:
            try:
                message = await asyncio.wait_for(self.stream.receive(), 0.05)
            except asyncio.TimeoutError:
                return self.values
            assert message["type"] == MessageType.NOTIFY.value
            for update in message["updates"]:
                self.values[update["query"]] = update["value"].hex()


async def _run_bursts(apart):
    """Every source's burst, all in one turn or each a turn apart; returns
    what the node ends with and how many reactions it made."""
    server, _, item_to_source = build_scenario_server(**FOUR_SOURCES)
    server.core.journal = JournalTap()
    names = [query.name for query in server.core.queries]
    built = []
    for queries in ("*", names[:2], names[2:]):
        client_end, server_end = loopback_pair()
        server.adopt_connection(server_end)
        await client_end.send(protocol.query_sub(queries))
        assert (await client_end.receive())["type"] == \
            MessageType.SNAPSHOT.value
        built.append(_Built(client_end))
    streams = await register_sources(server, item_to_source)
    before = server.stats["refresh_batches"]
    for source_id, frame in _bursts(server, item_to_source).items():
        await streams[source_id].send(frame)
        if apart:
            await _settle()
    await _settle()
    outcome = {
        "cache": dict(server.core.cache),
        "values": [value.hex() for value in server.core.query_values()],
        "built": [await one.read() for one in built],
        "kinds": sorted({record["t"] for record in
                         server.core.journal.records}),
        "accepted": server.stats["refreshes_accepted"],
    }
    reactions = server.stats["refresh_batches"] - before
    await server.close()
    return outcome, reactions, len(streams)


def _awaiting(task, name):
    """Whether ``task`` is suspended somewhere inside coroutine ``name``."""
    coro = task.get_coro()
    while coro is not None:
        if getattr(coro, "__name__", None) == name:
            return True
        coro = getattr(coro, "cr_await", None)
    return False


class TestOneReactionPerTurn:
    def test_reads_from_several_sources_in_one_turn_make_one_reaction(self):
        async def check():
            together, reactions, sources = await _run_bursts(apart=False)
            assert sources == 4
            assert reactions == 1
            apart, reactions, _ = await _run_bursts(apart=True)
            assert reactions == sources
            assert together == apart
            assert together["built"][0]            # NOTIFYs were sent
            assert "notify" in together["kinds"]

        run(check())

    def test_a_reaction_cancelled_in_its_yield_leaves_its_items(self):
        async def check():
            server, close, item_to_source = await start_node("server")
            streams = await register_sources(server, item_to_source)
            reacted = []
            react = server.core.react_to_refresh
            server.core.react_to_refresh = lambda items: (
                reacted.append(list(items)) or react(items))
            frames = _bursts(server, item_to_source)
            first, second = sorted(frames)
            for frame in frames.values():
                await streams[frame["source_id"]].send(frame)
            await asyncio.sleep(0)            # every read applied, one yield
            holders = [task for task in server._handler_tasks
                       if _awaiting(task, "_react_to_turn")]
            assert len(holders) == 1 and server._turn_held
            holder = holders[0].get_coro().cr_frame.f_locals["peer"]
            holders[0].cancel()
            await _settle()
            moved = frames[first]["items"] + frames[second]["items"]
            assert sorted(server._turn_items) == sorted(moved)
            assert reacted == [] and not server._turn_held
            assert server.stats["refresh_batches"] == 0
            # The next turn's reaction takes them along.
            source_id = second if holder.source_id == first else first
            item = frames[source_id]["items"][0]
            await streams[source_id].send(protocol.refresh(
                source_id, [item], [server.core.cache[item] * 2.0], [2]))
            await _settle()
            assert server.stats["refresh_batches"] == 1
            assert sorted(reacted[0]) == sorted(moved + [item])
            assert server._turn_items == []
            await close()

        run(check())

    def test_a_read_that_fails_midway_still_reacts_to_what_it_applied(self):
        async def check():
            server, close, item_to_source = await start_node("server")
            streams = await register_sources(server, item_to_source)
            reacted = []
            react = server.core.react_to_refresh
            server.core.react_to_refresh = lambda items: (
                reacted.append(list(items)) or react(items))
            frames = _bursts(server, item_to_source)
            source_id = min(frames)
            good = frames[source_id]
            bad = dict(good, seqs=[seq + 1 for seq in good["seqs"]])
            apply = server._apply_refresh

            def failing(frame):
                if frame is not good:
                    raise ValueError("refused")
                return apply(frame)

            server._apply_refresh = failing
            stream = streams[source_id]
            await stream.send(good)
            await stream.send(bad)                 # one read, two frames
            kinds = []
            while not kinds or kinds[-1] == MessageType.DAB_UPDATE.value:
                kinds.append((await asyncio.wait_for(stream.receive(),
                                                     5))["type"])
            assert kinds[-1] == MessageType.ERROR.value
            assert reacted == [good["items"]]
            assert server.stats["refresh_batches"] == 1
            assert server._turn_items == []
            await close()

        run(check())


@pytest.mark.network
def test_a_burst_from_four_tcp_sources_is_one_reaction():
    server, _, item_to_source = build_scenario_server(**FOUR_SOURCES)

    async def body():
        host, port = await server.serve_tcp("127.0.0.1", 0)
        streams = await register_sources(
            server, item_to_source,
            connect=lambda: open_tcp_stream(host, port))
        assert len(streams) == 4
        frames = _bursts(server, item_to_source)
        for source_id, frame in frames.items():
            await streams[source_id].send(frame)    # no yield in between
        total = sum(len(frame["items"]) for frame in frames.values())
        for _ in range(200):
            if server.stats["refreshes_accepted"] == total:
                break
            await asyncio.sleep(0.005)
        await _settle()
        assert server.stats["refreshes_accepted"] == total
        assert server.stats["refresh_batches"] == 1
        for stream in streams.values():
            stream.close()
        await server.close()

    asyncio.run(body())
