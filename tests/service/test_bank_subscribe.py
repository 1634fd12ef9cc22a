"""Live QUERY_SUB registration against the bank.

The bounded-work contract: subscribing N new query definitions costs N
row *appends* to the term-product table (query-sized work each), never an
O(bank) rebuild — the bank and every compiled query stay the *same
objects* while a thousand definitions stream in.  Plus the registration
semantics around it: idempotent duplicate registration via refcounts,
validate-all-first rejection (no partial effect), last-reference
removal when the defining subscriber goes away — of that query, not an
equal one under another name — and the source bounds a definition's plan
tightens on registration and loosens on removal.  And the order a
registration runs in: the SNAPSHOT reply is written before the new
queries are planned, with no yield until the last plan, and the journal
keeps the records planning first wrote.
"""

import asyncio
import hashlib

import pytest

from repro.queries import PolynomialQuery, QueryTerm
from repro.queries.items import ItemRegistry
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.journal import Journal, plan_to_wire
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from repro.service.transports import loopback_pair
from repro.workloads import WorkloadConfig, generate_template_bank
from tests.service.nodes import SOURCE_FACING, connect, start_node


def run(coro):
    return asyncio.run(coro)


def _server(journal_dir=None):
    """Four static queries; with ``journal_dir`` the server journals (and
    is restored here), so a test can count ``qadd`` / ``qdel`` records."""
    journal = Journal(str(journal_dir)) if journal_dir is not None else None
    built = build_scenario_server(query_count=4, item_count=20,
                                  source_count=2, trace_length=41, seed=1,
                                  journal=journal)
    if journal is not None:
        built[0].restore()
    return built


def journaled(server, kind):
    """How many records of type ``kind`` the server's journal holds."""
    return sum(1 for record in server.journal.records()
               if record["t"] == kind)


def _dynamic_bank(core, count, distinct, prefix="dyn", seed=2):
    """Single-pair dynamic queries over the server's cached items (small
    structures keep the per-query GP solve cheap at N=1000)."""
    names = sorted(core.cache)
    registry = ItemRegistry.from_names(names)
    values = {name: core.cache[name] for name in names}
    cfg = WorkloadConfig(pairs_per_query=(1, 1))
    return generate_template_bank(registry, values, count, distinct,
                                  config=cfg, seed=seed, name_prefix=prefix)


def bank_objects(core):
    """What an O(bank) rebuild would replace: the bank, the power table
    its rows index, and every query's compiled row."""
    bank = core._bank
    return bank, bank.table, {query.name: core.compiled_query(query)
                              for query in core.queries}


def assert_edited_in_place(core, before):
    bank, table, compiled = before
    now_bank, now_table, now_compiled = bank_objects(core)
    assert now_bank is bank and now_table is table
    for name, one in compiled.items():
        assert now_compiled[name] is one


async def _settled(server, predicate, timeout=5.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


class TestBoundedWork:
    def test_thousand_definitions_without_bank_rebuild(self):
        server, scenario, item_to_source = _server()

        async def body():
            bank = _dynamic_bank(server.core, count=1000, distinct=10)
            before = bank_objects(server.core)
            client = ServiceClient(server.connect_loopback())
            snapshot = await client.subscribe(definitions=bank)
            # Every definition is live and served in the snapshot.
            assert len(snapshot) == 4 + 1000
            # The headline: not one O(bank) recompile happened — each
            # definition was one append to the bank that was there.
            core = server.core
            assert_edited_in_place(core, before)
            assert len(core.queries) == len(core._bank) == 4 + 1000
            assert core.dynamic_names == {query.name for query in bank}
            assert len(server._dynamic_refs) == 1000
            await client.close()
            await server.close()

        run(body())

    def test_each_definition_appends_one_row(self):
        server, scenario, item_to_source = _server()

        async def body():
            bank = _dynamic_bank(server.core, count=3, distinct=3)
            core = server.core
            before = bank_objects(core)
            client = ServiceClient(server.connect_loopback())
            snapshot = await client.subscribe(definitions=bank)
            assert_edited_in_place(core, before)
            assert len(core._bank) == 4 + 3
            for query in bank:
                assert snapshot[query.name] == query.evaluate(core.cache)
            assert core.query_values() == [
                query.evaluate(core.cache) for query in core.queries]
            await client.close()
            await server.close()

        run(body())


class TestRegistrationSemantics:
    def test_duplicate_registration_is_refcounted(self, tmp_path):
        server, scenario, item_to_source = _server(tmp_path)

        async def body():
            (query,) = _dynamic_bank(server.core, count=1, distinct=1)
            first = ServiceClient(server.connect_loopback())
            await first.subscribe(definitions=[query])
            second = ServiceClient(server.connect_loopback())
            await second.subscribe(definitions=[query])
            assert server._dynamic_refs[query.name] == 2
            # The second subscription did not re-add it.
            assert len(server.core.queries) == 4 + 1
            assert journaled(server, "qadd") == 1
            await first.close()
            assert await _settled(
                server, lambda: server._dynamic_refs.get(query.name) == 1)
            assert query.name in server.core.query_names
            await second.close()
            assert await _settled(
                server, lambda: query.name not in server.core.query_names)
            assert query.name not in server._dynamic_refs
            assert len(server.core.queries) == 4
            assert server.core.dynamic_names == set()
            assert journaled(server, "qadd") == 1
            assert journaled(server, "qdel") == 1
            await server.close()

        run(body())

    def test_conflicting_definition_rejected_without_partial_effect(
            self, tmp_path):
        server, scenario, item_to_source = _server(tmp_path)

        async def body():
            taken = server.core.queries[0].name
            items = sorted(server.core.cache)[:2]
            conflict = PolynomialQuery(
                [QueryTerm.product(1.0, items[0], items[1])],
                qab=1.0, name=taken)
            (fresh,) = _dynamic_bank(server.core, count=1, distinct=1,
                                     prefix="fresh")
            before = bank_objects(server.core)
            stream = server.connect_loopback()
            await stream.send(protocol.query_sub([], [fresh, conflict]))
            reply = await asyncio.wait_for(stream.receive(), timeout=5)
            assert reply["type"] == MessageType.ERROR.value
            assert "different definition" in reply["reason"]
            # Validate-all-first: the valid definition before the bad one
            # must not have been registered.
            assert fresh.name not in server.core.query_names
            assert_edited_in_place(server.core, before)
            assert len(server.core.queries) == 4
            assert server.core.dynamic_names == set()
            assert journaled(server, "qadd") == 0
            await server.close()

        run(body())

    def test_a_departing_holder_removes_its_queries_in_name_order(
            self, tmp_path):
        server, _, _ = _server(tmp_path)

        async def body():
            bank = _dynamic_bank(server.core, count=4, distinct=4)
            client = ServiceClient(server.connect_loopback())
            await client.subscribe(definitions=bank[::-1])
            await client.close()
            await _idle(server, 0)
            await server.close()

        run(body())
        assert [record["name"] for record in server.journal.records()
                if record["t"] == "qdel"] == ["dyn0", "dyn1", "dyn2", "dyn3"]

    def test_unknown_item_rejected(self):
        server, scenario, item_to_source = _server()

        async def body():
            ghost = PolynomialQuery(
                [QueryTerm.product(1.0, "nope", "nada")],
                qab=1.0, name="ghost")
            stream = server.connect_loopback()
            await stream.send(protocol.query_sub([], [ghost]))
            reply = await asyncio.wait_for(stream.receive(), timeout=5)
            assert reply["type"] == MessageType.ERROR.value
            assert "unknown items" in reply["reason"]
            assert "ghost" not in server.core.query_names
            await server.close()

        run(body())

    def test_reregistering_static_query_is_not_dynamic(self):
        server, scenario, item_to_source = _server()

        async def body():
            static = server.core.queries[0]
            client = ServiceClient(server.connect_loopback())
            await client.subscribe(definitions=[static])
            # Identical redefinition of a static query is accepted but
            # takes no reference: closing cannot remove a static query.
            assert static.name not in server._dynamic_refs
            await client.close()
            await asyncio.sleep(0.05)
            assert static.name in server.core.query_names
            await server.close()

        run(body())


class TestImplicitSubscription:
    def test_defined_queries_are_notified(self):
        server, scenario, item_to_source = _server()

        async def body():
            owned = sorted(n for n, s in item_to_source.items() if s == 0)
            query = PolynomialQuery(
                [QueryTerm.product(3.0, owned[0], owned[1])],
                qab=1e-6, name="mine")
            source = server.connect_loopback()
            await source.send(protocol.register_source(0, owned))
            reply = await source.receive()
            assert reply["type"] == MessageType.DAB_UPDATE.value

            client = ServiceClient(server.connect_loopback())
            snapshot = await client.subscribe(queries=[], definitions=[query])
            assert "mine" in snapshot

            old = server.core.cache[owned[0]]
            await source.send(protocol.refresh(0, [owned[0]], [old * 10.0],
                                               [1]))
            assert await _settled(server,
                                  lambda: "mine" in client.values
                                  and client.values["mine"] != snapshot["mine"])
            # queries=[] plus one definition: nothing else is delivered.
            assert set(client.values) == {"mine"}
            await client.close()
            await server.close()

        run(body())


class TestRemoveByIdentity:
    """``PolynomialQuery.__eq__`` ignores the name, so a definition equal to
    a static query under a new name is accepted.  Removing it must unindex
    *it*, not the first equal query in each item's bucket."""

    def test_removing_a_twin_keeps_the_original_indexed(self):
        server, _, _ = _server()
        core = server.core
        original = core.queries[0]
        twin = original.with_qab(original.qab, name="twin")
        assert twin == original
        core.add_query(twin)
        core.remove_query("twin")

        for item in original.variables:
            bucket = core.item_index[item]
            assert [q.name for q in bucket].count(original.name) == 1
            assert any(q is original for q in bucket)
            assert "twin" not in [q.name for q in bucket]
        assert "twin" not in core.plans and original.name in core.plans

        replanned = []
        record = core.metrics.record_recomputation

        def recording(name, count=1):
            replanned.append(name)
            record(name, count)

        core.metrics.record_recomputation = recording
        item = original.variables[0]
        core.apply_refresh([item], [core.cache[item] * 1.5])
        notifications, recomputed = core.react_to_refresh([item])
        # The original is window-checked, re-planned and notified; the
        # removed twin gets neither a plan nor a notification.
        assert recomputed and original.name in replanned
        assert "twin" not in replanned and "twin" not in core.plans
        notified = dict(notifications)
        assert original.name in notified and "twin" not in notified
        assert notified[original.name] == original.evaluate(core.cache)


async def _next_dab_update(stream, timeout=5.0):
    while True:
        message = await asyncio.wait_for(stream.receive(), timeout=timeout)
        if message["type"] == MessageType.DAB_UPDATE.value:
            return message


def _tightening_definition(coordinators, item_to_source):
    """``(coordinator, source_id, items, query)``: the first coordinator
    and source with two items the coordinator's static plans already
    bound, and a definition over them at a budget that plans both far
    tighter."""
    for coordinator in coordinators:
        core = coordinator.core
        for source_id in sorted(set(item_to_source.values())):
            shared = [name for name in sorted(core.item_index)
                      if item_to_source.get(name) == source_id][:2]
            if len(shared) == 2:
                product = core.cache[shared[0]] * core.cache[shared[1]]
                return coordinator, source_id, shared, PolynomialQuery(
                    [QueryTerm.product(1.0, *shared)],
                    qab=1e-4 * product, name="tight")
    raise AssertionError("no source has two items under static plans")


class TestSubscribeShipsBounds:
    """A QUERY_SUB definition's plan joins the min-merge: the tighter
    primaries reach their source, and the subscriber's departure ships
    them loosened again."""

    @pytest.mark.parametrize("kind", SOURCE_FACING)
    def test_definition_tightens_and_removal_loosens_the_source_bounds(
            self, kind):
        async def body():
            node, close, item_to_source = await start_node(kind)
            # The router takes no definitions: its shards run the
            # server's QUERY_SUB handler, and their bounds reach the
            # sources through its min-merge.
            coordinators = ([node] if kind == "server" else
                            [node.shards[sid] for sid in sorted(node.shards)])
            coordinator, source_id, shared, tight = _tightening_definition(
                coordinators, item_to_source)
            source = node.connect_loopback()
            await source.send(protocol.register_source(
                source_id, sorted(name for name, owner in item_to_source.items()
                                  if owner == source_id)))
            before = (await _next_dab_update(source))["bounds"]

            client = ServiceClient(coordinator.connect_loopback())
            await client.subscribe(queries=[], definitions=[tight])
            planned = coordinator.core.plans["tight"].primary
            update = await _next_dab_update(source)
            for name in shared:
                assert planned[name] < before[name]
                assert update["bounds"][name] == planned[name]

            await client.close()
            update = await _next_dab_update(source)
            for name in shared:
                assert update["bounds"][name] == before[name]
            await close()

        run(body())


class TestReRegisteredName:
    """``remove_query`` must leave nothing of the query behind in the
    planner stack: the name is free, and the next query to take it is
    planned for *its* budget and items."""

    @pytest.mark.parametrize("algorithm", ["optimal_refresh", "dual_dab"])
    def test_new_plan_meets_the_new_qab(self, algorithm):
        server, _, _ = build_scenario_server(
            query_count=4, item_count=20, source_count=2, trace_length=41,
            seed=1, algorithm=algorithm)
        core = server.core
        first, second, third = sorted(core.cache)[:3]

        def register(qab, *items):
            query = PolynomialQuery([QueryTerm.product(1.0, *items)],
                                    qab=qab, name="again")
            core.add_query(query)
            plan = core.plans["again"]
            values = {name: core.cache[name] for name in query.variables}
            assert set(plan.primary) == set(items)
            assert plan.guarantees_qab(query, values)
            return plan

        product = core.cache[first] * core.cache[second]
        loose = register(0.05 * product, first, second)
        core.remove_query("again")
        tight = register(0.005 * product, first, second)
        assert tight.primary[first] < 0.2 * loose.primary[first]
        core.remove_query("again")
        register(0.05 * product, first, third)


async def _idle(server, live):
    """Wait until ``live`` connection handlers are all that run: every
    hung-up peer's teardown, and the DAB fan-out it spawned, is done."""
    while len(server._handler_tasks) > live:
        await asyncio.sleep(0)


async def _round_trip(stream):
    """Ask for a SNAPSHOT and wait for it: the node handles one peer's
    messages in order, so everything sent before has been handled."""
    stream.send_nowait(protocol.snapshot())
    while True:
        message = await asyncio.wait_for(stream.receive(), timeout=5)
        if message["type"] == MessageType.SNAPSHOT.value:
            return message


def _wire_plans(core):
    """Every plan as its journal bytes: equal means bit for bit."""
    return {name: protocol.encode_body(plan_to_wire(plan))
            for name, plan in core.plans.items()}


class RecordingWriter:
    """Wraps a stream's writer: notes each frame's message type in
    ``events`` as it is written."""

    def __init__(self, inner, events):
        self.inner = inner
        self.events = events

    def write(self, frame):
        body = protocol.decode_body(frame[protocol.HEADER_BYTES:])
        self.events.append(("frame", body["type"]))
        self.inner.write(frame)

    async def drain(self):
        await self.inner.drain()

    def close(self):
        self.inner.close()


async def _scripted(server, item_to_source, drop=True):
    """A source attached, then a registration, a duplicate plus a new
    definition, a refused message and — with ``drop`` — both defining
    subscribers gone (the duplicate holder first, so each drop removes
    one query)."""
    _, source_id, _, tight = _tightening_definition([server], item_to_source)
    (extra,) = _dynamic_bank(server.core, count=1, distinct=1)
    taken = server.core.queries[0].name
    items = sorted(server.core.cache)[:2]
    conflict = PolynomialQuery([QueryTerm.product(1.0, *items)],
                               qab=1.0, name=taken)
    source = connect(server, loopback_pair)
    await source.send(protocol.register_source(source_id, sorted(
        name for name, owner in item_to_source.items()
        if owner == source_id)))
    await _next_dab_update(source)
    replies = []
    subscribers = []
    for definitions in ([tight], [tight, extra], [extra, conflict]):
        stream = connect(server, loopback_pair)
        await stream.send(protocol.query_sub([], definitions))
        replies.append(await asyncio.wait_for(stream.receive(), timeout=5))
        subscribers.append(stream)
    assert [reply["type"] for reply in replies] == ["snapshot"] * 2 + ["error"]
    await _idle(server, 3)
    if drop:
        for stream, live in ((subscribers[1], 2), (subscribers[0], 1)):
            stream.close()
            await _idle(server, live)


#: The scripted sequence's journal, recorded with the handler that
#: planned before it replied (tests/oracle/plan_first.py): one record per
#: ``(kind, query)`` and the SHA-256 of the WAL bytes.  The digest was
#: re-recorded when new queries began planning at μ/2 until their window
#: is first left (DESIGN.md §4): the records are the same, the bytes of
#: the two plans and the bounds they move are not.
SCRIPTED_RECORDS = [
    ("qadd", "tight"), ("plan", "tight"), ("bounds", None),
    ("qadd", "dyn0"), ("plan", "dyn0"),
    ("qdel", "dyn0"), ("qdel", "tight"), ("bounds", None),
]
SCRIPTED_WAL_SHA256 = (
    "acb157d871826e8390a62ca5b231e81b3f5ae6c60ca47a0cb4eaec5e0a41c63a")


class TestReplyBeforePlan:
    """QUERY_SUB answers from the cache, then plans its new definitions:
    nothing in between yields, so the plan lands before any other
    handler runs and the journal keeps its records."""

    @pytest.mark.parametrize("carrier", ["read", "turn"])
    def test_refresh_after_the_query_sub_finds_the_query_planned(
            self, tmp_path, carrier):
        """``read``: the REFRESH follows the QUERY_SUB in its read;
        ``turn``: another peer's read, made ready in the same loop turn,
        carries it — a handler that yielded before planning would let
        that reaction see the query unplanned."""
        server, _, item_to_source = _server(tmp_path)

        async def body():
            core = server.core
            (query,) = _dynamic_bank(core, count=1, distinct=1)
            item = query.variables[0]
            recomputations = server.metrics.recomputations
            stream = connect(server, loopback_pair)
            source = connect(server, loopback_pair) if carrier == "turn" else stream
            # Two frames, no yield between them.
            stream.send_nowait(protocol.query_sub([], [query]))
            source.send_nowait(protocol.refresh(
                item_to_source[item], [item], [core.cache[item]], [1]))
            reply = await asyncio.wait_for(stream.receive(), timeout=5)
            assert reply["type"] == MessageType.SNAPSHOT.value
            await _round_trip(source)
            assert server.stats["refresh_batches"] == 1
            # Unplanned, the reaction would have called the window
            # broken and recomputed it.
            assert server.metrics.recomputations == recomputations
            assert core.window_screen_hits == 1
            assert [record["q"] for record in server.journal.records()
                    if record["t"] == "plan"] == [query.name]
            await server.close()

        run(body())

    def test_snapshot_is_written_before_the_plans_are_journaled(
            self, tmp_path):
        server, _, item_to_source = _server(tmp_path)

        async def body():
            events = []
            append = server.journal.append

            def recording_append(record):
                events.append(("record", record["t"]))
                return append(record)

            server.journal.append = recording_append
            client_end, server_end = loopback_pair()
            server_end._writer = RecordingWriter(server_end._writer, events)
            server.adopt_connection(server_end)
            _, _, _, tight = _tightening_definition([server], item_to_source)
            (extra,) = _dynamic_bank(server.core, count=1, distinct=1)
            await client_end.send(protocol.query_sub([], [tight, extra]))
            await asyncio.wait_for(client_end.receive(), timeout=5)
            await _round_trip(client_end)
            assert events[:5] == [("record", "qadd"), ("record", "qadd"),
                                  ("frame", "snapshot"),
                                  ("record", "plan"), ("record", "plan")]
            # The tight plan moved a bound: journaled after the plans.
            assert events[5] == ("record", "bounds")
            await server.close()

        run(body())

    def test_scripted_journal_matches_the_pinned_records(self, tmp_path):
        server, _, item_to_source = _server(tmp_path)

        async def body():
            await _scripted(server, item_to_source)
            await server.close(final_snapshot=False)

        run(body())
        records = list(server.journal.records())
        assert [(record["t"], record.get("q") or record.get("name")
                 or record.get("query", {}).get("name"))
                for record in records] == SCRIPTED_RECORDS
        data = server.journal.wal_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == SCRIPTED_WAL_SHA256

    def test_restore_reproduces_the_plans(self, tmp_path):
        server, _, item_to_source = _server(tmp_path)

        async def body():
            await _scripted(server, item_to_source, drop=False)
            assert server.core.dynamic_names == {"tight", "dyn0"}
            plans = _wire_plans(server.core)
            # A hard kill: the WAL alone carries the registrations.
            await server.close(final_snapshot=False)
            return plans

        plans = run(body())
        restored, _, _ = _server(tmp_path)
        assert restored.last_recovery["records_replayed"] == 5
        assert _wire_plans(restored.core) == plans
        run(restored.close())

