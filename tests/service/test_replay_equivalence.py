"""Replay equivalence at message boundaries (DESIGN.md §11.4).

One journaled server runs a script that writes every journal record
kind.  After each message, a coordinator restored from the journal as it
stood then — from its WAL alone, and from its newest snapshot plus the
WAL tail — must equal the live one: the same recovery state, the same
query values to the last bit and the same seq floors.

The recompute price (DESIGN.md §4) is restored state too: a state machine
over refreshes, window exits, snapshots, restores and query churn keeps
a core that is restored now and then beside one that never is, and they
must hold the same exited set, make the same next plans and write the
same WAL bytes.  Budget: the ``ci`` Hypothesis profile keeps it in tier-1
seconds; ``REPRO_HYPOTHESIS_PROFILE=nightly`` runs 200 examples.
"""

import asyncio
import os
import shutil

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.filters import AAOPlanner, CostModel, DualDABPlanner
from repro.filters.assignment import DABAssignment
from repro.queries import parse_query
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.core import RECORD_KINDS, CoordinatorCore
from repro.service.journal import Journal, encode_record, scan_records
from repro.service.server import CoordinatorServer
from repro.simulation.metrics import MetricsCollector
from tests.service.nodes import core_fingerprint
from tests.service.test_window_screen import (
    DYNAMIC_FRACTION,
    FRACTION,
    INITIAL,
    ITEMS,
    POOL,
    STATIC,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

VALUES = {"x": 2.0, "y": 3.0, "z": 4.0}
ITEM_TO_SOURCE = {"x": 0, "y": 0, "z": 1}
#: The item a reshard hands over mid-script.
ADOPTED, ADOPTED_VALUE, ADOPTED_SOURCE = "w", 5.0, 1


def build(directory):
    model = CostModel(rates={name: 1.0 for name in [*VALUES, ADOPTED]},
                      recompute_cost=2.0)
    return CoordinatorServer(
        queries=[parse_query("x*y : 5", name="q1"),
                 parse_query("y*z : 4", name="q2"),
                 parse_query("x + z : 1", name="q3")],
        planner=DualDABPlanner(model), initial_values=VALUES,
        item_to_source=ITEM_TO_SOURCE, aao_planner=AAOPlanner(model),
        journal=Journal(str(directory), fsync="off", snapshot_every=4))


def observe(server):
    core = server.core
    return (core_fingerprint(core),
            [value.hex() for value in core.query_values()],
            dict(server.leases.last_seq))


async def drain(rounds=6):
    for _ in range(rounds):
        await asyncio.sleep(0)


def revive(live_dir, into, snapshots):
    """A server restored from a copy of ``live_dir`` as it stands now:
    its WAL, and its snapshots if ``snapshots``."""
    into.mkdir()
    shutil.copy(live_dir / "wal.log", into)
    if snapshots:
        for path in live_dir.glob("snapshot-*.json"):
            shutil.copy(path, into)
    server = build(into)
    return server, server.restore()


def test_every_message_boundary_restores_to_the_live_core(tmp_path):
    async def check():
        live = build(tmp_path / "live")
        live.restore()
        sources = {}
        for source_id in (0, 1):
            stream = sources[source_id] = live.connect_loopback()
            await stream.send(protocol.register_source(
                source_id, sorted(name for name, owner
                                  in ITEM_TO_SOURCE.items()
                                  if owner == source_id)))
            await stream.receive()
        seqs = {}
        client = ServiceClient(live.connect_loopback())

        async def refresh(item, value):
            seqs[item] = seqs.get(item, 0) + 1
            source_id = live.core.item_to_source[item]
            await sources[source_id].send(
                protocol.refresh(source_id, [item], [value], [seqs[item]]))

        async def adopt():
            live.adopt_item(ADOPTED, ADOPTED_VALUE, ADOPTED_SOURCE,
                            seq_floor=3)
            seqs[ADOPTED] = 3

        async def subscribe():
            await client.subscribe(definitions=[
                parse_query("w*x : 6", name="dyn")])

        async def aao():
            assert live.core.aao_replan()
            await live._fanout_bound_changes()

        script = [
            lambda: refresh("x", 2.001),      # inside every window
            lambda: refresh("x", 2.6),        # breach: plan, bounds, notify
            lambda: refresh("z", 7.0),
            adopt,
            subscribe,                        # qadd over the adopted item
            lambda: refresh(ADOPTED, 9.0),
            aao,
            lambda: refresh("y", 4.5),
            client.close,                     # last reference: qdel
            lambda: refresh("y", 6.0),
            lambda: refresh("x", 1.1),
        ]
        recoveries = []
        for step, message in enumerate(script):
            await message()
            await drain()
            expected = observe(live)
            for snapshots in (False, True):
                revived, recovery = revive(
                    tmp_path / "live", tmp_path / f"{step}-{snapshots}",
                    snapshots)
                assert observe(revived) == expected, (step, snapshots)
                recoveries.append(recovery)
                await revived.close(final_snapshot=False)

        kinds = {record["t"] for record in live.journal.records()}
        assert kinds == set(RECORD_KINDS)
        # Both paths ran: a snapshot past the first with a tail behind it.
        assert any(recovery["snapshot_index"]
                   and recovery["records_replayed"]
                   for recovery in recoveries)
        for stream in sources.values():
            stream.close()
        await live.close()

    asyncio.run(check())


# -- the recompute price across restores ---------------------------------------------

class PricedPlanner:
    """Solver-free and stateless: the window widens with the recompute
    price, so a plan made at a wrongly restored price has other bytes."""

    def plan(self, query, values, recompute_scale=1.0):
        frac = FRACTION.get(query.name, DYNAMIC_FRACTION) * (
            1.0 + recompute_scale)
        primary = {name: frac * abs(value) for name, value in values.items()}
        return DABAssignment(
            primary=primary,
            secondary={name: 2.0 * bound for name, bound in primary.items()},
            reference_values=dict(values), recompute_rate=recompute_scale,
            objective=1.0)


class WalTap:
    """Stands in for the write-ahead journal: keeps each record's bytes."""

    def __init__(self):
        self.wal = b""

    def append(self, record):
        self.wal += encode_record(record)


def _price_core():
    return CoordinatorCore(queries=STATIC, planner=PricedPlanner(),
                           metrics=MetricsCollector(2.0),
                           initial_values=INITIAL,
                           item_to_source={name: 0 for name in ITEMS})


class RecomputePrice(RuleBasedStateMachine):
    """``live`` is never restored; ``restored`` is rebuilt from its last
    snapshot (or a bootstrap) plus its WAL tail whenever ``restore``
    runs, the way ``CoordinatorServer.restore`` rebuilds a server."""

    def __init__(self):
        super().__init__()
        self.live, self.restored = _price_core(), _price_core()
        for core in (self.live, self.restored):
            core.bootstrap()
            core.journal = WalTap()
        self.snapshot = None

    def both(self, step):
        for core in (self.live, self.restored):
            step(core)

    @rule(item=st.sampled_from(ITEMS),
          factor=st.sampled_from((0.97, 0.99, 1.0, 1.01, 1.03)))
    def refresh(self, item, factor):
        value = self.live.cache[item] * factor

        def step(core):
            core.apply_refresh([item], [value])
            core.react_to_refresh([item])
        self.both(step)

    @rule(pick=st.integers(0, 63))
    def leave_a_window(self, pick):
        """Move an item of a live query 50 %: past every window."""
        queries = self.live.queries
        query = queries[pick % len(queries)]
        item = query.variables[pick % len(query.variables)]
        value = self.live.cache[item] * 1.5

        def step(core):
            core.apply_refresh([item], [value])
            core.react_to_refresh([item])
        self.both(step)

    @rule(index=st.integers(0, len(POOL) - 1))
    def add(self, index):
        if POOL[index].name not in self.live.query_names:
            self.both(lambda core: core.add_query(POOL[index]))

    @rule(index=st.integers(0, len(POOL) - 1))
    def remove(self, index):
        if POOL[index].name in self.live.query_names:
            self.both(lambda core: core.remove_query(POOL[index].name))

    @rule()
    def snapshot(self):
        core = self.restored
        self.snapshot = (protocol.decode_body(protocol.encode_body(
            core.recovery_state())), len(core.journal.wal))

    @rule()
    def restore(self):
        wal = self.restored.journal
        fresh = _price_core()
        if self.snapshot is None:
            fresh.bootstrap()
            tail = wal.wal
        else:
            state, offset = self.snapshot
            fresh.restore_recovery_state(state)
            tail = wal.wal[offset:]
        for record in scan_records(tail)[0]:
            fresh.replay(record)
        fresh.journal = wal
        self.restored = fresh

    @invariant()
    def the_restored_core_is_the_live_one(self):
        live, restored = self.live, self.restored
        assert restored.exited == live.exited
        assert restored.recompute_prices() == live.recompute_prices()
        assert core_fingerprint(restored) == core_fingerprint(live)
        assert restored.journal.wal == live.journal.wal


TestRecomputePriceSurvivesRestore = RecomputePrice.TestCase


def test_a_snapshot_restores_the_registration_order():
    """Dynamic queries come back in the order they were registered — the
    order their readers are recomputed in — not sorted by name."""
    live = _price_core()
    live.bootstrap()
    for index in (0, 2, 1):
        live.add_query(POOL[index])
    restored = _price_core()
    restored.restore_recovery_state(protocol.decode_body(
        protocol.encode_body(live.recovery_state())))

    def readers(core):
        return {item: [query.name for query in queries]
                for item, queries in core.item_index.items()}
    assert readers(restored) == readers(live)
