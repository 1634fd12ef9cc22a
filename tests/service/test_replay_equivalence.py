"""Replay equivalence at message boundaries (DESIGN.md §11.4).

One journaled server runs a script that writes every journal record
kind.  After each message, a coordinator restored from the journal as it
stood then — from its WAL alone, and from its newest snapshot plus the
WAL tail — must equal the live one: the same recovery state, the same
query values to the last bit and the same seq floors.
"""

import asyncio
import shutil

from repro.filters import AAOPlanner, CostModel, DualDABPlanner
from repro.queries import parse_query
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.core import RECORD_KINDS
from repro.service.journal import Journal
from repro.service.server import CoordinatorServer
from tests.service.nodes import core_fingerprint

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
        journal=Journal(str(directory), fsync="off", snapshot_every=4),
        bootstrap=False)


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
