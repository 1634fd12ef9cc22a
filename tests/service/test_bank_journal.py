"""Shared bank index under the write-ahead journal (ISSUE 8 satellite).

Three durability contracts:

1. **Journal byte-identity in flat mode** — plan records carry a
   ``bank_index`` tag only when the non-default shared index produced
   them, so flat-mode journals are byte-identical with the pre-index
   format (same rule as the delta ``mode`` tag).
2. **Kill-9 replay bit-identity with the shared index** — snapshot +
   WAL-tail replay reconstructs the pre-crash core state fingerprint-
   identically, *including dynamically-subscribed queries* (``qadd``
   records and the snapshot's ``dynamic_queries`` section).
3. **Service-level mode equivalence** — the same refresh load through a
   flat and a shared server yields identical query values.
"""

import asyncio
import json

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.journal import Journal
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from tests.service.test_bank_subscribe import (
    _dynamic_bank,
    assert_edited_in_place,
    bank_objects,
)


def run(coro):
    return asyncio.run(coro)


def build(tmp_path=None, bootstrap=True, bank_index="shared", **kwargs):
    journal = None
    if tmp_path is not None:
        journal = Journal(str(tmp_path), **kwargs.pop("journal_kwargs", {}))
    server, scenario, item_to_source = build_scenario_server(
        query_count=4, item_count=20, source_count=2, trace_length=41,
        seed=1, journal=journal, bootstrap=bootstrap and journal is None,
        bank_index=bank_index, **kwargs)
    return server, scenario, item_to_source


def owned(item_to_source, source_id):
    return sorted(n for n, s in item_to_source.items() if s == source_id)


async def register(server, item_to_source, source_id):
    stream = server.connect_loopback()
    await stream.send(protocol.register_source(
        source_id, owned(item_to_source, source_id)))
    reply = await stream.receive()
    assert reply["type"] == MessageType.DAB_UPDATE.value
    return stream


async def drain(rounds=6):
    for _ in range(rounds):
        await asyncio.sleep(0)


def core_fingerprint(core):
    return json.dumps(core.recovery_state(), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


async def push_load(server, item_to_source, rounds=range(1, 6)):
    streams = {sid: await register(server, item_to_source, sid)
               for sid in (0, 1)}
    current = dict(server.core.cache)
    seq = 0
    for round_no in rounds:
        for sid, stream in streams.items():
            for offset, item in enumerate(owned(item_to_source, sid)):
                seq += 1
                if round_no == 1:
                    current[item] = 100.0 + 40.0 * (offset + 1)
                else:
                    wiggle = 0.02 * ((offset + round_no) % 5 - 2)
                    current[item] = current[item] * (1.0 + wiggle)
                await stream.send(protocol.refresh(
                    sid, item, current[item], seq=seq))
        await drain()
    for stream in streams.values():
        stream.close()
    await drain()


class TestJournalTag:
    def test_shared_plan_records_carry_bank_index(self, tmp_path):
        async def check():
            server, _, item_to_source = build(tmp_path)
            server.restore()
            await push_load(server, item_to_source)
            plans = [r for r in server.journal.records() if r["t"] == "plan"]
            assert plans
            assert all(r.get("bank_index") == "shared" for r in plans)
            await server.close()

        run(check())

    def test_flat_plan_records_carry_no_bank_index_key(self, tmp_path):
        async def check():
            server, _, item_to_source = build(tmp_path, bank_index="flat")
            server.restore()
            await push_load(server, item_to_source)
            plans = [r for r in server.journal.records() if r["t"] == "plan"]
            assert plans
            assert all("bank_index" not in r for r in plans)
            await server.close()

        run(check())


class TestSharedCrashRecovery:
    def test_kill9_replay_restores_dynamic_bank_bit_identically(
            self, tmp_path):
        async def check():
            server, _, item_to_source = build(
                tmp_path, journal_kwargs={"snapshot_every": 10,
                                          "fsync": "off"})
            server.restore()
            await push_load(server, item_to_source, rounds=range(1, 4))

            # Mid-run dynamic subscription: qadd records hit the WAL.
            bank = _dynamic_bank(server.core, count=6, distinct=2)
            structures = bank_objects(server.core)
            client = ServiceClient(server.connect_loopback())
            await client.subscribe(definitions=bank)
            assert_edited_in_place(server.core, structures)
            await push_load(server, item_to_source, rounds=range(4, 6))

            assert server.core.dynamic_names == {q.name for q in bank}
            before = core_fingerprint(server.core)
            await server.close(final_snapshot=False)      # the kill
            await client.close()

            revived, _, _ = build(tmp_path, bootstrap=False)
            structures = bank_objects(revived.core)
            recovery = revived.restore()
            assert recovery["records_replayed"] > 0
            assert core_fingerprint(revived.core) == before
            # The dynamic queries came back through qadd replay, as index
            # appends — never an O(bank) rebuild — with no subscriber
            # holding a reference (those died with the old process).
            assert revived.core.dynamic_names == {q.name for q in bank}
            assert_edited_in_place(revived.core, structures)
            assert revived._dynamic_refs == {q.name: 0 for q in bank}
            stats = revived.server_stats()["bank_index"]
            assert stats["queries"] == stats["appends"] == 4 + 6
            await revived.close()

        run(check())

    def test_snapshot_covers_dynamic_queries(self, tmp_path):
        """A graceful close writes a parting snapshot; restoring from it
        alone (zero WAL-tail records) must still revive the dynamic
        queries via the snapshot's ``dynamic_queries`` section."""
        async def check():
            server, _, item_to_source = build(tmp_path)
            server.restore()
            bank = _dynamic_bank(server.core, count=3, distinct=1)
            client = ServiceClient(server.connect_loopback())
            await client.subscribe(definitions=bank)
            await push_load(server, item_to_source, rounds=range(1, 3))
            before = core_fingerprint(server.core)
            await server.close()                 # graceful: snapshot
            await client.close()

            revived, _, _ = build(tmp_path, bootstrap=False)
            recovery = revived.restore()
            assert recovery["records_replayed"] == 0
            assert core_fingerprint(revived.core) == before
            assert revived.core.dynamic_names == {q.name for q in bank}
            await revived.close()

        run(check())

    def test_static_snapshots_stay_byte_identical(self, tmp_path):
        """No dynamic queries → no ``dynamic_queries`` key anywhere in the
        recovery state (flat-format durability is pinned elsewhere; this
        guards the new field's gating)."""
        async def check():
            server, _, item_to_source = build(tmp_path, bank_index="flat")
            server.restore()
            await push_load(server, item_to_source, rounds=range(1, 3))
            assert "dynamic_queries" not in server.core.recovery_state()
            await server.close()

        run(check())


class TestServiceEquivalence:
    def test_flat_and_shared_servers_converge_on_same_values(self):
        async def check():
            results = {}
            for bank_index in ("flat", "shared"):
                server, _, item_to_source = build(bank_index=bank_index)
                await push_load(server, item_to_source)
                results[bank_index] = dict(zip(
                    [q.name for q in server.core.queries],
                    server.core.query_values()))
                await server.close()
            assert set(results["shared"]) == set(results["flat"])
            for name, value in results["flat"].items():
                shared = results["shared"][name]
                assert abs(shared - value) <= 1e-9 * max(1.0, abs(value))

        run(check())
