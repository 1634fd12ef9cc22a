"""A dynamic bank under the write-ahead journal.

Two durability contracts:

1. **Kill-9 replay bit-identity** — snapshot + WAL-tail replay
   reconstructs the pre-crash core state fingerprint-identically,
   *including dynamically-subscribed queries* (``qadd`` records and the
   snapshot's ``dynamic_queries`` section), as row appends to the bank
   that was there.
2. **Old journals still restore** — servers that ran the retired
   ``shared`` bank index stamped ``"bank_index": "shared"`` on every
   ``plan`` record; the stamp is gone from the writer only, and such a
   WAL replays here with it ignored.
"""

import asyncio
import json

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.journal import Journal, encode_record
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from tests.service.test_bank_subscribe import (
    _dynamic_bank,
    assert_edited_in_place,
    bank_objects,
)


def run(coro):
    return asyncio.run(coro)


def build(tmp_path=None, bootstrap=True, **kwargs):
    journal = None
    if tmp_path is not None:
        journal = Journal(str(tmp_path), **kwargs.pop("journal_kwargs", {}))
    server, scenario, item_to_source = build_scenario_server(
        query_count=4, item_count=20, source_count=2, trace_length=41,
        seed=1, journal=journal, bootstrap=bootstrap and journal is None,
        **kwargs)
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
            # The dynamic queries came back through qadd replay, as row
            # appends — never an O(bank) rebuild — with no subscriber
            # holding a reference (those died with the old process).
            assert revived.core.dynamic_names == {q.name for q in bank}
            assert_edited_in_place(revived.core, structures)
            assert revived._dynamic_refs == {q.name: 0 for q in bank}
            assert len(revived.core.queries) == len(revived.core._bank) == 4 + 6
            replayed = list(revived.journal.records())
            assert sum(r["t"] == "qadd" for r in replayed) == 6
            assert not any(r["t"] == "qdel" for r in replayed)
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
        recovery state (the journal format is pinned elsewhere; this
        guards the field's gating)."""
        async def check():
            server, _, item_to_source = build(tmp_path)
            server.restore()
            await push_load(server, item_to_source, rounds=range(1, 3))
            assert "dynamic_queries" not in server.core.recovery_state()
            await server.close()

        run(check())


class TestOldJournals:
    def test_shared_mode_wal_restores_with_the_tag_ignored(self, tmp_path):
        async def check():
            server, _, item_to_source = build(
                tmp_path, journal_kwargs={"fsync": "off"})
            server.restore()
            bank = _dynamic_bank(server.core, count=4, distinct=2)
            client = ServiceClient(server.connect_loopback())
            await client.subscribe(definitions=bank)
            server._maybe_snapshot(force=True)
            snapshot_index, snapshot = server.journal.latest_snapshot()
            assert len(snapshot["core"]["dynamic_queries"]) == 4
            await push_load(server, item_to_source, rounds=range(1, 4))
            before = core_fingerprint(server.core)
            await server.close(final_snapshot=False)      # the kill
            await client.close()

            # What this build writes carries no tag ...
            records = list(server.journal.records())
            tail_plans = [r for r in records[snapshot_index:]
                          if r["t"] == "plan"]
            assert tail_plans
            assert not any("bank_index" in r for r in records)
            # ... what a shared-mode server wrote did, on every plan.
            for record in records:
                if record["t"] == "plan":
                    record["bank_index"] = "shared"
            server.journal.wal_path.write_bytes(
                b"".join(encode_record(r) for r in records))

            revived, _, _ = build(tmp_path, bootstrap=False)
            recovery = revived.restore()
            assert recovery["snapshot_index"] == snapshot_index
            assert recovery["records_replayed"] == len(
                records) - snapshot_index
            core = revived.core
            assert core_fingerprint(core) == before
            assert core.dynamic_names == {q.name for q in bank}
            assert [value.hex() for value in core.query_values()] == [
                query.evaluate(core.cache).hex() for query in core.queries]
            await revived.close()

        run(check())
