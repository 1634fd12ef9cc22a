"""Write-ahead journal + snapshot/replay crash recovery.

Covers the ISSUE 6 edge cases: a torn final record (crash mid-append)
truncates cleanly on open, a CRC-corrupt *complete* record aborts replay
with a clear error instead of silently skipping it, snapshot+tail replay
reconstructs the pre-crash core state bit-identically, and a server
without a journal behaves exactly as before the feature existed.
"""

import asyncio
import hashlib
import json
import math
import struct
import zlib

import pytest

from repro.filters.assignment import DABAssignment
from repro.service import protocol
from repro.service.journal import (
    WAL_NAME,
    Journal,
    JournalError,
    encode_record,
    plan_from_wire,
    plan_to_wire,
    scan_records,
)
from repro.service.protocol import MessageType, ProtocolError
from repro.service.server import build_scenario_server
from tests.service.nodes import core_fingerprint
from tests.service.test_protocol import stdlib_body


def run(coro):
    return asyncio.run(coro)


def build(tmp_path=None, **kwargs):
    journal = None
    if tmp_path is not None:
        journal = Journal(str(tmp_path), **kwargs.pop("journal_kwargs", {}))
    server, scenario, item_to_source = build_scenario_server(
        query_count=4, item_count=20, source_count=2, trace_length=41,
        seed=1, journal=journal,
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


async def push_load(server, item_to_source, scale=1.0):
    """Registered-source refreshes, some violent enough to break DAB
    windows and force recomputes (plan + notify journal records)."""
    streams = {sid: await register(server, item_to_source, sid)
               for sid in (0, 1)}
    seq = 0
    for round_no in range(1, 4):
        for sid, stream in streams.items():
            for offset, item in enumerate(owned(item_to_source, sid)):
                seq += 1
                value = scale * (100.0 + 40.0 * round_no * (offset + 1))
                await stream.send(
                    protocol.refresh(sid, [item], [value], [seq]))
        await drain()
    for stream in streams.values():
        stream.close()
    await drain()


async def push_tail(server, item_to_source):
    """One more refresh: fewer records than ``snapshot_every``, so they
    stay a WAL tail behind the snapshot the load's last batch cut."""
    stream = await register(server, item_to_source, 0)
    item = owned(item_to_source, 0)[0]
    await stream.send(protocol.refresh(
        0, [item], [server.core.cache[item] * 1.01],
        [server.leases.last_seq[item] + 1]))
    await drain()
    stream.close()
    await drain()


# ---------------------------------------------------------------------------
# record format
# ---------------------------------------------------------------------------

class TestRecordFormat:
    def test_encode_scan_round_trip(self):
        records = [{"t": "refresh", "item": "x0", "value": 1.5, "seq": 3},
                   {"t": "notify", "values": {"q0": 2.0}}]
        blob = b"".join(encode_record(r) for r in records)
        decoded, valid = scan_records(blob)
        assert decoded == records
        assert valid == len(blob)

    def test_torn_tail_is_cut_not_fatal(self):
        blob = encode_record({"t": "refresh", "item": "a", "value": 1.0})
        full = blob + encode_record({"t": "notify", "values": {}})[:-4]
        decoded, valid = scan_records(full)
        assert len(decoded) == 1
        assert valid == len(blob)

    def test_crc_corruption_in_complete_record_aborts(self):
        blob = bytearray(encode_record({"t": "refresh", "item": "a",
                                        "value": 1.0}))
        blob[-2] ^= 0xFF                      # flip a body byte, length intact
        with pytest.raises(JournalError, match="CRC"):
            scan_records(bytes(blob))

    def test_plan_wire_round_trip_including_nan_objective(self):
        plan = DABAssignment(
            primary={"x0": 1.0, "x1": 2.0},
            reference_values={"x0": 10.0, "x1": 20.0},
            recompute_rate=0.25, objective=float("nan"))
        back = plan_from_wire(plan_to_wire(plan))
        assert back.primary == plan.primary
        assert back.reference_values == plan.reference_values
        assert math.isnan(back.objective)


# ---------------------------------------------------------------------------
# journal lifecycle on disk
# ---------------------------------------------------------------------------

class TestJournalOnDisk:
    def test_open_truncates_torn_tail_and_appends_after_it(self, tmp_path):
        journal = Journal(str(tmp_path)).open()
        journal.append({"t": "refresh", "item": "a", "value": 1.0, "seq": 1})
        journal.close()
        with open(tmp_path / "wal.log", "ab") as fh:
            fh.write(encode_record({"t": "refresh", "item": "b",
                                    "value": 2.0, "seq": 2})[:-3])
        reopened = Journal(str(tmp_path)).open()
        assert reopened.truncated_tail_bytes > 0
        assert reopened.record_count == 1
        reopened.append({"t": "refresh", "item": "c", "value": 3.0, "seq": 3})
        assert [r["item"] for r in reopened.records()] == ["a", "c"]
        reopened.close()

    def test_corrupt_middle_record_fails_replay_loudly(self, tmp_path):
        journal = Journal(str(tmp_path)).open()
        for i in range(3):
            journal.append({"t": "refresh", "item": f"x{i}",
                            "value": float(i), "seq": i + 1})
        journal.close()
        wal = tmp_path / "wal.log"
        data = bytearray(wal.read_bytes())
        data[12] ^= 0xFF                      # inside the first record's body
        wal.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC"):
            Journal(str(tmp_path)).open()

    def test_snapshot_digest_falls_back_to_older_intact_one(self, tmp_path):
        journal = Journal(str(tmp_path)).open()
        journal.write_snapshot({"n": 1})
        journal.append({"t": "notify", "values": {}})
        journal.write_snapshot({"n": 2})
        newest = sorted(tmp_path.glob("snapshot-*.json"))[-1]
        newest.write_text(newest.read_text().replace('"n":2', '"n":3'))
        index, state = journal.latest_snapshot()
        assert state == {"n": 1}
        assert index == 0
        journal.close()

    def test_fsync_policies_validated_and_counted(self, tmp_path):
        with pytest.raises(JournalError):
            Journal(str(tmp_path), fsync="sometimes")
        journal = Journal(str(tmp_path / "off"), fsync="off").open()
        journal.append({"t": "notify", "values": {}})
        assert journal.fsyncs == 0
        journal.close()
        journal = Journal(str(tmp_path / "always"), fsync="always").open()
        journal.append({"t": "notify", "values": {}})
        assert journal.fsyncs == 1
        journal.close()

    def test_describe_summarises_offline(self, tmp_path):
        journal = Journal(str(tmp_path)).open()
        journal.append({"t": "refresh", "item": "a", "value": 1.0, "seq": 1})
        journal.write_snapshot({"s": True})
        journal.append({"t": "notify", "values": {"q": 1.0}})
        journal.close()
        summary = Journal(str(tmp_path)).describe(last=1)
        assert summary["records"] == 2
        assert summary["records_by_type"] == {"notify": 1, "refresh": 1}
        assert summary["latest_snapshot_index"] == 1
        assert summary["replay_tail_records"] == 1
        assert summary["last_records"][0]["t"] == "notify"


# ---------------------------------------------------------------------------
# journals written in the stdlib codec's spelling
# ---------------------------------------------------------------------------

def write_stdlib_journal(directory, records, state, snapshot_index):
    """A WAL and one snapshot byte for byte as a stdlib-codec journal
    writes them; returns the snapshot's path."""
    with open(directory / WAL_NAME, "wb") as fh:
        for record in records:
            body = stdlib_body(record)
            fh.write(struct.pack(">II", len(body), zlib.crc32(body)) + body)
    body = stdlib_body(state)
    path = directory / f"snapshot-{snapshot_index:012d}.json"
    path.write_text(json.dumps({
        "record_index": snapshot_index,
        "sha256": hashlib.sha256(body).hexdigest(),
        "state": json.loads(body.decode("utf-8")),
    }, indent=None, separators=(",", ":"), sort_keys=True), encoding="utf-8")
    return path


class TestStdlibSpelledJournal:
    RECORDS = [{"t": "refresh", "item": "é", "value": 1.5e-05, "seq": 1},
               {"t": "notify", "values": {"qü": 1e+22}},
               {"t": "refresh", "item": "x", "value": -0.0, "seq": 2}]
    STATE = {"values": {"é": 1.5e-05, "x": 1e+22}, "bounds": {"qü": 2e-07},
             "n": 3}

    def test_the_spellings_differ(self):
        assert stdlib_body(self.STATE) != protocol.encode_body(self.STATE)
        assert (stdlib_body(self.RECORDS[0])
                != protocol.encode_body(self.RECORDS[0]))

    def test_snapshot_verifies_and_records_replay_equal(self, tmp_path):
        write_stdlib_journal(tmp_path, self.RECORDS, self.STATE, 2)
        journal = Journal(str(tmp_path)).open()
        assert journal.record_count == 3
        assert journal.latest_snapshot() == (2, self.STATE)
        assert list(journal.records()) == self.RECORDS
        assert list(journal.records(2)) == self.RECORDS[2:]
        journal.close()

    def test_snapshot_files_keep_the_stdlib_bytes(self, tmp_path):
        (tmp_path / "stdlib").mkdir()
        expected = write_stdlib_journal(tmp_path / "stdlib", self.RECORDS,
                                        self.STATE, 3)
        journal = Journal(str(tmp_path / "ours")).open()
        for record in self.RECORDS:
            journal.append(record)
        written = journal.write_snapshot(self.STATE)
        journal.close()
        assert written.read_bytes() == expected.read_bytes()

    def test_unencodable_state_still_refused(self, tmp_path):
        import numpy

        journal = Journal(str(tmp_path)).open()
        for state in ({"x": math.nan}, {"x": numpy.int64(1)}):
            with pytest.raises(ProtocolError, match="unencodable"):
                journal.write_snapshot(state)
        journal.close()

    def test_server_restores_from_a_respelled_journal(self, tmp_path):
        async def check():
            server, _, item_to_source = build(
                tmp_path, journal_kwargs={"snapshot_every": 10,
                                          "fsync": "off"})
            server.restore()
            await push_load(server, item_to_source)
            await push_tail(server, item_to_source)
            before = core_fingerprint(server.core)
            await server.close(final_snapshot=False)

            # Re-spell the WAL as the stdlib codec writes it; the
            # snapshot files are already the stdlib codec's bytes.
            wal = tmp_path / WAL_NAME
            records, _ = scan_records(wal.read_bytes())
            snapshot_index, _ = Journal(str(tmp_path)).latest_snapshot()
            with open(wal, "wb") as fh:
                for record in records:
                    body = stdlib_body(record)
                    fh.write(struct.pack(">II", len(body),
                                         zlib.crc32(body)) + body)

            revived, _, _ = build(tmp_path)
            recovery = revived.restore()
            assert recovery["snapshot_index"] == snapshot_index
            assert recovery["records_replayed"] == (len(records)
                                                   - snapshot_index) > 0
            assert core_fingerprint(revived.core) == before
            await revived.close()

        run(check())


# ---------------------------------------------------------------------------
# crash recovery end to end
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_snapshot_plus_tail_replay_is_bit_identical(self, tmp_path):
        async def check():
            server, _, item_to_source = build(
                tmp_path, journal_kwargs={"snapshot_every": 10,
                                          "fsync": "off"})
            server.restore()
            await push_load(server, item_to_source)
            await push_tail(server, item_to_source)
            assert server.core.plans          # recomputes happened
            before = core_fingerprint(server.core)
            seqs_before = dict(server.leases.last_seq)
            # the kill: no parting snapshot, recovery is WAL-tail replay
            await server.close(final_snapshot=False)

            revived, _, _ = build(tmp_path)
            recovery = revived.restore()
            assert recovery["records_replayed"] > 0
            assert core_fingerprint(revived.core) == before
            assert revived.leases.last_seq == seqs_before
            await revived.close()

        run(check())

    def test_restart_resumes_serving_and_dedup_survives(self, tmp_path):
        async def check():
            server, _, item_to_source = build(tmp_path)
            server.restore()
            await push_load(server, item_to_source)
            values_before = dict(zip(
                [q.name for q in server.core.queries],
                server.core.query_values()))
            await server.close(final_snapshot=False)

            revived, _, _ = build(tmp_path)
            revived.restore()
            stream = await register(revived, item_to_source, 0)
            item = owned(item_to_source, 0)[0]
            stale = revived.leases.last_seq[item]     # recovered high-water mark
            await stream.send(protocol.refresh(0, [item], [-9e9], [stale]))
            await drain()
            assert revived.stats["refreshes_rejected_stale_seq"] == 1
            values_after = dict(zip(
                [q.name for q in revived.core.queries],
                revived.core.query_values()))
            assert values_after == values_before
            stream.close()
            await revived.close()

        run(check())

    def test_second_restore_replays_the_parting_snapshot(self, tmp_path):
        async def check():
            server, _, item_to_source = build(tmp_path)
            server.restore()
            await push_load(server, item_to_source)
            before = core_fingerprint(server.core)
            await server.close()               # graceful: parting snapshot

            revived, _, _ = build(tmp_path)
            recovery = revived.restore()
            assert recovery["records_replayed"] == 0   # snapshot covers all
            assert core_fingerprint(revived.core) == before
            await revived.close()

        run(check())

    def test_unknown_record_type_aborts_restore(self, tmp_path):
        journal = Journal(str(tmp_path)).open()
        journal.append({"t": "gibberish"})
        journal.close()

        async def check():
            server, _, _ = build(tmp_path)
            with pytest.raises(JournalError, match="gibberish"):
                server.restore()
            await server.close()

        run(check())

    def test_restore_guards(self, tmp_path):
        async def check():
            plain, _, _ = build()
            with pytest.raises(JournalError, match="no journal"):
                plain.restore()
            await plain.close()
            journaled, _, _ = build(tmp_path)
            journaled.restore()
            with pytest.raises(JournalError, match="twice"):
                journaled.restore()
            await journaled.close()

        run(check())


# ---------------------------------------------------------------------------
# the hard no-op guarantee
# ---------------------------------------------------------------------------

class TestNoJournalNoOp:
    def test_fresh_journal_dir_matches_journal_less_server(self, tmp_path):
        async def check():
            plain, _, item_to_source = build()
            await push_load(plain, item_to_source)
            plain_state = core_fingerprint(plain.core)
            plain_stats = plain.server_stats()
            await plain.close()

            journaled, _, item_to_source = build(tmp_path)
            journaled.restore()                # fresh dir: bootstrap path
            await push_load(journaled, item_to_source)
            assert core_fingerprint(journaled.core) == plain_state
            j_stats = journaled.server_stats()
            j_stats.pop("journal")
            j_stats.pop("last_recovery")
            assert j_stats == plain_stats
            await journaled.close()

        run(check())

    def test_journal_less_stats_have_no_journal_section(self):
        async def check():
            server, _, _ = build()
            stats = server.server_stats()
            assert "journal" not in stats
            assert "last_recovery" not in stats
            await server.close()

        run(check())
