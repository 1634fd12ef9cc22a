"""Patch-first service: stats plane, journal format, kill-9 recovery.

The coordinator surfaces the patch/fallback/residual counters through
``server_stats()``, journals plans in the one (pre-delta) record format —
while still replaying journals whose plan records carry the retired
``"mode"`` stamp — and, the hard one, restores deterministically after a
kill -9: snapshot + WAL-tail replay reconstructs the pre-crash core state
bit-identically even though the plans were a mix of Newton patches and
full-solve fallbacks (replay installs journaled plans; it never re-runs a
solver).
"""

import asyncio
import functools
import json

import pytest

from repro.cli import main as cli_main
from repro.filters import dual_dab
from repro.filters.delta_recompute import newton_patch
from repro.service import protocol
from repro.service.journal import Journal
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server


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


async def push_load(server, item_to_source, jitter=0.02):
    """Rounds of gentle multiplicative drift (so Newton patches actually
    accept) around a violent opening round (so fallbacks happen too)."""
    streams = {sid: await register(server, item_to_source, sid)
               for sid in (0, 1)}
    current = dict(server.core.cache)
    seq = 0
    for round_no in range(1, 6):
        for sid, stream in streams.items():
            for offset, item in enumerate(owned(item_to_source, sid)):
                seq += 1
                if round_no == 1:
                    current[item] = 100.0 + 40.0 * (offset + 1)
                else:
                    wiggle = jitter * ((offset + round_no) % 5 - 2)
                    current[item] = current[item] * (1.0 + wiggle)
                await stream.send(protocol.refresh(
                    sid, item, current[item], seq=seq))
        await drain()
    for stream in streams.values():
        stream.close()
    await drain()


class TestStatsAndJournalTag:
    def test_stats_plane_exposes_delta_counters(self):
        async def check():
            server, _, item_to_source = build()
            await push_load(server, item_to_source)
            stats = server.server_stats()["delta_recompute"]
            assert stats["patches"] + stats["fallbacks"] > 0
            assert stats["cold_solves"] >= 1
            assert stats["max_residual"] >= stats["last_residual"] >= 0.0
            assert isinstance(stats["declines"], dict)
            await server.close()

        run(check())

    def test_plan_records_tagged_with_delta_mode(self, tmp_path, capsys):
        """Journals written under the retired ``--recompute-mode delta``
        carry ``"mode": "delta"`` on every plan record.  Nothing reads the
        key: a WAL with it restores to the same state as one without, and
        ``repro journal inspect`` summarises it."""
        async def check():
            server, _, item_to_source = build(
                tmp_path / "live", journal_kwargs={"fsync": "off"})
            server.restore()
            await push_load(server, item_to_source)
            records = list(server.journal.records())
            before = core_fingerprint(server.core)
            await server.close(final_snapshot=False)
            assert any(record["t"] == "plan" for record in records)

            for label in ("tagged", "plain"):
                wal = Journal(str(tmp_path / label), fsync="off").open()
                for record in records:
                    if label == "tagged" and record["t"] == "plan":
                        record = {**record, "mode": "delta"}
                    wal.append(record)
                wal.close()
                revived, _, _ = build(tmp_path / label, bootstrap=False)
                recovery = revived.restore()
                assert recovery["records_replayed"] == len(records)
                assert core_fingerprint(revived.core) == before
                await revived.close()

        run(check())
        assert cli_main(["journal", "inspect", str(tmp_path / "tagged"),
                         "--last", "3"]) == 0
        assert "plan" in capsys.readouterr().out

    def test_full_mode_plan_records_carry_no_mode_key(self, tmp_path):
        """The one pipeline writes the pre-delta (full-mode) plan record,
        patched plan or not: no mode stamp."""
        async def check():
            server, _, item_to_source = build(tmp_path)
            server.restore()
            await push_load(server, item_to_source)
            assert server.server_stats()["delta_recompute"]["patches"] > 0
            plans = [r for r in server.journal.records() if r["t"] == "plan"]
            assert plans
            assert all(set(r) == {"t", "q", "plan"} for r in plans)
            await server.close()

        run(check())


class TestDeltaCrashRecovery:
    def test_kill9_replay_restores_delta_state_bit_identically(self, tmp_path):
        async def check():
            server, _, item_to_source = build(
                tmp_path, journal_kwargs={"snapshot_every": 10,
                                          "fsync": "off"})
            server.restore()
            await push_load(server, item_to_source)
            live = server.server_stats()["delta_recompute"]
            assert live["patches"] > 0        # patches actually happened
            assert server.core.plans
            before = core_fingerprint(server.core)
            await server.close(final_snapshot=False)   # the kill

            revived, _, _ = build(tmp_path, bootstrap=False)
            recovery = revived.restore()
            assert recovery["records_replayed"] > 0
            assert core_fingerprint(revived.core) == before
            # Replay installs journaled plans without re-running any
            # solver: the revived planner has no patch/fallback history.
            replayed = revived.server_stats()["delta_recompute"]
            assert replayed["patches"] == 0 and replayed["fallbacks"] == 0
            await revived.close()

        run(check())

    def test_delta_and_full_servers_converge_on_same_values(self):
        """The service-level equivalence check: the same load through a
        patching server and through one whose every patch declines
        (``newton_patch`` at ``kkt_tol=0``: each breach gets the full
        multi-start solve)
        yields the same query values (plans agree to solver tolerance;
        values are exact)."""
        async def check():
            results = {}
            for label in ("full", "delta"):
                server, _, item_to_source = build()
                with pytest.MonkeyPatch.context() as patch:
                    if label == "full":
                        patch.setattr(dual_dab, "newton_patch",
                                      functools.partial(newton_patch,
                                                        kkt_tol=0.0))
                    await push_load(server, item_to_source)
                stats = server.server_stats()["delta_recompute"]
                if label == "full":
                    assert stats["patches"] == 0 < stats["fallbacks"]
                else:
                    assert stats["patches"] > 0
                results[label] = dict(zip(
                    [q.name for q in server.core.queries],
                    server.core.query_values()))
                await server.close()
            assert results["delta"] == results["full"]

        run(check())
