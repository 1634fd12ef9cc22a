"""Sharded-cluster throughput, message overhead, and failover latency.

Runs the ``repro cluster loadgen`` flow fully in process — protocol
messages over ``connect_loopback()`` links (no bytes: every hop here is
inside one process), the same
:class:`~repro.service.cluster.router.ClusterCoordinator` the TCP path
uses — and records, in ``benchmarks/results/BENCH_cluster.json``:

* ``points``: per-shard-count loadgen reports (ticks/sec, per-shard
  recompute counts, per-shard tick cost);
* ``message_overhead``: refreshes the sources sent in each sharded run
  relative to the ``shards=1`` baseline — a count, gated at ≤ 1.01:
  every query is planned whole on one home shard, so the sources are
  programmed with one coordinator's bounds at every shard count;
* ``broker_notify``: notify-latency percentiles with subscribers
  attached through the fan-out broker tier;
* ``failover``: one journal-backed kill/restore cycle — recovery wall
  time, records replayed, and a post-restore full-budget audit;
* ``resharding``: live item migrations under refresh traffic —
  migration wall-time percentiles, heartbeat detection-to-recovery
  percentiles for an auto-failover, and the epoch-fence reject counts.

Every loadgen run must finish with **zero QAB violations** and the
post-failover audit must pass; either failing fails the bench.

``REPRO_BENCH_CLUSTER=smoke`` (the CI job) runs reduced points and
leaves the committed full-scale entries untouched.
"""

from __future__ import annotations

import asyncio
import json
import os
import time as _time

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster.router import build_scenario_cluster
from repro.service.cluster.supervisor import ShardSupervisor
from repro.service.loadgen import run_loadgen

RESULT_NAME = "BENCH_cluster.json"

POINTS = {
    "smoke": dict(sources=4, queries=20, items=24, duration=15,
                  subscribers=2),
    "full": dict(sources=8, queries=100, items=40, duration=30,
                 subscribers=4),
}

MODE = os.environ.get("REPRO_BENCH_CLUSTER", "full")
POINT = POINTS["smoke"] if MODE == "smoke" else POINTS["full"]
SHARD_COUNTS = (1, 2) if MODE == "smoke" else (1, 2, 4)
FAILOVER_STEPS = 12 if MODE == "smoke" else 30


def _load(path):
    return json.loads(path.read_text()) if path.exists() else {}


def _store(path, existing):
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _trimmed(report):
    """The report minus the bulky nested stats blobs."""
    keep = ("shards", "active_shards", "queries_per_shard",
            "mirrored_items", "brokers", "sources", "subscribers",
            "queries", "items", "duration_steps", "elapsed_seconds",
            "ticks", "ticks_per_second", "refreshes_sent",
            "refreshes_filtered", "notifies_received",
            "notify_latency_seconds", "latency_samples", "qab_violations")
    return {key: report[key] for key in keep}


def _per_shard_costs(report):
    """Per-shard recompute/refresh counts plus amortised tick cost."""
    cluster_stats = report["server_stats"]
    if isinstance(cluster_stats.get("cluster"), dict):
        cluster_stats = cluster_stats["cluster"]   # broker runs nest them
    shards = cluster_stats.get("shards", {})
    ticks = max(report["ticks"], 1)
    out = {}
    for sid, stats in sorted(shards.items()):
        out[sid] = {
            "recomputations": stats.get("recomputations", 0),
            "refreshes_received": stats.get("refreshes_received", 0),
            "seconds_per_tick": report["elapsed_seconds"] / ticks,
        }
    return out


def test_bench_cluster_points(results_dir):
    path = results_dir / RESULT_NAME
    existing = _load(path)
    points = existing.get("points", {})
    baseline_sent = None
    overhead = existing.get("message_overhead", {})
    for shards in SHARD_COUNTS:
        report = run_loadgen(shards=shards, seed=0, **POINT)
        assert report["qab_violations"] == 0, report["qab_violation_detail"]
        assert report["ticks"] > 0 and report["refreshes_sent"] > 0
        assert set(report["queries_per_shard"]) == {
            str(sid) for sid in report["active_shards"]}
        entry = _trimmed(report)
        entry["per_shard"] = _per_shard_costs(report)
        points[f"shards_{shards}"] = entry
        if shards == 1:
            baseline_sent = report["refreshes_sent"]
        else:
            ratio = report["refreshes_sent"] / baseline_sent
            assert ratio <= 1.01, (shards, report["refreshes_sent"],
                                   baseline_sent)
            overhead[f"shards_{shards}_vs_1"] = {
                "refreshes_sent": report["refreshes_sent"],
                "baseline_refreshes_sent": baseline_sent,
                "ratio": ratio,
            }
    existing["points"] = points
    existing["message_overhead"] = overhead
    existing.pop("cross_shard_overhead", None)   # the stopwatch it replaced
    _store(path, existing)
    summary = ", ".join(
        f"{name}: {points[name]['ticks_per_second']:.0f} ticks/s"
        for name in sorted(points))
    print(f"\ncluster bench ({MODE}): {summary} -> {path}")


def test_bench_cluster_broker_notify(results_dir):
    """Notify percentiles with the fan-out tier interposed."""
    path = results_dir / RESULT_NAME
    existing = _load(path)
    report = run_loadgen(shards=2, brokers=2, seed=0, **POINT)
    assert report["qab_violations"] == 0, report["qab_violation_detail"]
    existing["broker_notify"] = {
        "brokers": report["brokers"],
        "subscribers": report["subscribers"],
        "notifies_received": report["notifies_received"],
        "latency_samples": report["latency_samples"],
        "percentiles_seconds": report["notify_latency_seconds"],
        "broker_stats": report["broker_stats"],
    }
    _store(path, existing)
    pcts = report["notify_latency_seconds"]
    rendered = ", ".join(f"{k}={v * 1e3:.2f}ms"
                        for k, v in sorted(pcts.items())) or "no samples"
    print(f"\nbroker notify ({MODE}): {rendered} -> {path}")


def test_bench_cluster_failover(results_dir, tmp_path):
    """One journal-backed kill/restore cycle under live refreshes."""
    path = results_dir / RESULT_NAME
    existing = _load(path)
    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=2, query_count=POINT["queries"], item_count=POINT["items"],
        source_count=POINT["sources"], trace_length=2 * FAILOVER_STEPS + 4,
        seed=0, journal_dir=str(tmp_path / "wal"))
    supervisor = ShardSupervisor(cluster)

    async def body():
        await cluster.start()
        streams = {}
        for source_id in sorted(set(item_to_source.values())):
            owned = sorted(n for n, s in item_to_source.items()
                           if s == source_id)
            stream = cluster.connect_loopback()
            await stream.send(protocol.register_source(source_id, owned))
            await stream.receive()
            streams[source_id] = stream
        seq = {}

        async def push(steps):
            for step in steps:
                for item in sorted(item_to_source):
                    seq[item] = seq.get(item, 0) + 1
                    await streams[item_to_source[item]].send(protocol.refresh(
                        item_to_source[item], [item],
                        [scenario.traces[item].at(step)], [seq[item]]))
                for _ in range(8):
                    await asyncio.sleep(0)

        await push(range(1, FAILOVER_STEPS + 1))
        victim = cluster.decomposition.active_shards[0]
        started = _time.perf_counter()
        record = await supervisor.kill_and_restore(victim)
        failover_wall = _time.perf_counter() - started
        last = 2 * FAILOVER_STEPS + 1
        await push(range(FAILOVER_STEPS + 1, last))

        client = ServiceClient(cluster.connect_loopback())
        served = await client.subscribe("*")
        truth_inputs = {item: scenario.traces[item].at(last - 1)
                        for item in item_to_source}
        audit_passed = all(
            abs(served[q.name] - q.evaluate(truth_inputs))
            <= q.qab * (1.0 + 1e-9) + 1e-12
            for q in scenario.queries)
        await client.close()
        for stream in streams.values():
            stream.close()
        await cluster.close()
        return record, failover_wall, audit_passed

    record, failover_wall, audit_passed = asyncio.run(body())
    assert audit_passed
    assert record["records_replayed"] > 0
    existing["failover"] = {
        "shards": 2,
        "killed_shard": record["shard"],
        "recovery_seconds": record["recovery_seconds"],
        "failover_seconds": record["failover_seconds"],
        "failover_wall_seconds": failover_wall,
        "records_replayed": record["records_replayed"],
        "snapshot_loaded": record["snapshot_loaded"],
        "audit_passed": audit_passed,
    }
    _store(path, existing)
    print(f"\nfailover ({MODE}): shard {record['shard']} restored in "
          f"{record['recovery_seconds'] * 1e3:.1f}ms "
          f"({record['records_replayed']} records) -> {path}")


def test_bench_cluster_resharding(results_dir, tmp_path):
    """Live migrations + one heartbeat-detected auto-failover."""
    from repro.service.client import latency_percentiles
    from repro.service.cluster.health import ShardHealthMonitor
    from repro.service.cluster.migration import ShardMigrator

    path = results_dir / RESULT_NAME
    existing = _load(path)
    moves_wanted = 2 if MODE == "smoke" else 4
    now = [0.0]
    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=3, query_count=POINT["queries"], item_count=POINT["items"],
        source_count=POINT["sources"], trace_length=4 * FAILOVER_STEPS + 8,
        seed=0, journal_dir=str(tmp_path / "wal"), clock=lambda: now[0])
    supervisor = ShardSupervisor(cluster)
    monitor = ShardHealthMonitor(cluster, supervisor, clock=lambda: now[0],
                                 deadline=2.0, max_misses=2)
    migrator = ShardMigrator(cluster, clock=lambda: now[0])

    async def body():
        await cluster.start()
        streams = {}
        for source_id in sorted(set(item_to_source.values())):
            owned = sorted(n for n, s in item_to_source.items()
                           if s == source_id)
            stream = cluster.connect_loopback()
            await stream.send(protocol.register_source(source_id, owned))
            await stream.receive()
            streams[source_id] = stream
        seq = {}
        step = [0]

        async def push_step():
            step[0] += 1
            now[0] += 1.0
            for item in sorted(item_to_source):
                seq[item] = seq.get(item, 0) + 1
                await streams[item_to_source[item]].send(protocol.refresh(
                    item_to_source[item], [item],
                    [scenario.traces[item].at(step[0])], [seq[item]]))
            for _ in range(8):
                await asyncio.sleep(0)

        for _ in range(FAILOVER_STEPS):
            await push_step()

        # Phase 1: migrate items one at a time under live refreshes.
        active = cluster.decomposition.active_shards
        items = sorted(item_to_source)[:moves_wanted]
        moves = {
            item: next(s for s in active
                       if s != cluster.shard_map.shard_of(item))
            for item in items}
        migrator.start(moves)
        while migrator.active:
            await migrator.tick()
            await push_step()

        # Phase 2: crash a shard; only the heartbeat detector notices.
        victim = active[0]
        await supervisor.crash(victim)
        while not monitor.events:
            await push_step()
            await monitor.poll()

        for _ in range(FAILOVER_STEPS):
            await push_step()

        client = ServiceClient(cluster.connect_loopback())
        served = await client.subscribe("*")
        truth_inputs = {item: scenario.traces[item].at(step[0])
                        for item in item_to_source}
        audit_passed = all(
            abs(served[q.name] - q.evaluate(truth_inputs))
            <= q.qab * (1.0 + 1e-9) + 1e-12
            for q in scenario.queries)
        await client.close()
        for stream in streams.values():
            stream.close()
        await cluster.close()
        return audit_passed

    audit_passed = asyncio.run(body())
    assert audit_passed
    completed = [r for r in migrator.records if r["outcome"] == "completed"]
    assert len(completed) == (migrator.stats["moves_requested"]
                              - migrator.stats["moves_noop"])
    assert migrator.stats["moves_abandoned"] == 0
    assert monitor.events, "auto-failover never detected/recovered"
    migration_ms = sorted(r["migration_seconds"] * 1e3 for r in completed)
    detection = sorted(e["detection_to_recovery"] for e in monitor.events)
    existing["resharding"] = {
        "shards": 3,
        "moves_requested": migrator.stats["moves_requested"],
        "moves_completed": migrator.stats["moves_completed"],
        "moves_abandoned": migrator.stats["moves_abandoned"],
        "final_map_epoch": cluster.map_epoch,
        "migration_ms": latency_percentiles(migration_ms,
                                            (50.0, 95.0, 99.0)),
        "detection_to_recovery_steps": latency_percentiles(
            detection, (50.0, 95.0)),
        "auto_failovers": monitor.stats["failovers"],
        "frames_rejected_by_fencing": {
            "router": cluster.stats["fenced_frames_rejected"],
            "shards": sum(
                srv.stats["refreshes_rejected_stale_map_epoch"]
                for srv in cluster.shards.values()),
        },
        "refreshes_frozen": cluster.stats["refreshes_frozen"],
        "audit_passed": audit_passed,
    }
    _store(path, existing)
    pcts = existing["resharding"]["migration_ms"]
    rendered = ", ".join(f"{k}={v:.2f}ms" for k, v in sorted(pcts.items()))
    print(f"\nresharding ({MODE}): {len(completed)} moves ({rendered}), "
          f"detect->recover p95="
          f"{existing['resharding']['detection_to_recovery_steps'].get('p95')}"
          f" steps -> {path}")
