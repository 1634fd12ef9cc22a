"""Command-line interface.

Seven subcommands mirror the library's workflow::

    repro plan "x*y : 5" --values x=2,y=2 --rates x=1,y=1 --mu 5
    repro simulate --queries 10 --items 30 --duration 300 --algorithm dual_dab
    repro figures fig5 --queries 5,10 --items 30 --trace-length 201
    repro traces --items 3 --length 10
    repro serve --queries 100 --items 40 --sources 8 --port 7410
    repro agent --port 7410 --duration 300
    repro loadgen --sources 8 --queries 100 --duration 30

``serve``/``agent``/``loadgen`` are the live service layer (DESIGN.md §9):
the server and its peers must be launched with the same
``--queries/--items/--sources/--seed/--workload/--trace-length`` so both
sides derive the same deterministic scenario.  ``loadgen`` probes the
default server address and falls back to a fully in-process run (no
sockets) when nothing is listening.

``python -m repro ...`` works identically.  Every command prints plain
text; exit code 0 on success, 2 on argument errors (argparse convention).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.exceptions import ReproError


def _parse_kv(text: str, label: str) -> Dict[str, float]:
    """Parse ``"x=2,y=3.5"`` into a dict; raises SystemExit(2) on junk."""
    out: Dict[str, float] = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise SystemExit(f"error: {label} expects name=value pairs, got {piece!r}")
        name, _, value = piece.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"error: bad number in {label}: {piece!r}")
    return out


def _parse_int_list(text: str) -> List[int]:
    return [int(p) for p in text.split(",") if p]


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args: argparse.Namespace) -> int:
    from repro.filters import CostModel
    from repro.filters.heuristics import dispatch_planner
    from repro.queries import parse_query

    query = parse_query(args.query, qab=args.qab)
    values = _parse_kv(args.values, "--values")
    missing = [n for n in query.variables if n not in values]
    if missing:
        raise SystemExit(f"error: no values for items: {', '.join(missing)}")
    rates = _parse_kv(args.rates, "--rates")
    model = CostModel(ddm=args.ddm, rates=rates, recompute_cost=args.mu)
    planner = dispatch_planner(model, dual=not args.single_dab,
                               heuristic=args.heuristic)
    plan = planner.plan(query, values)

    print(f"query: {query}")
    print(f"algorithm: {'optimal refresh' if args.single_dab else 'dual-DAB'} "
          f"/ {args.heuristic} (mu={args.mu:g}, ddm={model.ddm.value})")
    print(f"{'item':>10s} {'value':>12s} {'primary b':>12s} {'secondary c':>12s}")
    for item in sorted(plan.primary):
        secondary = plan.secondary[item] if plan.secondary else float("nan")
        print(f"{item:>10s} {values[item]:12.4f} {plan.primary[item]:12.6f} "
              f"{secondary:12.6f}")
    if plan.secondary is not None:
        print(f"estimated recomputation rate R = {plan.recompute_rate:.6f}/tick")
    print(f"estimated refresh rate = "
          f"{model.estimated_refresh_rate(plan.primary):.6f}/tick")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _build_fault_config(args: argparse.Namespace):
    """A FaultConfig from the simulate flags, or None when nothing is set."""
    from repro.simulation import (
        FaultConfig,
        parse_crash_spec,
        parse_delay_spike_spec,
        parse_partition_spec,
    )

    config = FaultConfig(
        loss_rate=args.loss_rate,
        duplicate_rate=args.duplicate_rate,
        crash_windows=parse_crash_spec(args.crash_spec),
        partitions=parse_partition_spec(args.partition_spec),
        delay_spikes=parse_delay_spike_spec(args.delay_spike_spec),
        seed=args.fault_seed,
    )
    return config if config.enabled else None


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments import (
        derive_seed,
        fault_counter_rows,
        format_table,
        run_seed_sweep,
    )
    from repro.simulation import AlgorithmName, SimulationConfig, run_simulation
    from repro.workloads import scaled_scenario

    scenario = scaled_scenario(
        query_count=args.queries, item_count=args.items,
        trace_length=args.duration + 1, source_count=args.sources,
        query_kind=args.workload, seed=args.seed,
    )
    fault_config = _build_fault_config(args)
    config = SimulationConfig(
        queries=scenario.queries, traces=scenario.traces,
        algorithm=args.algorithm, ddm=args.ddm, recompute_cost=args.mu,
        duration=args.duration, source_count=args.sources, seed=args.seed,
        fidelity_interval=args.fidelity_interval, zero_delay=args.zero_delay,
        aao_period=args.aao_period, fault_config=fault_config,
    )
    if args.runs > 1:
        results = run_seed_sweep(config, args.runs, jobs=args.jobs)
        rows = []
        for index, result in enumerate(results):
            m = result.metrics
            rows.append({
                "run": index, "seed": derive_seed(config.seed, index),
                "refreshes": m.refreshes,
                "recomputations": m.recomputations,
                "total_cost": round(m.total_cost, 1),
                "fidelity_loss_%": round(m.fidelity_loss_percent, 3),
                "gp_solves": m.gp_solves,
            })
        print(f"algorithm={args.algorithm} queries={args.queries} "
              f"items={args.items} duration={args.duration}s mu={args.mu:g} "
              f"base_seed={args.seed} runs={args.runs} jobs={args.jobs or 1}")
        print(format_table(rows, "Seed sweep"))
        return 0
    result = run_simulation(config)
    m = result.metrics
    print(f"algorithm={args.algorithm} queries={args.queries} items={args.items} "
          f"duration={args.duration}s mu={args.mu:g} seed={args.seed}")
    print(f"refreshes            {m.refreshes}")
    print(f"recomputations       {m.recomputations}")
    print(f"total cost           {m.total_cost:.0f}")
    print(f"fidelity loss        {m.fidelity_loss_percent:.3f}%")
    print(f"user notifications   {m.user_notifications}")
    print(f"DAB-change messages  {m.dab_change_messages}")
    print(f"GP solves            {m.gp_solves}")
    print(f"wall time            {result.wall_seconds:.2f}s")
    # Patch-ladder stacks only; like the wall time, the percentiles are
    # wall-clock readouts and differ between otherwise identical runs.
    latency = result.recompute_latency
    refresh_only = result.algorithm is AlgorithmName.OPTIMAL_REFRESH
    if latency is not None and refresh_only:
        print(f"plans                patched {latency['patches']}, "
              f"solver {latency['multistart_solves']}")
    elif latency is not None:
        print(f"breach recomputes    patches {latency['patches']}, "
              f"fallbacks {latency['fallbacks']}, "
              f"hit rate {latency['patch_hit_rate']:.2%} "
              f"(re-anchored {latency['reanchors']}, "
              f"multi-start {latency['multistart_solves']})")
        if "p95_ms" in latency:
            print(f"recompute latency    p50 {latency['p50_ms']:.2f}ms  "
                  f"p95 {latency['p95_ms']:.2f}ms  "
                  f"p99 {latency['p99_ms']:.2f}ms")
        if "cold_p50_ms" in latency:
            print(f"first-plan latency   p50 {latency['cold_p50_ms']:.2f}ms "
                  f"over {latency['cold_solves']} plans")
    if fault_config is not None:
        print()
        print(format_table(fault_counter_rows(m), "Fault injection & recovery"))
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (
        format_table,
        run_figure5,
        run_figure6,
        run_figure7,
        run_figure8ab,
        run_figure8c,
        run_sharfman_comparison,
        run_signomial_comparison,
        run_solver_timing,
        series_to_rows,
    )

    counts = tuple(_parse_int_list(args.queries))
    mus = tuple(float(m) for m in args.mus.split(","))
    common = dict(item_count=args.items, trace_length=args.trace_length,
                  seed=args.seed)
    sweep = dict(common, jobs=args.jobs)

    if args.figure == "fig5":
        series = run_figure5(query_counts=counts, mus=mus, **sweep)
        for metric in ("recomputations", "refreshes", "fidelity_loss_percent",
                       "total_cost"):
            print(format_table(series_to_rows(series, metric, "queries"),
                               f"Figure 5 — {metric}"))
            print()
    elif args.figure == "fig6":
        series = run_figure6(query_counts=counts, mus=mus[:2], **sweep)
        for metric in ("recomputations", "refreshes", "total_cost"):
            print(format_table(series_to_rows(series, metric, "queries"),
                               f"Figure 6 — {metric}"))
            print()
    elif args.figure == "fig7":
        series = run_figure7(mus=mus, query_count=counts[0] if counts else 8,
                             **sweep)
        for metric in ("refreshes", "recomputations", "total_cost"):
            print(format_table(series_to_rows(series, metric, "mu"),
                               f"Figure 7 — {metric}"))
            print()
    elif args.figure in ("fig8a", "fig8b"):
        series = run_figure8ab(query_counts=counts, mus=mus[:2],
                               dependent=(args.figure == "fig8b"), **sweep)
        print(format_table(series_to_rows(series, "recomputations", "queries"),
                           f"Figure 8({args.figure[-1]}) — recomputations"))
    elif args.figure == "fig8c":
        series = run_figure8c(query_counts=counts, **common)
        print(format_table(series_to_rows(series, "recomputations", "queries"),
                           "Figure 8(c) — recomputations"))
    elif args.figure == "sharfman":
        print(format_table(run_sharfman_comparison(), "Comparison with [5]"))
    elif args.figure == "signomial":
        rows = run_signomial_comparison(
            query_count=counts[0] if counts else 8,
            item_count=args.items, trace_length=args.trace_length,
            seed=args.seed)
        print(format_table(rows, "Extension: signomial planner vs HH/DS"))
    elif args.figure == "timing":
        timing = run_solver_timing(query_count=counts[0] if counts else 8,
                                   item_count=args.items)
        for key, value in timing.items():
            print(f"{key:30s} {value:10.2f} ms")
    else:  # pragma: no cover - argparse choices prevent this
        raise SystemExit(f"error: unknown figure {args.figure!r}")
    return 0


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def cmd_traces(args: argparse.Namespace) -> int:
    from repro.workloads import paper_registry, paper_traces

    registry = paper_registry(args.items)
    traces = paper_traces(registry, args.length, seed=args.seed)
    names = traces.items
    print("tick," + ",".join(names))
    for tick in range(args.length):
        row = [f"{traces[name].at(tick):.6f}" for name in names]
        print(f"{tick}," + ",".join(row))
    return 0


# ---------------------------------------------------------------------------
# serve / agent / loadgen — the live service layer
# ---------------------------------------------------------------------------

DEFAULT_SERVICE_PORT = 7410


def _service_trace_length(args: argparse.Namespace) -> int:
    """Long enough for both rate estimation and the requested replay."""
    wanted = getattr(args, "duration", 0) + 2
    return max(args.trace_length, wanted)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.journal import Journal
    from repro.service.server import build_scenario_server

    journal = None
    if args.journal:
        journal = Journal(args.journal, fsync=args.fsync,
                          snapshot_every=args.snapshot_every)
    server, scenario, item_to_source = build_scenario_server(
        query_count=args.queries, item_count=args.items,
        source_count=args.sources, trace_length=args.trace_length,
        seed=args.seed, algorithm=args.algorithm, recompute_cost=args.mu,
        workload=args.workload,
        journal=journal, bootstrap=journal is None,
    )
    if journal is not None:
        recovery = server.restore()
        print(f"journal {args.journal}: "
              f"snapshot@{recovery['snapshot_index']}, "
              f"{recovery['records_replayed']} records replayed in "
              f"{recovery['recovery_seconds'] * 1000:.1f}ms "
              f"(fsync={args.fsync})", flush=True)

    async def _serve() -> None:
        host, port = await server.serve_tcp(args.host, args.port)
        print(f"coordinator listening on {host}:{port} "
              f"({len(scenario.queries)} queries, {len(item_to_source)} items, "
              f"{args.sources} sources, algorithm={args.algorithm})",
              flush=True)
        try:
            await asyncio.Event().wait()     # serve until interrupted
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        stats = server.server_stats()
        print(f"\nshutting down: {stats['refreshes']} refreshes, "
              f"{stats['recomputations']} recomputations, "
              f"{stats['notifies_sent']} notifies")
    return 0


def _journal_inspect_cluster(args: argparse.Namespace,
                             shard_dirs) -> int:
    """Per-shard summary for a cluster journal root (``shard-<i>``
    subdirectories, as written by ``repro cluster serve --journal``)."""
    from repro.service.journal import Journal, JournalError

    summaries = {}
    for sid, path in shard_dirs:
        try:
            summaries[sid] = Journal(str(path)).describe(last=args.last)
        except JournalError as error:
            print(f"error: shard {sid}: {error}", file=sys.stderr)
            return 1
    print(f"cluster journal      {args.directory} "
          f"({len(summaries)} shards)")
    header = (f"  {'shard':>5s} {'records':>8s} {'wal_bytes':>10s} "
              f"{'snapshots':>9s} {'tail':>6s} {'torn':>5s}")
    print(header)
    totals = {"records": 0, "wal_bytes": 0, "snapshots": 0, "tail": 0}
    merged_counts: Dict[str, int] = {}
    for sid in sorted(summaries):
        summary = summaries[sid]
        snaps = len(summary["snapshots"])
        print(f"  {sid:>5d} {summary['records']:>8d} "
              f"{summary['wal_bytes']:>10d} {snaps:>9d} "
              f"{summary['replay_tail_records']:>6d} "
              f"{summary['torn_tail_bytes']:>5d}")
        totals["records"] += summary["records"]
        totals["wal_bytes"] += summary["wal_bytes"]
        totals["snapshots"] += snaps
        totals["tail"] += summary["replay_tail_records"]
        for kind, count in summary["records_by_type"].items():
            merged_counts[kind] = merged_counts.get(kind, 0) + count
    print(f"  {'total':>5s} {totals['records']:>8d} "
          f"{totals['wal_bytes']:>10d} {totals['snapshots']:>9d} "
          f"{totals['tail']:>6d}")
    if merged_counts:
        rendered = ", ".join(f"{kind}={count}" for kind, count
                             in sorted(merged_counts.items()))
        print(f"records by type      {rendered}")
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.service.journal import Journal, JournalError

    root = Path(args.directory)
    shard_dirs = sorted(
        (int(path.name.split("-", 1)[1]), path)
        for path in root.glob("shard-*")
        if path.is_dir() and path.name.split("-", 1)[1].isdigit())
    if shard_dirs:
        return _journal_inspect_cluster(args, shard_dirs)
    journal = Journal(args.directory)
    try:
        summary = journal.describe(last=args.last)
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"journal              {summary['directory']}")
    print(f"WAL                  {summary['wal_bytes']} bytes, "
          f"{summary['records']} records"
          + (f" ({summary['torn_tail_bytes']} torn-tail bytes pending "
             f"truncation)" if summary["torn_tail_bytes"] else ""))
    counts = dict(summary["records_by_type"])
    if counts:
        # Canonical kinds first (shown even at zero, so the table shape
        # is stable across journals), then anything else the scan found.
        known = ("refresh", "plan", "aao", "bounds", "qadd", "qdel",
                 "adopt")
        kinds = list(known) + sorted(set(counts) - set(known))
        width = max(len(kind) for kind in kinds)
        total = sum(counts.values())
        print("records by type")
        print(f"  {'kind':<{width}s} {'count':>8s} {'share':>7s}")
        for kind in kinds:
            count = counts.get(kind, 0)
            share = count / total if total else 0.0
            print(f"  {kind:<{width}s} {count:>8d} {share:>6.1%}")
        print(f"  {'total':<{width}s} {total:>8d}")
    for snap in summary["snapshots"]:
        print(f"snapshot             {snap['file']} "
              f"(covers records 0..{snap['record_index']}, "
              f"{snap['bytes']} bytes)")
    print(f"replay tail          {summary['replay_tail_records']} records "
          f"after snapshot@{summary['latest_snapshot_index']}")
    for record in summary["last_records"]:
        print(f"  tail record        {_json.dumps(record, sort_keys=True)}")
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.agent import agents_for_scenario
    from repro.simulation.source import assign_items_to_sources
    from repro.workloads import scaled_scenario

    trace_length = _service_trace_length(args)
    scenario = scaled_scenario(
        query_count=args.queries, item_count=args.items,
        trace_length=trace_length, source_count=args.sources,
        query_kind=args.workload, seed=args.seed,
    )
    used = sorted({v for q in scenario.queries for v in q.variables})
    item_to_source = assign_items_to_sources(used, args.sources)
    agents = agents_for_scenario(scenario, item_to_source,
                                 timestamp_refreshes=True)

    async def _run_all() -> int:
        results = await asyncio.gather(*[
            agent.run(args.host, args.port, scenario.traces,
                      max_steps=args.duration)
            for agent in agents.values()
        ])
        return sum(results)

    sent = asyncio.run(_run_all())
    for source_id, agent in sorted(agents.items()):
        s = agent.stats
        print(f"source {source_id}: {s['ticks']} ticks, "
              f"{s['refreshes_sent']} refreshes sent, "
              f"{s['refreshes_filtered']} filtered, "
              f"{s['reconnects']} reconnects")
    print(f"total refreshes pushed: {sent}")
    return 0


def _probe_tcp(host: str, port: int, timeout: float = 0.5) -> bool:
    import socket

    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen`` and ``repro cluster loadgen``: each parser pins
    the flags only the other one has."""
    from repro.service.loadgen import run_loadgen

    host: Optional[str] = None
    port: Optional[int] = None
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise SystemExit(f"error: --connect expects HOST:PORT, "
                             f"got {args.connect!r}")
        host = host or "127.0.0.1"
    elif not args.in_process and _probe_tcp("127.0.0.1", DEFAULT_SERVICE_PORT):
        host, port = "127.0.0.1", DEFAULT_SERVICE_PORT

    report = run_loadgen(
        sources=args.sources, queries=args.queries, items=args.items,
        duration=args.duration, seed=args.seed,
        algorithm=args.algorithm, workload=args.workload,
        host=host, port=port, output=args.output or None,
        trace_length=args.trace_length, shards=args.shards,
        brokers=args.brokers, journal_dir=args.journal or None,
    )
    clustered = "shards" in report
    if clustered:
        print(f"shards               {report['shards']} "
              f"(active {report['active_shards']})")
        print(f"queries per shard    {report['queries_per_shard']} "
              f"({report['mirrored_items']} mirrored items)")
        if report["brokers"]:
            broker = report["broker_stats"] or {}
            print(f"broker tier          {report['brokers']} brokers, "
                  f"{broker.get('notifies_sent', 0)} notifies fanned out")
    else:
        print(f"transport            {report['transport']}")
    print(f"sources x subs       {report['sources']} x {report['subscribers']}")
    print(f"queries / items      {report['queries']} / {report['items']}")
    print(f"ticks                {report['ticks']} "
          f"({report['ticks_per_second']:.0f}/s)")
    print(f"refreshes sent       {report['refreshes_sent']} "
          f"(filtered {report['refreshes_filtered']})")
    print(f"notifies received    {report['notifies_received']}")
    latency = report["notify_latency_seconds"]
    if latency:
        rendered = ", ".join(f"{k}={v * 1000:.2f}ms"
                             for k, v in sorted(latency.items()))
        print(f"notify latency       {rendered} "
              f"({report['latency_samples']} samples)")
    stats = report.get("server_stats") or {}
    if stats and not clustered:
        print(f"server               {stats.get('recomputations', '?')} "
              f"recomputations, {stats.get('refreshes', '?')} refreshes, "
              f"{stats.get('slow_consumer_evictions', 0)} evictions")
    print(f"QAB violations       {report['qab_violations']}")
    if report.get("output"):
        print(f"report written to    {report['output']}")
    return 1 if report["qab_violations"] else 0


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.cluster.router import build_scenario_cluster

    cluster, scenario, item_to_source = build_scenario_cluster(
        shards=args.shards, query_count=args.queries, item_count=args.items,
        source_count=args.sources, trace_length=args.trace_length,
        seed=args.seed, algorithm=args.algorithm, recompute_cost=args.mu,
        workload=args.workload,
        journal_dir=args.journal or None,
        snapshot_every=args.snapshot_every, fsync=args.fsync,
    )
    decomposition = cluster.decomposition

    async def _serve() -> None:
        host, port = await cluster.serve_tcp(args.host, args.port)
        print(f"cluster router listening on {host}:{port} "
              f"({args.shards} shards, active "
              f"{list(decomposition.active_shards)}, "
              f"{len(scenario.queries)} queries "
              f"[per shard {decomposition.queries_per_shard}, "
              f"{sum(map(len, decomposition.mirrored_items.values()))} "
              f"mirrored items], "
              f"{len(item_to_source)} items, {args.sources} sources, "
              f"algorithm={args.algorithm})", flush=True)
        try:
            await asyncio.Event().wait()     # serve until interrupted
        finally:
            await cluster.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        stats = cluster.server_stats()
        print(f"\nshutting down: {stats['refreshes_routed']} refreshes "
              f"routed, {stats['partial_notifies']} shard notifies, "
              f"{stats['notifies_sent']} notifies")
    return 0


def cmd_chaos_soak(args: argparse.Namespace) -> int:
    from repro.service.soak import run_chaos_soak

    kill_steps = None
    if args.kill_steps:
        try:
            kill_steps = [int(s) for s in args.kill_steps.split(",") if s]
        except ValueError:
            raise SystemExit(f"error: --kill-steps expects comma-separated "
                             f"integers, got {args.kill_steps!r}")
    report = run_chaos_soak(
        schedule=args.schedule,
        queries=args.queries, items=args.items, sources=args.sources,
        seed=args.seed, algorithm=args.algorithm, workload=args.workload,
        output=args.output or None,
        journal_dir=args.journal or None, kill_steps=kill_steps,
        snapshot_every=args.snapshot_every, fsync=args.fsync,
        shards=args.shards,
    )
    print(f"schedule             {report['schedule']} "
          f"({', '.join(report['fault_kinds'])})")
    if report.get("shards"):
        print(f"shards               {report['shards']} "
              f"(active {report['active_shards']}, queries per shard "
              f"{report['queries_per_shard']})")
    print(f"steps                {report['steps']} "
          f"(+{report['tail_steps']} recovery)")
    print(f"fault events         {report['fault_events']} "
          f"{report['fault_counts']}")
    print(f"fault trace digest   {report['fault_trace_digest'][:16]}…")
    print(f"audits               {report['audits']} "
          f"({report['audits_with_degraded']} while degraded)")
    print(f"QAB violations       {report['qab_violations_unexcused']} "
          f"unexcused, {report['qab_violations_excused_degraded']} excused "
          f"(degraded-flagged), {report['degraded_bound_exceeded']} beyond "
          f"their widened bound")
    recovery = report["recovery_steps"]
    if recovery:
        rendered = ", ".join(f"{k}={v:.0f}" for k, v in sorted(recovery.items()))
        print(f"recovery (steps)     {rendered} "
              f"max={report['recovery_steps_max']:.0f} over "
              f"{report['recovery_episodes']} episodes")
    overhead = report["refresh_overhead_per_step"]
    if overhead:
        rendered = ", ".join(f"{k}={v:.0f}" for k, v in sorted(overhead.items()))
        print(f"refreshes per step   {rendered} "
              f"(total {report['refreshes_total']})")
    recovery_section = report.get("coordinator_recovery") or {}
    if recovery_section.get("kills"):
        append = recovery_section.get("journal_append_ms") or {}
        rendered = ", ".join(f"{k}={v:.2f}ms" for k, v in sorted(append.items()))
        print(f"coordinator kills    {recovery_section['kills']} at steps "
              f"{recovery_section.get('kill_steps', [])}: "
              f"{recovery_section['records_replayed_total']} records "
              f"replayed, worst recovery "
              f"{recovery_section['recovery_seconds_max'] * 1000:.1f}ms")
        if rendered:
            print(f"journal append       {rendered}")
    resharding = report.get("resharding")
    if resharding:
        print(f"resharding           {resharding['moves_completed']}/"
              f"{resharding['moves_requested']} moves, "
              f"{resharding['queries_rehomed']} queries re-homed "
              f"(epoch {resharding['final_map_epoch']}, "
              f"{resharding['refreshes_frozen']} refreshes frozen, "
              f"fenced {resharding['frames_rejected_by_fencing']})")
        steps_pct = resharding.get("migration_steps") or {}
        if steps_pct:
            rendered = ", ".join(f"{k}={v:.0f}"
                                 for k, v in sorted(steps_pct.items()))
            print(f"migration (steps)    {rendered}")
        d2r = resharding.get("detection_to_recovery_steps") or {}
        if d2r:
            rendered = ", ".join(f"{k}={v:.0f}" for k, v in sorted(d2r.items()))
            print(f"detect→recover       {rendered} over "
                  f"{resharding['failovers']} auto-failovers")
    if report["final_degraded_queries"]:
        print(f"STILL DEGRADED       {report['final_degraded_queries']}")
    if report.get("output"):
        print(f"report written to    {report['output']}")
    print(f"result               {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Polynomial continuous queries over dynamic data "
                    "(Shah & Ramamritham, ICDE 2008 — reproduction)",
    )
    parser.add_argument("--profile", nargs="?", const="profile.pstats",
                        default=None, metavar="FILE",
                        help="profile the command under cProfile, dump "
                             "stats to FILE (default profile.pstats) and "
                             "print the top 20 functions by cumulative "
                             "time")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="compute DABs for one query")
    plan.add_argument("query", help='e.g. "x*y : 5" or "3 x*y - 2 u*v : 5"')
    plan.add_argument("--qab", type=float, default=None,
                      help="accuracy bound (overrides the ': B' in the query)")
    plan.add_argument("--values", required=True, help="x=2,y=2")
    plan.add_argument("--rates", default="", help="x=1,y=1 (default: 1 each)")
    plan.add_argument("--mu", type=float, default=5.0,
                      help="recomputation cost in messages")
    plan.add_argument("--ddm", choices=["monotonic", "random_walk"],
                      default="monotonic")
    plan.add_argument("--single-dab", action="store_true",
                      help="Optimal Refresh instead of Dual-DAB")
    plan.add_argument("--heuristic", choices=["different_sum", "half_and_half"],
                      default="different_sum")
    plan.set_defaults(func=cmd_plan)

    simulate = sub.add_parser("simulate", help="run a trace-driven simulation")
    simulate.add_argument("--queries", type=int, default=10)
    simulate.add_argument("--items", type=int, default=30)
    simulate.add_argument("--duration", type=int, default=300)
    simulate.add_argument("--sources", type=int, default=8)
    simulate.add_argument("--algorithm", default="dual_dab",
                          choices=["optimal_refresh", "dual_dab", "half_and_half",
                                   "different_sum", "signomial",
                                   "sharfman_baseline", "uniform_baseline",
                                   "aao_t", "laq"])
    simulate.add_argument("--workload", choices=["portfolio", "arbitrage"],
                          default="portfolio")
    simulate.add_argument("--ddm", choices=["monotonic", "random_walk"],
                          default="monotonic")
    simulate.add_argument("--mu", type=float, default=5.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--fidelity-interval", type=int, default=2)
    simulate.add_argument("--zero-delay", action="store_true")
    simulate.add_argument("--aao-period", type=int, default=None)
    simulate.add_argument("--runs", type=int, default=1,
                          help="replicate the run at N derived seeds "
                               "(deterministic per-index derivation)")
    simulate.add_argument("--jobs", type=int, default=None,
                          help="worker processes for --runs > 1 "
                               "(default: serial; results are identical)")
    faults = simulate.add_argument_group(
        "fault injection",
        "inject failures and exercise the recovery protocol "
        "(epochs, leases, ack/retry); all off by default")
    faults.add_argument("--loss-rate", type=float, default=0.0,
                        help="per-message loss probability on every link")
    faults.add_argument("--duplicate-rate", type=float, default=0.0,
                        help="per-message duplicate-delivery probability")
    faults.add_argument("--crash-spec", default="",
                        help='source crash windows, e.g. "2:100:160,5:200:260" '
                             "(source:start:end)")
    faults.add_argument("--partition-spec", default="",
                        help='full-partition windows, e.g. "50:80" (start:end)')
    faults.add_argument("--delay-spike-spec", default="",
                        help='delay-spike windows, e.g. "50:80:10" '
                             "(start:end:factor)")
    faults.add_argument("--fault-seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate)

    figures = sub.add_parser("figures", help="regenerate a paper figure/table")
    figures.add_argument("figure", choices=["fig5", "fig6", "fig7", "fig8a",
                                            "fig8b", "fig8c", "sharfman",
                                            "signomial", "timing"])
    figures.add_argument("--queries", default="5,10",
                         help="comma-separated query counts (x-axis)")
    figures.add_argument("--mus", default="1,5")
    figures.add_argument("--items", type=int, default=30)
    figures.add_argument("--trace-length", type=int, default=201)
    figures.add_argument("--seed", type=int, default=0)
    figures.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the sweep (default: "
                              "serial; results are identical)")
    figures.set_defaults(func=cmd_figures)

    traces = sub.add_parser("traces", help="print synthetic traces as CSV")
    traces.add_argument("--items", type=int, default=3)
    traces.add_argument("--length", type=int, default=10)
    traces.add_argument("--seed", type=int, default=0)
    traces.set_defaults(func=cmd_traces)

    def _scenario_flags(command: argparse.ArgumentParser) -> None:
        """The deterministic-scenario knobs every service peer must agree on."""
        command.add_argument("--queries", type=int, default=100)
        command.add_argument("--items", type=int, default=40)
        command.add_argument("--sources", type=int, default=8)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--workload", choices=["portfolio", "arbitrage"],
                             default="portfolio")
        command.add_argument("--algorithm", default="dual_dab",
                             choices=["optimal_refresh", "dual_dab",
                                      "half_and_half", "different_sum",
                                      "signomial", "sharfman_baseline",
                                      "uniform_baseline", "laq"])
        command.add_argument("--trace-length", type=int, default=301,
                             help="scenario trace length (rate estimation "
                                  "window; grown automatically to cover "
                                  "--duration where applicable)")

    serve = sub.add_parser("serve",
                           help="run the live asyncio coordinator server")
    _scenario_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT)
    serve.add_argument("--mu", type=float, default=5.0,
                       help="recomputation cost in messages")
    serve.add_argument("--journal", default=None, metavar="DIR",
                       help="journal coordinator state to DIR (write-ahead "
                            "log + periodic snapshots); on start, restore "
                            "from the newest snapshot and replay the tail")
    serve.add_argument("--snapshot-every", type=int, default=500,
                       help="compact a snapshot every N journal records")
    serve.add_argument("--fsync", choices=["always", "interval", "off"],
                       default="always",
                       help="journal fsync policy: what a machine crash "
                            "(not just a process kill) can lose")
    serve.set_defaults(func=cmd_serve)

    journal = sub.add_parser("journal",
                             help="inspect an on-disk coordinator journal")
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    inspect = journal_sub.add_parser(
        "inspect", help="summarise a journal directory: WAL records, "
                        "snapshots, replay tail, torn bytes")
    inspect.add_argument("directory", help="the --journal directory")
    inspect.add_argument("--last", type=int, default=5,
                         help="show the final N records")
    inspect.set_defaults(func=cmd_journal)

    agent = sub.add_parser("agent",
                           help="run source agent(s) replaying traces "
                                "against a live coordinator")
    _scenario_flags(agent)
    agent.add_argument("--host", default="127.0.0.1")
    agent.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT)
    agent.add_argument("--duration", type=int, default=300,
                       help="trace steps to replay")
    agent.set_defaults(func=cmd_agent)

    loadgen = sub.add_parser("loadgen",
                             help="drive N sources x M subscribers and "
                                  "audit QAB compliance")
    _scenario_flags(loadgen)
    loadgen.add_argument("--duration", type=int, default=30,
                         help="trace steps each source replays")
    loadgen.add_argument("--connect", default=None, metavar="HOST:PORT",
                         help="drive a live coordinator over TCP (default: "
                              "probe 127.0.0.1:%d, else run in process)"
                              % DEFAULT_SERVICE_PORT)
    loadgen.add_argument("--in-process", action="store_true",
                         help="skip the TCP probe; always run the loopback "
                              "server in process")
    loadgen.add_argument("--output",
                         default="benchmarks/results/BENCH_service.json",
                         help="write the JSON report here ('' to skip)")
    loadgen.set_defaults(func=cmd_loadgen, shards=0, brokers=0, journal=None)

    cluster = sub.add_parser("cluster",
                             help="sharded coordinator cluster: shard "
                                  "router + fan-out broker tier")
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_serve = cluster_sub.add_parser(
        "serve", help="run an N-shard coordinator cluster behind one "
                      "TCP shard router")
    _scenario_flags(cluster_serve)
    cluster_serve.add_argument("--shards", type=int, default=2,
                               help="coordinator shard count (items "
                                    "partition by stable hash; every query "
                                    "lives whole on one home shard and the "
                                    "items it reads are mirrored there)")
    cluster_serve.add_argument("--host", default="127.0.0.1")
    cluster_serve.add_argument("--port", type=int,
                               default=DEFAULT_SERVICE_PORT)
    cluster_serve.add_argument("--mu", type=float, default=5.0,
                               help="recomputation cost in messages")
    cluster_serve.add_argument("--journal", default=None, metavar="DIR",
                               help="journal every shard under "
                                    "DIR/shard-<i> (enables shard "
                                    "failover)")
    cluster_serve.add_argument("--snapshot-every", type=int, default=500)
    cluster_serve.add_argument("--fsync",
                               choices=["always", "interval", "off"],
                               default="always")
    cluster_serve.set_defaults(func=cmd_cluster_serve)

    cluster_loadgen = cluster_sub.add_parser(
        "loadgen", help="drive an in-process shard cluster and audit "
                        "recombined values against full-budget QAB")
    _scenario_flags(cluster_loadgen)
    cluster_loadgen.add_argument("--shards", type=int, default=2)
    cluster_loadgen.add_argument("--duration", type=int, default=30,
                                 help="trace steps each source replays")
    cluster_loadgen.add_argument("--brokers", type=int, default=0,
                                 help="attach subscribers through an "
                                      "N-broker fan-out tier instead of "
                                      "directly to the router")
    cluster_loadgen.add_argument("--journal", default=None, metavar="DIR")
    cluster_loadgen.add_argument("--output", default="",
                                 help="write the JSON report here "
                                      "('' to skip)")
    cluster_loadgen.set_defaults(func=cmd_loadgen, connect=None,
                                 in_process=True)

    soak = sub.add_parser("chaos-soak",
                          help="soak the live service under injected "
                               "wire faults and audit QAB compliance")
    soak.add_argument("--schedule", default="ci",
                      choices=["smoke", "ci", "heavy", "restart", "shards",
                               "reshard"],
                      help="named fault schedule (loss + partition + "
                           "agent crash, increasing intensity; 'restart' "
                           "adds coordinator kill/restore; 'shards' aims "
                           "the kills at cluster shards; 'reshard' crashes "
                           "shards undetected mid-migration and lets the "
                           "health monitor heal them — needs --shards > 1)")
    soak.add_argument("--shards", type=int, default=1,
                      help="run the soak against an N-shard cluster behind "
                           "the shard router (kills then fail over one "
                           "shard at a time)")
    soak.add_argument("--queries", type=int, default=6)
    soak.add_argument("--items", type=int, default=16)
    soak.add_argument("--sources", type=int, default=3)
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument("--workload", choices=["portfolio", "arbitrage"],
                      default="portfolio")
    soak.add_argument("--algorithm", default="dual_dab",
                      choices=["optimal_refresh", "dual_dab",
                               "half_and_half", "different_sum",
                               "signomial", "sharfman_baseline",
                               "uniform_baseline", "laq"])
    soak.add_argument("--journal", default=None, metavar="DIR",
                      help="journal the coordinator to DIR (a temp dir is "
                           "created when kills are requested without one)")
    soak.add_argument("--kill-steps", default=None, metavar="S1,S2,...",
                      help="kill/restore the coordinator at these steps "
                           "(default: the schedule's, e.g. restart=9,24)")
    soak.add_argument("--snapshot-every", type=int, default=50,
                      help="compact a snapshot every N journal records")
    soak.add_argument("--fsync", choices=["always", "interval", "off"],
                      default="always", help="journal fsync policy")
    soak.add_argument("--output",
                      default="benchmarks/results/BENCH_chaos.json",
                      help="write the JSON report here ('' to skip)")
    soak.set_defaults(func=cmd_chaos_soak)

    return parser


def _run_profiled(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return args.func(args)
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(f"\nprofile written to {args.profile}", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.profile is not None:
            return _run_profiled(args)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
