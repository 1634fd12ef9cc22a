"""Load generator: N sources × M subscribers against a live coordinator.

``run_loadgen`` builds the same deterministic scenario the server was
launched with (same seed → same items, traces and queries on both sides),
spins up one :class:`SourceAgent` per source and M
:class:`ServiceClient` subscribers, replays ``duration`` trace steps
through the DAB filters, then audits the run:

* **throughput** — ticks/sec pushed through the agents' filters;
* **notify latency** — p50/p95/p99 of refresh-sent → notify-received;
* **refresh / recompute counts** — from the server's SNAPSHOT stats;
* **QAB violations** — the final served value of every query is checked
  against the ground truth evaluated at the agents' *current* (not just
  sent) values; fault-free this must be zero, because every unsent value
  is inside its primary DAB by construction (the paper's Theorem 1
  guarantee, exercised end to end over the wire).

The report is returned and, when ``output`` is given, written as JSON —
``benchmarks/results/BENCH_service.json`` in the CI flow.

Three targets: ``host``/``port`` drive a live ``repro serve`` process
over TCP; ``shards > 0`` builds an in-process cluster — agents register
with the *router*, oblivious to sharding, and the served values are
audited at the per-query budget ``B``, the end-to-end check of query
placement and item mirroring — with the subscribers and the auditor
behind a ``brokers``-wide fan-out tier if asked; otherwise one in-process
server.  In process everything rides ``connect_loopback()`` links — same
protocol messages, no sockets, no bytes.
"""

from __future__ import annotations

import asyncio
import json
import time as _time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.exceptions import ReproError
from repro.invariants import check_served
from repro.service.agent import agents_for_scenario
from repro.service.client import ServiceClient, latency_percentiles


async def _run_async(
    node: "Any",
    scenario: "Any",
    item_to_source: Dict[str, int],
    subscriber_count: int,
    duration: int,
    host: Optional[str],
    port: Optional[int],
    clustered: bool,
    brokers: int,
) -> Dict[str, Any]:
    over_tcp = node is None

    async def _attach():
        if over_tcp:
            from repro.service.transports import open_tcp_stream
            return await open_tcp_stream(host, port)
        return node.connect_loopback()

    tier = None
    if clustered:
        await node.start()
    if brokers > 0:
        from repro.service.cluster.broker import BrokerTier

        tier = BrokerTier(node.connect_loopback, brokers=brokers,
                          clock=node.clock)
        await tier.start()

    async def _subscriber_attach():
        return tier.connect_loopback() if tier is not None else await _attach()

    agents = agents_for_scenario(scenario, item_to_source,
                                 timestamp_refreshes=True)
    for agent in agents.values():
        await agent.connect(await _attach())

    subscribers = []
    for _ in range(subscriber_count):
        client = ServiceClient(await _subscriber_attach())
        await client.subscribe("*")
        subscribers.append(client)

    started = _time.perf_counter()
    sent = await asyncio.gather(*[
        agent.replay(scenario.traces, max_steps=duration)
        for agent in agents.values()
    ])
    elapsed = _time.perf_counter() - started

    # Let in-flight shard notifies and user notifies drain before auditing.
    await asyncio.sleep(0.05 if not over_tcp else 0.2)

    auditor = ServiceClient(await _subscriber_attach())
    served = await auditor.subscribe("*")
    stats = auditor.stats_seen
    if tier is not None:
        # The broker serves its cached stats; the audit wants the
        # node's live stats too.
        stats = {"broker": stats, "cluster": node.server_stats()}

    truth = {}
    for agent in agents.values():
        truth.update(agent.values)
    # A fault-free run: nothing may be excused as degraded.
    violations, _, _ = check_served(truth, served, {}, scenario.queries)

    latencies = [sample for client in subscribers for sample in client.latencies]
    ticks = sum(agent.stats["ticks"] for agent in agents.values())
    report = {
        "sources": len(agents),
        "subscribers": subscriber_count,
        "queries": len(scenario.queries),
        "items": len(item_to_source),
        "duration_steps": duration,
        "transport": "tcp" if over_tcp else "loopback",
        "elapsed_seconds": elapsed,
        "ticks": ticks,
        "ticks_per_second": ticks / elapsed if elapsed > 0 else 0.0,
        "refreshes_sent": sum(s for s in sent),
        "refreshes_filtered": sum(agent.stats["refreshes_filtered"]
                                  for agent in agents.values()),
        "notifies_received": sum(client.notifies_received
                                 for client in subscribers),
        "notify_latency_seconds": latency_percentiles(latencies),
        "latency_samples": len(latencies),
        "server_stats": stats,
        "qab_violations": len(violations),
        "qab_violation_detail": violations[:10],
    }
    if clustered:
        decomposition = node.decomposition
        report.update({
            "shards": node.shard_map.shards,
            "active_shards": list(decomposition.active_shards),
            "queries_per_shard": {
                str(sid): count for sid, count
                in decomposition.queries_per_shard.items()},
            "mirrored_items": sum(len(items) for items
                                  in decomposition.mirrored_items.values()),
            "brokers": brokers,
            "broker_stats": tier.stats() if tier is not None else None,
        })

    await auditor.close()
    for client in subscribers:
        await client.close()
    for agent in agents.values():
        await agent.close()
    if tier is not None:
        await tier.close()
    if node is not None:
        await node.close()
    return report


def run_loadgen(
    sources: int = 8,
    queries: int = 100,
    items: int = 40,
    duration: int = 30,
    subscribers: int = 4,
    seed: int = 0,
    algorithm: str = "dual_dab",
    workload: str = "portfolio",
    host: Optional[str] = None,
    port: Optional[int] = None,
    output: Optional[str] = None,
    trace_length: Optional[int] = None,
    shards: int = 0,
    brokers: int = 0,
    journal_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the load generator; see the module docstring for semantics.

    ``duration`` counts trace steps replayed per source.  With
    ``host``/``port`` the scenario is rebuilt locally (the server must
    have been launched with the same ``--queries/--items/--sources/--seed``)
    and driven over TCP; otherwise the target is built in process — with
    ``shards > 0`` a cluster (``journal_dir`` journals its shards), whose
    report also carries ``shards``, ``active_shards``,
    ``queries_per_shard``, ``mirrored_items``, ``brokers`` and
    ``broker_stats``.
    """
    trace_length = max(trace_length or 0, duration + 2)
    over_tcp = host is not None and port is not None
    if (brokers or journal_dir is not None) and (over_tcp or not shards):
        raise ReproError("brokers and journal_dir configure the in-process "
                         "cluster: pass shards >= 1 and no host/port")
    if over_tcp:
        # The live server is authoritative for planning; this side only
        # needs the (same-seed, hence identical) scenario and routing.
        from repro.simulation.source import assign_items_to_sources
        from repro.workloads import scaled_scenario

        scenario = scaled_scenario(
            query_count=queries, item_count=items, trace_length=trace_length,
            source_count=sources, query_kind=workload, seed=seed)
        item_to_source = assign_items_to_sources(
            sorted({v for q in scenario.queries for v in q.variables}),
            sources)
        node = None
    elif shards:
        from repro.service.cluster.router import build_scenario_cluster

        node, scenario, item_to_source = build_scenario_cluster(
            shards=shards, query_count=queries, item_count=items,
            source_count=sources, trace_length=trace_length, seed=seed,
            algorithm=algorithm, workload=workload, journal_dir=journal_dir,
        )
    else:
        from repro.service.server import build_scenario_server

        node, scenario, item_to_source = build_scenario_server(
            query_count=queries, item_count=items, source_count=sources,
            trace_length=trace_length, seed=seed, algorithm=algorithm,
            workload=workload,
        )
    report = asyncio.run(_run_async(
        node=node, scenario=scenario, item_to_source=item_to_source,
        subscriber_count=subscribers, duration=duration,
        host=host, port=port,
        clustered=bool(shards) and not over_tcp, brokers=brokers,
    ))
    report["seed"] = seed
    report["algorithm"] = algorithm
    report["workload"] = workload
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        report["output"] = str(path)
    return report
