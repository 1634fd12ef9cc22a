"""Metric names, the one percentile routine, and the printed report.

Every timing in the benchmark goes through :func:`percentile`, which
refuses to report a tail it cannot support: a percentile is given only
when at least :data:`TAIL_SAMPLES` samples lie beyond it, and a median
only from :data:`MEDIAN_SAMPLES` samples up.  A metric that fails the
gate prints ``n/a (n=…)`` instead of a number (the legacy
``BENCH_service.json`` p99 came from 24 samples).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from . import calibrate

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10
#: Samples a median needs.
MEDIAN_SAMPLES = 5
#: Tail percentiles tried, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: The latency limit behind ``notify_on_time_share``: ~8x the undisturbed
#: median on ``steady_fanout``, and shorter than any blocking GP solve
#: (>= 30 ms on the seed), so every NOTIFY that queued behind a solve
#: misses it.
NOTIFY_LIMIT_SECONDS = 0.020


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """The ``p``-th percentile by linear interpolation, or ``None`` when
    the sample cannot support it (see the module docstring)."""
    n = len(samples)
    if n < MEDIAN_SAMPLES or (p > 50.0 and n * (1.0 - p / 100.0) < TAIL_SAMPLES):
        return None
    ordered = sorted(samples)
    rank = (n - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(samples: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(p, value)`` for the highest :data:`LADDER` percentile the sample
    supports; ``(None, None)`` when it supports none."""
    for p in LADDER:
        value = percentile(samples, p)
        if value is not None:
            return p, value
    return None, None


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: share of the parent's median by which it may worsen.
    #: Per-layer: ``None`` (reported, never gated).
    bound: Optional[float] = None
    #: Per-layer: the end-to-end metric it should move, and where.
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("notify_p50_ms", "ms", "lower", 0.25),
    Metric("notify_on_time_share", "share", "higher", 0.25),
    Metric("subscribe_p25_ms", "ms", "lower", 0.25),
    Metric("capacity_updates_per_s", "1/s", "higher", 0.25),
    Metric("server_cpu_ms_per_kupdate", "ms", "lower", 0.25),
    Metric("message_cost_per_kupdate", "count", "lower", 0.02),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("success_share", "share", "higher", 0.002),
)

_STEADY = "steady_fanout"
_BREACH = "breach_storm"
_CHURN = "query_churn"
_CLUSTER = "cluster_fanout"

PER_LAYER: Tuple[Metric, ...] = (
    # service.agent — all workloads
    Metric("agent.filter_us_per_update", "us", "lower",
           moves="capacity_updates_per_s, all workloads"),
    Metric("agent.refreshes_per_kupdate", "count", "lower",
           moves="message_cost_per_kupdate, all workloads"),
    Metric("agent.variability_per_kupdate", "count", "lower",
           moves="denominator of message_cost_per_kupdate (stream property)"),
    # service.protocol
    Metric("protocol.encode_us_per_frame", "us", "lower",
           moves=f"server_cpu_ms_per_kupdate, notify_p50_ms on {_STEADY}, {_CLUSTER}"),
    Metric("protocol.decode_us_per_frame", "us", "lower",
           moves=f"server_cpu_ms_per_kupdate, notify_p50_ms on {_STEADY}, {_CLUSTER}"),
    Metric("protocol.bytes_per_refresh", "B", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_STEADY}"),
    Metric("protocol.bytes_per_notify", "B", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_STEADY}"),
    Metric("protocol.frames_per_update", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_STEADY}; ~3x on {_CLUSTER}"),
    # service.transports
    Metric("transports.send_self_us_per_frame", "us", "lower",
           moves=f"notify_p50_ms on {_STEADY}"),
    # service.core
    Metric("core.apply_refresh_us", "us", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_STEADY}"),
    Metric("core.react_self_us_per_refresh", "us", "lower",
           moves=f"server_cpu_ms_per_kupdate, notify_p50_ms on {_STEADY}"),
    Metric("core.bound_updates_us", "us", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_BREACH}"),
    Metric("core.notifications_per_refresh", "count", "lower",
           moves=f"notify_p50_ms on {_STEADY}"),
    Metric("core.recomputes_per_kupdate", "count", "lower",
           moves=f"message_cost_per_kupdate, notify_on_time_share on {_BREACH}"),
    Metric("core.add_query_ms", "ms", "lower",
           moves=f"subscribe_p25_ms on {_CHURN}"),
    Metric("core.remove_query_ms", "ms", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_CHURN}"),
    # queries.compiled / queries.bank_index
    Metric("bank.evaluate_us_per_refresh", "us", "lower",
           moves=f"server_cpu_ms_per_kupdate, capacity_updates_per_s on {_STEADY}; "
                 f"must not worsen subscribe_p25_ms on {_CHURN}"),
    Metric("bank.calls_per_refresh", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_STEADY}"),
    # filters (planner) and gp.solver
    Metric("planner.plan_ms_p50", "ms", "lower",
           moves=f"notify_on_time_share, server_cpu_ms_per_kupdate on {_BREACH}; "
                 f"subscribe_p25_ms on {_CHURN}"),
    Metric("planner.plan_ms_p95", "ms", "lower",
           moves=f"notify_on_time_share on {_BREACH}"),
    Metric("planner.plans", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_BREACH}"),
    Metric("planner.busy_share", "share", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_BREACH}; ~0 on {_STEADY}"),
    Metric("gp.solve_ms_p50", "ms", "lower",
           moves=f"planner.plan_ms_p50 on {_BREACH}; setup_s everywhere"),
    Metric("gp.solves_per_plan", "count", "lower",
           moves=f"planner.plan_ms_p50 on {_BREACH}"),
    Metric("setup.scenario_s", "s", "lower", moves="setup_s, all workloads"),
    Metric("setup.plan_s", "s", "lower", moves="setup_s, all workloads"),
    Metric("setup.decompose_s", "s", "lower", moves=f"setup_s on {_CLUSTER}"),
    # service.server
    Metric("server.residual_cpu_us_per_refresh", "us", "lower",
           moves=f"notify_p50_ms, capacity_updates_per_s on {_STEADY}"),
    Metric("server.notifies_per_kupdate", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_STEADY}"),
    Metric("server.dab_updates_per_kupdate", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_BREACH}"),
    Metric("server.evictions", "count", "lower",
           moves=f"success_share on {_BREACH}"),
    Metric("server.refreshes_rejected", "count", "lower",
           moves="success_share, all workloads"),
    # service.cluster.router / broker / filters.shard_budget
    Metric("router.residual_cpu_us_per_refresh", "us", "lower",
           moves=f"every metric on {_CLUSTER} only"),
    Metric("router.shard_refreshes_per_refresh", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_CLUSTER} only"),
    Metric("router.recombine_us_per_notify", "us", "lower",
           moves=f"notify_p50_ms on {_CLUSTER} only"),
    Metric("broker.upstream_notifies", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_CLUSTER} only"),
    Metric("broker.notifies_sent", "count", "lower",
           moves=f"server_cpu_ms_per_kupdate on {_CLUSTER} only"),
    Metric("broker.evictions", "count", "lower",
           moves=f"success_share on {_CLUSTER} only"),
    # service.client / generator (reported, not gated)
    Metric("client.notify_p95_ms", "ms", "lower",
           moves="the tail behind notify_on_time_share (pooled over the phase)"),
    Metric("client.notify_p99_ms", "ms", "lower",
           moves="the tail behind notify_on_time_share"),
    Metric("client.notify_max_ms", "ms", "lower",
           moves="the tail behind notify_on_time_share"),
    Metric("client.samples", "count", "higher", moves="sample count behind notify_*"),
    Metric("gen.late_tail_ms", "ms", "lower",
           moves="validity: above one tick interval the run is invalid"),
    # service.journal — present, zero calls in these workloads
    Metric("journal.append_us_p50", "us", "lower", moves="none (journal off)"),
    Metric("journal.appends", "count", "lower", moves="none (journal off)"),
    # the trace itself
    Metric("trace.overhead_share", "share", "lower",
           moves="traced vs untraced server_cpu_ms_per_kupdate, same process"),
    Metric("trace.coverage_share", "share", "higher",
           moves="traced self time / server CPU"),
)


def format_value(value: Optional[float], n: Optional[int] = None) -> str:
    if value is None:
        return f"n/a (n={n})" if n is not None else "n/a"
    magnitude = abs(value)
    if magnitude >= 1000:
        text = f"{value:,.0f}"
    elif magnitude >= 10:
        text = f"{value:.1f}"
    elif magnitude >= 0.1:
        text = f"{value:.3f}"
    else:
        text = f"{value:.5f}"
    return text if n is None else f"{text} (n={n})"


def print_metrics(title: str, metrics: Sequence[Metric],
                  values: Mapping[str, Optional[float]],
                  counts: Mapping[str, int]) -> None:
    """One line per metric: name, value (or ``n/a``), unit, sample count."""
    print(f"\n== {title}")
    width = max(len(metric.name) for metric in metrics)
    for metric in metrics:
        shown = format_value(values.get(metric.name), counts.get(metric.name))
        print(f"  {metric.name:<{width}}  {shown:>22} {metric.unit:<6}"
              f" ({metric.better} is better)")


def contract_line(metrics: Sequence[Metric],
                  values: Mapping[str, Optional[float]],
                  correct: bool, attempted: int, failed: int) -> str:
    """The driver's one-line JSON result.  A gated metric without enough
    samples has no honest number, so it is an error here, not a zero."""
    missing = [m.name for m in metrics
               if m.bound is not None and values.get(m.name) is None]
    if missing:
        raise ValueError("too few samples for: " + ", ".join(missing))
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": float(values.get(m.name) or 0.0),
                             "unit": m.unit} for m in metrics},
    })


def write_json(path: Path, document: Any, compact: bool = False) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        if compact:
            json.dump(document, handle, separators=(",", ":"))
        else:
            json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# raw measurements -> named metrics
# ---------------------------------------------------------------------------

def counters(mark: Mapping[str, Any], clustered: bool) -> Dict[str, float]:
    """One vocabulary for a server's and a cluster's stats reading."""
    stats = mark["stats"]
    servers = list(stats["shards"].values()) if clustered else [stats]
    brokers = mark.get("brokers") or {}
    rejected = sum(
        int(server.get("refreshes_rejected_stale_seq", 0))
        + int(server.get("refreshes_rejected_stale_map_epoch", 0))
        for server in servers)
    evictions = (sum(int(s.get("slow_consumer_evictions", 0)) for s in servers)
                 + int(brokers.get("slow_consumer_evictions", 0)))
    if clustered:
        evictions += int(stats["slow_consumer_evictions"])
    return {
        # Source -> coordinator messages (a mirrored item is one message
        # from its source however many shards read it).
        "source_refreshes": float(stats["refreshes_accepted"] if clustered
                                  else stats["refreshes"]),
        "shard_refreshes": float(stats["refreshes"]),
        "recomputations": float(stats["recomputations"]),
        "notifies_sent": float(brokers["notifies_sent"] if clustered
                               else stats["notifies_sent"]),
        "dab_updates_sent": float(stats["dab_updates_sent"]),
        "evictions": float(evictions),
        "rejected": float(rejected),
        "protocol_errors": float(
            stats["protocol_errors"]
            + sum(int(s.get("protocol_errors", 0)) for s in servers
                  if s is not stats)),
        "broker_upstream": float(brokers.get("upstream_notifies", 0)),
        "broker_sent": float(brokers.get("notifies_sent", 0)),
        "broker_evictions": float(brokers.get("slow_consumer_evictions", 0)),
    }


def server_cpu_seconds(phase: Mapping[str, Any]) -> float:
    """The child's CPU over one bracketed phase, less what its own
    calibration samples used."""
    return (phase["after"]["cpu"] - phase["before"]["cpu"]
            - calibrate.own_seconds(phase["after"]["calibration"]))


def phase_delta(phase: Mapping[str, Any], clustered: bool) -> Dict[str, float]:
    """Counter, CPU and wall deltas over one bracketed phase."""
    before = counters(phase["before"], clustered)
    after = counters(phase["after"], clustered)
    delta = {key: after[key] - before[key] for key in after}
    delta["cpu_s"] = server_cpu_seconds(phase)
    delta["kupdates"] = phase["item_updates"] / 1000.0
    return delta


def _cpu_ms_per_kupdate(delta: Mapping[str, float]) -> float:
    return delta["cpu_s"] * 1000.0 / delta["kupdates"]


def outcome(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """Failed and attempted operations, and whether outputs were correct."""
    clustered = raw["clustered"]
    final = counters(raw["final"], clustered)
    generator = raw["generator"]
    pairs = sum(audit["pairs"] for audit in raw["audits"])
    violations = [v for audit in raw["audits"] for v in audit["violations"]]
    failed = (len(violations) + generator["evictions"]
              + generator["operations_failed"]
              + int(final["rejected"]) + int(final["protocol_errors"]))
    attempted = (pairs + generator["notifies_received"]
                 + generator["refreshes_sent"]
                 + generator["operations_attempted"])
    return {
        "correct": pairs > 0 and not violations,
        "attempted": int(attempted), "failed": int(failed),
        "audit_pairs": pairs, "violations": violations,
        "failed_share": failed / attempted if attempted else 1.0,
    }


def window_percentile(windows: Sequence[Sequence[float]], p: float
                      ) -> Optional[float]:
    """The median over time windows of each window's ``p``-th percentile.

    One second in which the host stalled, or one long cascade of solves,
    moves a pooled percentile but not the median window.  While any window
    is too thin to support the percentile, neighbours are merged pairwise
    (1 s windows, then 2 s, ... then the whole phase)."""
    from statistics import median

    windows = [list(samples) for samples in windows]
    while True:
        values = [percentile(samples, p) for samples in windows]
        if len(windows) <= 1 or None not in values:
            break
        windows = [sum(windows[index:index + 2], [])
                   for index in range(0, len(windows), 2)]
    return None if None in values or not values else median(values)


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def end_to_end_values(raw: Mapping[str, Any]
                      ) -> Tuple[Dict[str, Optional[float]], Dict[str, int],
                                 Dict[str, Optional[float]]]:
    """``(values, sample counts, as measured)`` for :data:`END_TO_END`.

    Timings are *at reference speed*: divided by how much slower than the
    reference the machine ran the calibration unit during the same phase,
    in the process that was timed (``calibrate``).  The third dictionary
    holds the undivided timings and the divisors."""
    from statistics import median

    open_phase, closed = raw["open"], raw["closed"]
    delta = phase_delta(open_phase, raw["clustered"])
    result = outcome(raw)
    windows, subscribe = open_phase["windows"], open_phase["subscribe"]
    notify = open_phase["notify"]
    server = calibrate.slowdown(open_phase["after"]["calibration"])
    # A NOTIFY or a SNAPSHOT crosses both processes.
    path = (server + calibrate.slowdown(
        open_phase["generator_calibration"])) / 2.0
    saturated = calibrate.slowdown(closed["after"]["calibration"])
    p50 = window_percentile(windows, 50.0)
    measured: Dict[str, Optional[float]] = {
        "setup_s": median(sample["seconds"]
                          for sample in raw["setup_samples"]),
        "notify_p50_ms": _scaled(p50, 1000.0),
        "subscribe_p25_ms": _scaled(percentile(subscribe, 25.0), 1000.0),
        # Per second of *server CPU*, not of wall clock: the closed loop
        # keeps the server saturated, so on a core of its own the two are
        # the same, and the CPU clock does not run while the host has
        # taken the core away.
        "capacity_updates_per_s": (closed["item_updates"]
                                   / server_cpu_seconds(closed)),
        "server_cpu_ms_per_kupdate": _cpu_ms_per_kupdate(delta),
        "closed_loop_wall_updates_per_s": (closed["item_updates"]
                                           / closed["seconds"]),
        "slowdown.open_server": server, "slowdown.open_path": path,
        "slowdown.closed_server": saturated,
    }
    limit = NOTIFY_LIMIT_SECONDS * path
    values = {
        "setup_s": median(
            sample["seconds"] / calibrate.slowdown(sample["calibration"])
            for sample in raw["setup_samples"]),
        "notify_p50_ms": _scaled(measured["notify_p50_ms"], 1.0 / path),
        "notify_on_time_share": (
            sum(1 for sample in notify if sample <= limit) / len(notify)
            if notify else None),
        "subscribe_p25_ms": _scaled(measured["subscribe_p25_ms"], 1.0 / path),
        "capacity_updates_per_s": (measured["capacity_updates_per_s"]
                                   * saturated),
        "server_cpu_ms_per_kupdate": (measured["server_cpu_ms_per_kupdate"]
                                      / server),
        "message_cost_per_kupdate": (
            delta["source_refreshes"]
            + raw["recompute_cost"] * delta["recomputations"])
            / delta["kupdates"],
        "peak_rss_mb": raw["final"]["maxrss_kb"] / 1024.0,
        "success_share": 1.0 - result["failed_share"],
    }
    counts = {
        "setup_s": len(raw["setup_samples"]),
        "notify_p50_ms": len(notify), "notify_on_time_share": len(notify),
        "subscribe_p25_ms": len(subscribe),
        "capacity_updates_per_s": closed["item_updates"],
        "server_cpu_ms_per_kupdate": open_phase["item_updates"],
        "message_cost_per_kupdate": open_phase["item_updates"],
        "success_share": result["attempted"],
    }
    return values, counts, measured


def late_tail_ms(phase: Mapping[str, Any]) -> Optional[float]:
    """How late open-loop ticks started, at the highest percentile the
    tick count supports (p99 from 1000 ticks up, else lower)."""
    _, value = tail(phase["late"])
    return None if value is None else value * 1000.0


def layer_values(raw: Mapping[str, Any]
                 ) -> Tuple[Dict[str, Optional[float]], Dict[str, int]]:
    """``(values, sample counts)`` for :data:`PER_LAYER`, from a traced
    run: spans that started inside the traced open-loop phase, the stats
    deltas across it, and the untraced phase that preceded it."""
    from . import trace

    clustered = raw["clustered"]
    phase = raw["open"]
    delta = phase_delta(phase, clustered)
    since, until = phase["before"]["t"], phase["after"]["t"]
    spans = raw["spans"]["server"]
    server = trace.totals(spans, since, until)
    whole_run = trace.totals(spans)
    generator = trace.totals(raw["spans"]["generator"], since, until)
    names, strings = trace.span_names(spans), spans["strings"]
    in_window = [index for index, start in enumerate(spans["start"])
                 if since <= start < until]

    def entry(summary: Mapping[str, Any], name: str) -> Dict[str, float]:
        return summary.get(name, {"count": 0, "busy": 0.0, "self": 0.0})

    def per(total: float, count: float, scale: float = 1.0) -> float:
        return total * scale / count if count else 0.0

    def busy_ms(name: str) -> List[float]:
        return [spans["busy"][index] * 1000.0 for index in in_window
                if names[index] == name]

    values: Dict[str, Optional[float]] = {}
    counts: Dict[str, int] = {}
    kupdates = delta["kupdates"]
    refreshes = delta["shard_refreshes"]

    # service.agent (generator process)
    filtered = entry(generator, "agent.filter")
    values["agent.filter_us_per_update"] = per(
        filtered["self"], phase["item_updates"], 1e6)
    values["agent.refreshes_per_kupdate"] = phase["refreshes_sent"] / kupdates
    sweeps = phase["ticks"] / raw["cycle_ticks"]
    values["agent.variability_per_kupdate"] = (
        raw["generator"]["cycle_variability"] * sweeps / kupdates)

    # service.protocol / service.transports (server process)
    encode, decode = entry(server, "protocol.encode"), entry(server, "protocol.decode")
    values["protocol.encode_us_per_frame"] = per(encode["self"], encode["count"], 1e6)
    values["protocol.decode_us_per_frame"] = per(decode["self"], decode["count"], 1e6)
    counts["protocol.encode_us_per_frame"] = int(encode["count"])
    counts["protocol.decode_us_per_frame"] = int(decode["count"])
    sizes: Dict[str, List[int]] = {"refresh": [], "notify": []}
    for index in in_window:
        kind = spans["kind"][index]
        if (names[index] in ("protocol.encode", "protocol.decode")
                and kind >= 0 and strings[kind] in sizes):
            sizes[strings[kind]].append(spans["count"][index])
    values["protocol.bytes_per_refresh"] = per(sum(sizes["refresh"]),
                                               len(sizes["refresh"]))
    values["protocol.bytes_per_notify"] = per(sum(sizes["notify"]),
                                              len(sizes["notify"]))
    values["protocol.frames_per_update"] = per(
        encode["count"] + decode["count"], phase["item_updates"])
    send = entry(server, "transports.send")
    values["transports.send_self_us_per_frame"] = per(send["self"], send["count"], 1e6)
    counts["transports.send_self_us_per_frame"] = int(send["count"])

    # service.core
    apply, react = entry(server, "core.apply_refresh"), entry(server, "core.react")
    bounds = entry(server, "core.bound_updates")
    values["core.apply_refresh_us"] = per(apply["busy"], apply["count"], 1e6)
    values["core.react_self_us_per_refresh"] = per(react["self"], react["count"], 1e6)
    values["core.bound_updates_us"] = per(bounds["busy"], bounds["count"], 1e6)
    counts["core.apply_refresh_us"] = int(apply["count"])
    counts["core.react_self_us_per_refresh"] = int(react["count"])
    counts["core.bound_updates_us"] = int(bounds["count"])
    notifications = sum(spans["count"][index] for index in in_window
                        if names[index] == "core.react")
    values["core.notifications_per_refresh"] = per(notifications, react["count"])
    values["core.recomputes_per_kupdate"] = delta["recomputations"] / kupdates
    for metric, span in (("core.add_query_ms", "core.add_query"),
                         ("core.remove_query_ms", "core.remove_query")):
        samples = busy_ms(span)
        values[metric] = percentile(samples, 50.0)
        counts[metric] = len(samples)

    # queries.compiled / queries.bank_index: evaluations under core.react
    evaluations = [index for index in in_window
                   if names[index] == "bank.evaluate"
                   and spans["parent"][index] >= 0
                   and names[spans["parent"][index]] == "core.react"]
    values["bank.evaluate_us_per_refresh"] = per(
        sum(spans["busy"][index] for index in evaluations),
        react["count"], 1e6)
    values["bank.calls_per_refresh"] = per(len(evaluations), react["count"])
    counts["bank.evaluate_us_per_refresh"] = len(evaluations)

    # filters (the planner instance) and gp.solver
    plans, solves = busy_ms("planner.plan"), busy_ms("gp.solve")
    values["planner.plan_ms_p50"] = percentile(plans, 50.0)
    values["planner.plan_ms_p95"] = percentile(plans, 95.0)
    values["planner.plans"] = float(len(plans))
    values["planner.busy_share"] = sum(plans) / 1000.0 / delta["cpu_s"]
    values["gp.solve_ms_p50"] = percentile(solves, 50.0)
    values["gp.solves_per_plan"] = per(len(solves), len(plans))
    for metric in ("planner.plan_ms_p50", "planner.plan_ms_p95"):
        counts[metric] = len(plans)
    counts["gp.solve_ms_p50"] = len(solves)
    for metric, span in (("setup.scenario_s", "setup.scenario"),
                         ("setup.plan_s", "setup.plan"),
                         ("setup.decompose_s", "setup.decompose")):
        values[metric] = entry(whole_run, span)["busy"]

    # service.server: what no wrapper sees (asyncio, queues, fan-out)
    traced_self = sum(item["self"] for item in server.values())
    residual = delta["cpu_s"] - traced_self
    values["server.residual_cpu_us_per_refresh"] = per(residual, refreshes, 1e6)
    values["server.notifies_per_kupdate"] = delta["notifies_sent"] / kupdates
    values["server.dab_updates_per_kupdate"] = delta["dab_updates_sent"] / kupdates
    values["server.evictions"] = delta["evictions"]
    values["server.refreshes_rejected"] = delta["rejected"]

    # service.cluster.router / broker / filters.shard_budget
    recombine = entry(server, "router.recombine")
    values["router.residual_cpu_us_per_refresh"] = (
        per(residual, delta["source_refreshes"], 1e6) if clustered else 0.0)
    values["router.shard_refreshes_per_refresh"] = (
        per(refreshes, delta["source_refreshes"]) if clustered else 0.0)
    values["router.recombine_us_per_notify"] = per(
        recombine["self"], recombine["count"], 1e6)
    values["broker.upstream_notifies"] = delta["broker_upstream"]
    values["broker.notifies_sent"] = delta["broker_sent"]
    values["broker.evictions"] = delta["broker_evictions"]

    # service.client / generator
    notify = phase["notify"]
    for metric, p in (("client.notify_p95_ms", 95.0),
                      ("client.notify_p99_ms", 99.0)):
        value = percentile(notify, p)
        values[metric] = None if value is None else value * 1000.0
        counts[metric] = len(notify)
    values["client.notify_max_ms"] = max(notify) * 1000.0 if notify else None
    values["client.samples"] = float(len(notify))
    values["gen.late_tail_ms"] = late_tail_ms(phase)
    counts["gen.late_tail_ms"] = len(phase["late"])

    # service.journal
    appends = busy_ms("journal.append")
    p50 = percentile(appends, 50.0)
    values["journal.append_us_p50"] = None if p50 is None else p50 * 1000.0
    values["journal.appends"] = float(len(appends))
    counts["journal.append_us_p50"] = len(appends)

    # the trace itself
    untraced = phase_delta(raw["untraced"], clustered)
    values["trace.overhead_share"] = (
        _cpu_ms_per_kupdate(delta) / _cpu_ms_per_kupdate(untraced) - 1.0)
    values["trace.coverage_share"] = traced_self / delta["cpu_s"]
    return values, counts
