"""Chaos soak: the live service under injected faults, audited end to end.

``run_chaos_soak`` stands up a real :class:`CoordinatorServer`, N
:class:`SourceAgent` processes-in-miniature and a subscriber, wires every
source link through a :class:`~repro.service.chaos.FaultInjector`, and
replays a deterministic scenario while the injector drops, duplicates,
delays, corrupts, disconnects, partitions and crashes according to a
named (or custom) :class:`~repro.service.chaos.FaultSchedule`.

**The audit.** At deterministic checkpoints a subscriber on a clean
(chaos-free) connection takes an authoritative snapshot and compares
every served query value against ground truth — the sources' *live*
values, which the coordinator never sees directly.  The contract under
audit is the paper's Theorem 1 extended to a lossy world:

* a query either answers within its QAB, **or**
* it is honestly flagged in the snapshot's ``degraded`` map with a
  widened bound (the PR 1 lease semantics) — and then the widened bound
  must cover the truth.

Anything else — an **unexcused QAB violation**, or a flagged answer
outside its widened bound — fails the soak.

**Determinism.** The whole run is driven on a logical step clock: the
server's ``clock`` is the step counter, heartbeats and lease/retry
sweeps are issued explicitly each step, agents tick in sorted order, and
every chaos decision depends only on per-link frame order under a seeded
substream — so the same seed replays the identical fault trace
(``fault_trace_digest`` in the report) and the identical audit.

Checkpoints are placed where the fault trace shows the wire quiet for
``audit_margin`` steps: one clean heartbeat round is what the detection
machinery (seq gaps → probes, leases → degradation) needs to have either
repaired or honestly flagged any earlier loss.  Crash windows generate
no wire events, so audits *do* run while a source is down — that is
where the degraded-excusal path earns its keep.  After the scheduled
steps the injector is disabled and a recovery tail runs until the
degraded map drains; the soak fails if it never does.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import ReproError
from repro.invariants import check_served
from repro.service import protocol
from repro.service.agent import SourceAgent, agents_for_scenario
from repro.service.chaos import FaultInjector, FaultSchedule, chaos_loopback_pair
from repro.service.client import ServiceClient, latency_percentiles
from repro.service.journal import Journal
from repro.service.resilience import (
    CircuitBreaker,
    RetryExhausted,
    RetryPolicy,
    retry_async,
)
from repro.service.transports import TransportClosed
from repro.simulation.faults import CrashWindow, PartitionWindow

#: name -> (schedule builder, default step budget).  Every named schedule
#: mixes at least loss + partition + agent crash (the acceptance trio).
_NAMED_SCHEDULES = {
    "smoke": (lambda seed: FaultSchedule(
        drop_rate=0.3, loss_windows=(PartitionWindow(5.0, 9.0),),
        duplicate_rate=0.05,
        partitions=(PartitionWindow(12.0, 14.0),),
        crash_windows=(CrashWindow(0, 16.0, 22.0),),
        seed=seed), 28),
    "ci": (lambda seed: FaultSchedule(
        drop_rate=0.35, loss_windows=(PartitionWindow(6.0, 12.0),
                                      PartitionWindow(30.0, 35.0),),
        duplicate_rate=0.08, delay_rate=0.08, delay_steps=2,
        disconnect_rate=0.01, corrupt_rate=0.008,
        partitions=(PartitionWindow(18.0, 22.0),),
        crash_windows=(CrashWindow(0, 40.0, 46.0),),
        seed=seed), 60),
    "heavy": (lambda seed: FaultSchedule(
        drop_rate=0.4, loss_windows=(PartitionWindow(10.0, 25.0),
                                     PartitionWindow(60.0, 75.0),
                                     PartitionWindow(110.0, 120.0),),
        duplicate_rate=0.12, delay_rate=0.12, delay_steps=3,
        disconnect_rate=0.02, corrupt_rate=0.015,
        partitions=(PartitionWindow(40.0, 46.0), PartitionWindow(90.0, 94.0),),
        crash_windows=(CrashWindow(0, 50.0, 58.0), CrashWindow(1, 98.0, 106.0),),
        seed=seed), 140),
    # Smoke-sized wire faults plus (by default) two coordinator kills —
    # the schedule the journal/restore path is gated on in CI.
    "restart": (lambda seed: FaultSchedule(
        drop_rate=0.25, loss_windows=(PartitionWindow(4.0, 7.0),),
        duplicate_rate=0.05,
        partitions=(PartitionWindow(20.0, 22.0),),
        crash_windows=(CrashWindow(0, 13.0, 17.0),),
        seed=seed), 30),
    # The restart profile with the kills aimed at individual coordinator
    # *shards* (rotating across the cluster) instead of the whole
    # coordinator — pair with ``run_chaos_soak(shards=N)``.
    "shards": (lambda seed: FaultSchedule(
        drop_rate=0.25, loss_windows=(PartitionWindow(4.0, 7.0),),
        duplicate_rate=0.05,
        partitions=(PartitionWindow(20.0, 22.0),),
        crash_windows=(CrashWindow(0, 13.0, 17.0),),
        seed=seed), 30),
    # The self-healing profile: shard kills are *undetected* crashes
    # (the router's plumbing keeps pointing at the corpse) healed only
    # by the heartbeat failure detector, while a live resharding
    # migration runs concurrently — the kills land mid-migration.
    # Requires ``run_chaos_soak(shards=N)``.
    "reshard": (lambda seed: FaultSchedule(
        drop_rate=0.25, loss_windows=(PartitionWindow(4.0, 7.0),),
        duplicate_rate=0.05,
        partitions=(PartitionWindow(27.0, 29.0),),
        crash_windows=(CrashWindow(0, 20.0, 24.0),),
        seed=seed), 34),
}

#: default coordinator-kill steps per schedule (used when the caller
#: journals the run but does not pick kill steps explicitly).  The
#: ``reshard`` kills straddle the migration started at
#: ``_RESHARD_MIGRATE_STEP`` so the first crash lands mid-move.
_DEFAULT_KILL_STEPS = {"restart": (9, 24), "shards": (9, 24),
                       "reshard": (13, 24)}

#: step at which the ``reshard`` profile starts its live migration
#: (freeze tick; the cutover tick follows one step later, so the
#: default first kill at step 13 hits an item mid-flight).
_RESHARD_MIGRATE_STEP = 12


def named_schedule(name: str, seed: int = 1) -> Tuple[FaultSchedule, int]:
    """``(schedule, default step budget)`` for a named soak profile."""
    try:
        build, steps = _NAMED_SCHEDULES[name]
    except KeyError:
        raise ReproError(
            f"unknown chaos schedule {name!r}; "
            f"pick one of {sorted(_NAMED_SCHEDULES)}") from None
    return build(seed), steps


def _plan_reshard_moves(cluster: Any, count: int = 2) -> Dict[str, int]:
    """Deterministic migration plan for the ``reshard`` soak: *count*
    items, in the order they are to run, each moving to the active shard
    after its current owner in rotation — guaranteed real moves, same
    plan for the same seed/scenario.  Each pick is the first item by
    name whose move, *after the picks before it*, re-homes at least one
    query — that is the path worth soaking — and the first item by name
    when none does (at two shards the hub items usually put both shards
    in every spread, so nothing re-homes)."""
    from repro.service.cluster.migration import plan_move

    active = list(cluster.decomposition.active_shards)
    decomposition, shard_map = cluster.decomposition, cluster.shard_map
    moves: Dict[str, int] = {}
    if len(active) < 2:
        return moves
    for _ in range(count):
        pick = None
        for item in sorted(cluster._item_shards):
            owner = shard_map.shard_of(item)
            if item in moves or owner not in active:
                continue
            target = active[(active.index(owner) + 1) % len(active)]
            new_map, updated, rehomed = plan_move(
                decomposition, shard_map, item, target)
            if pick is None or rehomed:
                pick = (item, target, new_map, updated)
            if rehomed:
                break
        if pick is None:
            break
        item, target, shard_map, updated = pick
        moves[item] = target
        decomposition = decomposition.replace(updated)
    return moves


class _StepClock:
    """The soak's logical time source, shared with the server."""

    def __init__(self) -> None:
        self.step = 0

    def __call__(self) -> float:
        return float(self.step)


async def _drain(rounds: int = 8) -> None:
    """Let queued loopback frames, writer tasks and listeners settle."""
    for _ in range(rounds):
        await asyncio.sleep(0)


async def _run_async(
    server: Any,
    scenario: Any,
    item_to_source: Dict[str, int],
    injector: FaultInjector,
    clock: _StepClock,
    steps: int,
    audit_margin: int,
    register_timeout: float,
    server_factory: Optional[Callable[[], Any]] = None,
    kill_steps: Sequence[int] = (),
    kill_handler: Optional[Callable[[int], Any]] = None,
    step_hook: Optional[Callable[[int], Any]] = None,
    hold_tail: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    # A cluster front-end must attach its shards before anything
    # connects; the single server has no such hook.
    if hasattr(server, "start"):
        await server.start()
    traces = scenario.traces
    queries = scenario.queries
    # A delayed frame lands delay_steps after its fault event fired; the
    # quiet period before an audit has to outlast that.
    audit_margin = max(audit_margin, injector.schedule.delay_steps + 1)

    #: registration itself runs through the chaos links, so connecting is
    #: retried under a policy (zero backoff: the step clock is logical).
    connect_policy = RetryPolicy(base_delay=0.0, backoff=1.0, max_delay=0.0,
                                 max_attempts=12)
    connect_give_ups = 0

    async def _connect(agent: SourceAgent) -> None:
        nonlocal connect_give_ups

        async def _attempt() -> None:
            client_end, server_end = chaos_loopback_pair(
                injector, peer=f"src{agent.source_id}")
            server.adopt_connection(server_end)
            await _drain(2)
            await agent.connect(client_end, register_timeout=register_timeout)

        try:
            await retry_async(connect_policy, _attempt,
                              retry_on=(TransportClosed, ConnectionError))
        except RetryExhausted:
            # Leave the source down: its leases will expire and the
            # degraded flags tell subscribers the truth until the next
            # tick/heartbeat triggers another connection attempt.
            connect_give_ups += 1

    agents = agents_for_scenario(scenario, item_to_source)
    for agent in agents.values():
        await _connect(agent)
    await _drain()

    auditor = ServiceClient(server.connect_loopback())
    await auditor.subscribe("*")

    #: ground truth: each source's live view — frozen while it is down.
    truth: Dict[str, float] = dict(traces.initial_values())
    crashed: Set[int] = set()
    retired_stats: List[Dict[str, int]] = []

    trace_len = min(len(traces[item]) for item in item_to_source)
    last = min(trace_len, steps + 1)
    kills = {int(s) for s in kill_steps if 1 <= int(s) < last}
    restarts: List[Dict[str, Any]] = []
    append_samples: List[float] = []
    retired_refreshes = 0
    fault_steps: Set[int] = set()
    degraded_open: Dict[str, int] = {}
    recovery_durations: List[float] = []
    refreshes_per_step: List[float] = []
    audit_log: List[Dict[str, Any]] = []
    unexcused: List[Dict[str, Any]] = []
    excused = 0
    degraded_bound_exceeded: List[Dict[str, Any]] = []
    audits = 0
    audits_with_degraded = 0

    def _note_faults() -> None:
        for event_step, _link, kind, _frame in injector.trace:
            # Duplicates are benign by construction (seq/epoch dedup);
            # they never create staleness, so they don't block audits.
            if kind != "duplicate":
                fault_steps.add(event_step)

    def _track_degraded(step: int) -> None:
        current = set(server._degraded_keys)
        for name in current:
            degraded_open.setdefault(name, step)
        for name in list(degraded_open):
            if name not in current:
                recovery_durations.append(float(step - degraded_open.pop(name)))

    async def _heartbeat(agent: SourceAgent) -> None:
        stream = agent._stream
        if stream is None:
            await _connect(agent)
            stream = agent._stream
        try:
            await stream.send(protocol.heartbeat(agent.source_id, agent.seq))
            agent.stats["heartbeats_sent"] += 1
        except TransportClosed:
            await _connect(agent)

    async def _audit(step: int, phase: str) -> None:
        nonlocal excused, audits, audits_with_degraded
        served = await auditor.request_snapshot()
        degraded = dict(auditor.degraded)
        audits += 1
        if degraded:
            audits_with_degraded += 1
        broken, flagged, exceeded = check_served(truth, served, degraded,
                                                 queries)
        unexcused.extend({"step": step, "phase": phase, **entry}
                         for entry in broken)
        excused += len(flagged)
        degraded_bound_exceeded.extend({"step": step, **entry}
                                       for entry in exceeded)
        audit_log.append({"step": step, "phase": phase,
                          "degraded_queries": sorted(degraded)})

    async def _kill_and_restore(step: int) -> None:
        """The coordinator-kill fault: drop the server with no parting
        snapshot (journal appends are unbuffered, so the WAL already
        holds everything it accepted), build a fresh one, restore from
        snapshot+tail, and let every surviving agent re-attach through
        the ordinary reconnect/resync machinery."""
        nonlocal server, auditor, retired_refreshes
        assert server_factory is not None
        old_journal = server.journal
        retired_refreshes += server.stats["refreshes_accepted"]
        await auditor.close()
        await server.close(final_snapshot=False)
        if old_journal is not None:
            append_samples.extend(old_journal.append_seconds)
        server = server_factory()
        recovery = server.restore()
        recovery["step"] = step
        restarts.append(recovery)
        # A restart silences the wire exactly like a fault burst would;
        # audits hold off until the margin clears it.
        fault_steps.add(step)
        for source_id in sorted(agents):
            if source_id in crashed:
                continue
            agent = agents[source_id]
            # Force a full resync: fresh values clear any restored lease
            # suspicion without waiting for the probe machinery.
            agent._resync_pending = set(agent.items)
            await _connect(agent)
        await _drain()
        auditor = ServiceClient(server.connect_loopback())
        await auditor.subscribe("*")
        await _drain()

    async def _step(step: int, phase: str) -> None:
        clock.step = step
        if step in kills:
            if kill_handler is not None:
                # Cluster mode: the handler fails over one shard (kill,
                # journal-restore, reattach, probe resync); agents and
                # the auditor stay attached to the router throughout.
                # A handler may also return None — an *undetected* crash
                # whose recovery record arrives later through the health
                # monitor's step hook.
                recovery = await kill_handler(step)
                if recovery is not None:
                    recovery = dict(recovery)
                    recovery["step"] = step
                    restarts.append(recovery)
                fault_steps.add(step)
                await _drain()
            else:
                await _kill_and_restore(step)
        injector.advance(step)
        await _drain(4)

        # Crash transitions: kill at window start, revive (a *new*
        # process: fresh seqs, resync pending) at window end.
        for source_id in sorted(agents):
            is_down = injector.is_crashed(source_id, step)
            if is_down and source_id not in crashed:
                crashed.add(source_id)
                retired_stats.append(dict(agents[source_id].stats))
                await agents[source_id].close()
            elif not is_down and source_id in crashed:
                crashed.discard(source_id)
                dead = agents[source_id]
                revived = SourceAgent(
                    source_id, dead.items,
                    {name: truth[name] for name in dead.items})
                revived._resync_pending = set(revived.items)
                agents[source_id] = revived
                await _connect(revived)

        before = server.stats["refreshes_accepted"]
        for source_id in sorted(agents):
            if source_id in crashed:
                continue                      # a down source's world freezes
            agent = agents[source_id]
            updates = {item: traces[item].at(step) for item in agent.items}
            truth.update(updates)
            try:
                await agent.tick(updates)
            except TransportClosed:
                # Values are already applied locally; the reconnect marks
                # every item resync-pending, so the next tick (or a probe
                # answer) re-delivers them.
                await _connect(agent)
        await _drain()

        for source_id in sorted(agents):
            if source_id not in crashed:
                await _heartbeat(agents[source_id])
        await _drain()
        await server.check_leases()
        await server.check_retries()
        await _drain()

        if step_hook is not None:
            # Self-healing machinery runs *inside* the step, after the
            # traffic settles: the health monitor polls its heartbeat
            # deadlines and the migrator advances one phase.  Failovers
            # and cutovers silence/redirect the wire like a fault burst,
            # so the hook reports them and audits hold off for a margin.
            hook = await step_hook(step)
            if hook:
                if hook.get("fault"):
                    fault_steps.add(step)
                for record in hook.get("restarts") or ():
                    record = dict(record)
                    record["step"] = step
                    restarts.append(record)
            await _drain()

        refreshes_per_step.append(
            float(server.stats["refreshes_accepted"] - before))
        _note_faults()
        _track_degraded(step)
        recent = {step, step - 1} if audit_margin <= 1 else set(
            range(step - audit_margin + 1, step + 1))
        if not (recent & fault_steps):
            await _audit(step, phase)

    for step in range(1, last):
        await _step(step, "storm")

    # Recovery tail: the storm is over; every probe now lands, so the
    # degraded map must drain.  The tail length bounds recovery time.
    injector.enabled = False
    tail_budget = int(2 * (server.lease_duration or 1.0)) + 10
    tail_end = last
    for step in range(last, last + tail_budget):
        await _step(step, "recovery")
        tail_end = step
        if hold_tail is not None and hold_tail():
            # A migration is still mid-flight (or a failover pending):
            # keep stepping so it completes inside the bounded tail.
            continue
        if not server.suspect_since and not server._outstanding_dabs:
            break
    _track_degraded(tail_end + 1)              # close still-open episodes
    await _audit(tail_end, "final")

    final_degraded = dict(auditor.degraded)
    stats = server.server_stats()
    agent_totals: Dict[str, int] = {}
    for source_stats in retired_stats + [a.stats for a in agents.values()]:
        for key, value in source_stats.items():
            agent_totals[key] = agent_totals.get(key, 0) + value

    # Always present (``{"kills": 0}`` without a journal) so downstream
    # dashboards can key on the section unconditionally.
    recovery_section: Dict[str, Any] = {"kills": len(restarts)}
    if restarts or server.journal is not None:
        recovery_section.update({
            "restarts": restarts,
            "records_replayed_total": sum(
                r.get("records_replayed", 0) for r in restarts),
            "recovery_seconds_max": max(
                (r.get("recovery_seconds", 0.0) for r in restarts),
                default=0.0),
        })
    if server.journal is not None:
        # (A cluster's journals live shard-side — the router itself is
        # stateless — so its shard failovers report the records above
        # only.)
        append_samples.extend(server.journal.append_seconds)
        recovery_section.update({
            "journal_append_ms": latency_percentiles(
                [s * 1000.0 for s in append_samples], (50.0, 95.0, 99.0)),
            "journal": server.journal.stats(),
        })

    report = {
        "steps": last - 1,
        "tail_steps": tail_end - last + 1,
        "audits": audits,
        "audits_with_degraded": audits_with_degraded,
        "qab_violations_unexcused": len(unexcused),
        "qab_violations_excused_degraded": excused,
        "degraded_bound_exceeded": len(degraded_bound_exceeded),
        "violation_detail": unexcused[:10],
        "degraded_bound_exceeded_detail": degraded_bound_exceeded[:10],
        "final_degraded_queries": sorted(final_degraded),
        "fault_counts": dict(sorted(injector.counts.items())),
        "fault_events": len(injector.trace),
        "fault_trace_digest": injector.digest(),
        "recovery_steps": latency_percentiles(recovery_durations,
                                              (50.0, 95.0)),
        "recovery_episodes": len(recovery_durations),
        "recovery_steps_max": max(recovery_durations, default=0.0),
        "refresh_overhead_per_step": latency_percentiles(
            refreshes_per_step, (50.0, 95.0)),
        "refreshes_total": retired_refreshes + stats["refreshes_accepted"],
        "connect_give_ups": connect_give_ups,
        "coordinator_recovery": recovery_section,
        "agent_stats": agent_totals,
        "server_stats": stats,
    }

    await auditor.close()
    for agent in agents.values():
        await agent.close()
    await server.close()
    return report


def run_chaos_soak(
    schedule: Union[str, FaultSchedule] = "ci",
    steps: Optional[int] = None,
    queries: int = 6,
    items: int = 16,
    sources: int = 3,
    seed: int = 1,
    algorithm: str = "dual_dab",
    workload: str = "portfolio",
    lease_duration: float = 3.0,
    suspect_drift_rel: float = 0.05,
    audit_margin: int = 2,
    register_timeout: float = 0.25,
    output: Optional[str] = None,
    journal_dir: Optional[str] = None,
    kill_steps: Optional[Sequence[int]] = None,
    snapshot_every: int = 50,
    fsync: str = "always",
    shards: int = 1,
) -> Dict[str, Any]:
    """Run the chaos soak; returns (and optionally writes) the report.

    ``schedule`` is a profile name (``smoke``/``ci``/``heavy``/
    ``restart``/``shards``/``reshard``) or a custom
    :class:`FaultSchedule`;
    ``steps`` defaults to the profile's budget.  ``lease_duration`` is
    in logical steps.  ``journal_dir`` journals the coordinator and
    enables ``kill_steps``: at each listed step the server is dropped
    without a parting snapshot and a fresh one restores from disk
    mid-run (the ``restart`` profile defaults to two kills; a temporary
    directory is created when kills are requested without a
    ``journal_dir``).  ``shards > 1`` runs the same soak against a
    sharded cluster behind a
    :class:`~repro.service.cluster.router.ClusterCoordinator`; kills
    then fail over one *shard* at a time (rotating), restored from its
    own journal, while agents and the auditor stay attached to the
    router.  The run **fails** (``report["passed"] is False``) on any
    unexcused QAB violation, on any degraded-flagged answer outside its
    widened bound, if a migration was abandoned or left unfinished, or
    if the degraded map has not drained by the end of the recovery tail.
    """
    if isinstance(schedule, str):
        schedule_name = schedule
        schedule, default_steps = named_schedule(schedule, seed=seed)
        steps = steps if steps is not None else default_steps
    else:
        schedule_name = "custom"
        steps = steps if steps is not None else 40
    if schedule_name == "reshard" and shards <= 1:
        raise ReproError(
            "the reshard schedule exercises live cross-shard migration; "
            "run it with shards > 1")
    if kill_steps is None:
        kill_steps = _DEFAULT_KILL_STEPS.get(schedule_name, ())
    if kill_steps and journal_dir is None:
        import tempfile

        journal_dir = tempfile.mkdtemp(prefix="repro-journal-")
    from repro.service.server import build_scenario_server

    clock = _StepClock()

    if shards > 1:
        from repro.service.cluster.router import build_scenario_cluster
        from repro.service.cluster.supervisor import ShardSupervisor

        cluster, scenario, item_to_source = build_scenario_cluster(
            shards=shards, query_count=queries, item_count=items,
            source_count=sources, trace_length=steps + 2, seed=seed,
            algorithm=algorithm, workload=workload,
            journal_dir=journal_dir, snapshot_every=snapshot_every,
            fsync=fsync, clock=clock, lease_duration=lease_duration,
            suspect_drift_rel=suspect_drift_rel,
            dab_retry_policy=RetryPolicy(base_delay=1.0, backoff=1.5,
                                         max_delay=4.0, max_attempts=6),
            solver_breaker_factory=lambda sid: CircuitBreaker(
                failure_threshold=3, reset_timeout=6.0, clock=clock),
        )
        reshard = schedule_name == "reshard"
        kill_handler = None
        supervisor = None
        if kill_steps or reshard:
            supervisor = ShardSupervisor(cluster)
            active = list(cluster.decomposition.active_shards)
            rotation = {"next": 0}

            if reshard:
                async def kill_handler(step: int) -> None:
                    # Undetected crash: the router's plumbing keeps
                    # pointing at the corpse, and only the health
                    # monitor's heartbeat deadline brings the shard
                    # back — its recovery record arrives via step_hook.
                    sid = active[rotation["next"] % len(active)]
                    rotation["next"] += 1
                    await supervisor.crash(sid)
                    return None
            else:
                async def kill_handler(step: int) -> Dict[str, Any]:
                    sid = active[rotation["next"] % len(active)]
                    rotation["next"] += 1
                    return await supervisor.kill_and_restore(sid)
            if not kill_steps:
                kill_handler = None

        monitor = None
        migrator = None
        step_hook = None
        hold_tail = None
        if reshard:
            from repro.service.cluster.health import ShardHealthMonitor
            from repro.service.cluster.migration import ShardMigrator

            monitor = ShardHealthMonitor(cluster, supervisor, clock=clock,
                                         deadline=2.0, max_misses=2)
            migrator = ShardMigrator(cluster, clock=clock)

            async def step_hook(step: int) -> Dict[str, Any]:
                result: Dict[str, Any] = {"fault": False, "restarts": []}
                if step == _RESHARD_MIGRATE_STEP:
                    # One start() per move: the plan's order matters
                    # (a batch is queued by item name).
                    for item, target in _plan_reshard_moves(cluster).items():
                        migrator.start({item: target})
                record = await migrator.tick()
                if record is not None:
                    # Cutover: the map epoch bumped and buffered
                    # refreshes just flushed — hold audits for a margin.
                    result["fault"] = True
                for failover in await monitor.poll():
                    result["restarts"].append(failover)
                    result["fault"] = True
                return result

            def hold_tail() -> bool:
                return migrator.active or bool(monitor.suspected_at)

        server = cluster
        topology = dict(kill_handler=kill_handler, step_hook=step_hook,
                        hold_tail=hold_tail)
    else:
        def make_server():
            """One coordinator incarnation — the same scenario every time
            (seed-derived), journaled when ``journal_dir`` is set.
            Journaled servers defer bootstrap to :meth:`restore`."""
            journal = (Journal(journal_dir, fsync=fsync,
                               snapshot_every=snapshot_every)
                       if journal_dir is not None else None)
            return build_scenario_server(
                query_count=queries, item_count=items, source_count=sources,
                trace_length=steps + 2, seed=seed, algorithm=algorithm,
                workload=workload,
                lease_duration=lease_duration,
                suspect_drift_rel=suspect_drift_rel,
                dab_retry_policy=RetryPolicy(base_delay=1.0, backoff=1.5,
                                             max_delay=4.0, max_attempts=6),
                solver_breaker=CircuitBreaker(failure_threshold=3,
                                              reset_timeout=6.0, clock=clock),
                clock=clock,
                journal=journal,
                bootstrap=journal is None,
            )

        server, scenario, item_to_source = make_server()
        if server.journal is not None:
            server.restore()
        topology = dict(server_factory=(lambda: make_server()[0])
                        if journal_dir else None)

    report = asyncio.run(_run_async(
        server=server, scenario=scenario, item_to_source=item_to_source,
        injector=FaultInjector(schedule), clock=clock, steps=steps,
        audit_margin=audit_margin, register_timeout=register_timeout,
        kill_steps=kill_steps, **topology,
    ))
    migrated = True
    if shards > 1:
        report["shards"] = shards
        report["active_shards"] = list(cluster.decomposition.active_shards)
        report["queries_per_shard"] = report["server_stats"][
            "queries_per_shard"]
        if reshard:
            completed = [r for r in migrator.records
                         if r.get("outcome") == "completed"]
            shard_fenced = sum(
                srv.stats.get("refreshes_rejected_stale_map_epoch", 0)
                for srv in cluster.shards.values())
            health = monitor.stats_snapshot()
            report["resharding"] = {
                "migrations": [dict(r) for r in migrator.records],
                "moves_requested": migrator.stats["moves_requested"],
                "moves_completed": migrator.stats["moves_completed"],
                "moves_abandoned": migrator.stats["moves_abandoned"],
                "queries_rehomed": sum(len(r["rehomed"]) for r in completed),
                "deferrals": migrator.stats["deferrals"],
                "flushed_refreshes": sum(
                    r.get("flushed_refreshes", 0) for r in completed),
                "migration_steps": latency_percentiles(
                    [r["migration_steps"] for r in completed],
                    (50.0, 95.0)),
                "migration_ms": latency_percentiles(
                    [r["migration_seconds"] * 1000.0 for r in completed],
                    (50.0, 95.0, 99.0)),
                "final_map_epoch": cluster.map_epoch,
                "frames_rejected_by_fencing": {
                    "router": cluster.stats["fenced_frames_rejected"],
                    "shards": shard_fenced,
                },
                "refreshes_frozen": cluster.stats["refreshes_frozen"],
                "health": health,
                "failovers": health["failovers"],
                "detection_to_recovery_steps": latency_percentiles(
                    [e["detection_to_recovery"] for e in monitor.events],
                    (50.0, 95.0)),
            }
            migrated = (migrator.stats["moves_abandoned"] == 0
                        and not migrator.active)
    report["schedule"] = schedule_name
    report["fault_kinds"] = schedule.fault_kinds()
    report["seed"] = seed
    report["queries"] = queries
    report["items"] = items
    report["sources"] = sources
    report["algorithm"] = algorithm
    report["workload"] = workload
    report["lease_duration_steps"] = lease_duration
    if journal_dir is not None:
        report["journal_dir"] = str(journal_dir)
        report["coordinator_recovery"]["kill_steps"] = sorted(
            int(s) for s in kill_steps)
    report["passed"] = (report["qab_violations_unexcused"] == 0
                        and report["degraded_bound_exceeded"] == 0
                        and not report["final_degraded_queries"]
                        and migrated)
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        report["output"] = str(path)
    return report
