"""Shard health: heartbeat failure detection driving automatic failover.

The :class:`ShardHealthMonitor` watches each shard's aggregation trunk
through the router's ``shard_last_seen`` table (every valid trunk frame
— NOTIFY, SNAPSHOT, probe reply — is proof of life).  Detection is the
classic *deadline + miss count* detector, deterministic under any clock
the cluster runs on (wall time in production, the chaos soak's logical
step clock in tests):

1. Each :meth:`poll`, a shard whose trunk has been silent longer than
   ``deadline`` accrues one *miss* — but first the monitor sends a
   read-only SNAPSHOT probe down the trunk, so a healthy-but-quiet
   shard (no value changed, nothing to notify) proves itself before the
   next poll.  A probe that cannot even be sent (trunk gone) is itself
   a strong miss.
2. At ``max_misses`` consecutive misses the shard is *suspected*: the
   router immediately serves every query the shard homes with an
   honestly widened bound (``cluster.mark_shard_suspect`` — degraded,
   never silently stale).
3. With ``auto_failover`` (the default), suspicion triggers
   ``supervisor.fail_over``: the corpse's plumbing is detached, the
   shard is journal-restored, re-attached, and the real sources are
   probed for resync — no operator in the loop.
4. Suspicion clears on the first poll that sees trunk life again; the
   detection → recovery interval is recorded per event (the
   ``resharding`` bench section reports its percentiles).

A cluster that never misses a deadline never takes any action here:
probes are read-only and state untouched, so a no-failure run with the
monitor attached is bit-identical to one without it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ReproError
from repro.service import protocol
from repro.service.cluster.router import ClusterCoordinator
from repro.service.cluster.supervisor import ShardSupervisor

#: Bounded event history (mirrors the supervisor's recovery history).
HEALTH_EVENT_LIMIT = 64


class ShardHealthMonitor:
    """Deadline/miss-count failure detector over the shard trunks."""

    def __init__(self, cluster: ClusterCoordinator,
                 supervisor: Optional[ShardSupervisor] = None,
                 clock: Optional[Callable[[], float]] = None,
                 deadline: float = 2.0,
                 max_misses: int = 2,
                 auto_failover: bool = True):
        if auto_failover and supervisor is None:
            raise ReproError(
                "auto_failover needs a ShardSupervisor (journaled "
                "cluster); pass auto_failover=False to only detect")
        if deadline <= 0 or max_misses < 1:
            raise ReproError("deadline must be > 0 and max_misses >= 1")
        self.cluster = cluster
        self.supervisor = supervisor
        self.clock = clock if clock is not None else cluster.clock
        self.deadline = float(deadline)
        self.max_misses = int(max_misses)
        self.auto_failover = bool(auto_failover)
        #: sid -> consecutive misses (absent = healthy).
        self.misses: Dict[int, int] = {}
        #: sid -> clock() when suspicion fired (absent = not suspect).
        self.suspected_at: Dict[int, float] = {}
        #: Completed detection→recovery events (bounded tail).
        self.events: List[Dict[str, Any]] = []
        self.stats: Dict[str, int] = {
            "polls": 0,
            "probes_sent": 0,
            "misses": 0,
            "suspicions": 0,
            "failovers": 0,
            "recoveries": 0,
        }
        cluster.health = self

    async def _probe(self, sid: int) -> bool:
        """Ask the silent shard for a read-only SNAPSHOT over its trunk.
        The reply lands in the trunk listener, refreshing
        ``shard_last_seen`` before the next poll.  Returns False when
        the probe could not even be sent."""
        trunk = self.cluster._trunks.get(sid)
        if trunk is None or not trunk.connected:
            return False
        if not await self.cluster._safe_send(trunk.stream,
                                             protocol.snapshot()):
            return False
        self.stats["probes_sent"] += 1
        return True

    async def poll(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """One detector sweep; returns the failover records it caused.

        Deterministic: shards are visited in sorted order, and all time
        arithmetic uses the injected clock — under the chaos soak's
        logical step clock the same fault schedule always detects and
        recovers on the same steps."""
        now = self.clock() if now is None else now
        self.stats["polls"] += 1
        records: List[Dict[str, Any]] = []
        for sid in sorted(self.cluster.shards):
            last = self.cluster.shard_last_seen.get(sid)
            if last is not None and now - last <= self.deadline:
                self.misses.pop(sid, None)
                suspected = self.suspected_at.pop(sid, None)
                if suspected is not None:
                    # Back from the dead (failover completed and the
                    # trunk shows life): unflag and log the event.
                    self.stats["recoveries"] += 1
                    self.cluster.clear_shard_suspect(sid)
                    self.events.append({
                        "shard": sid,
                        "suspected_at": suspected,
                        "recovered_at": now,
                        "detection_to_recovery": now - suspected,
                    })
                    del self.events[:-HEALTH_EVENT_LIMIT]
                continue
            missed = self.misses.get(sid, 0) + 1
            self.misses[sid] = missed
            self.stats["misses"] += 1
            # Give a quiet-but-healthy shard the chance to answer before
            # the next poll; an unsendable probe stays a miss.
            await self._probe(sid)
            if missed < self.max_misses:
                continue
            if sid not in self.suspected_at:
                self.suspected_at[sid] = now
                self.stats["suspicions"] += 1
                self.cluster.mark_shard_suspect(sid)
            if not self.auto_failover:
                continue
            if self.supervisor is not None:
                record = dict(await self.supervisor.fail_over(sid))
                record["detected_at"] = now
                record["misses"] = missed
                self.stats["failovers"] += 1
                self.misses.pop(sid, None)
                records.append(record)
        return records

    def stats_snapshot(self) -> Dict[str, Any]:
        return {
            **self.stats,
            "deadline": self.deadline,
            "max_misses": self.max_misses,
            "auto_failover": self.auto_failover,
            "suspect_shards": sorted(self.suspected_at),
            "events": [dict(event) for event in self.events[-HEALTH_EVENT_LIMIT:]],
        }
