"""Sharded coordinator cluster: router, budget decomposition, brokers.

One :class:`~repro.service.server.CoordinatorServer` owns every item and
query in the single-node deployment.  This package partitions the item
space across N coordinator *shards*, homes every query whole on one of
them, and keeps the paper's accuracy contract intact end to end:

* :mod:`repro.service.cluster.routing` — the stable item → shard hash
  (CRC32, immune to ``PYTHONHASHSEED``) and the :class:`ShardMap`;
* :mod:`repro.service.cluster.router` — the
  :class:`~repro.service.cluster.router.ClusterCoordinator`: a protocol
  peer that impersonates each source toward the owning shards, routes
  ``REFRESH``/``HEARTBEAT`` traffic (to an item's owner and to every
  shard it is mirrored on), min-merges per-shard primary DABs back to
  the real sources — the paper's EQI, since every query is planned
  whole on the home shard :mod:`repro.filters.shard_budget` gives it —
  and passes each home's served value through to subscribers;
* :mod:`repro.service.cluster.broker` — the subscriber fan-out tier:
  dedicated :class:`NotifyBroker` relays with bounded per-subscriber
  queues and slow-consumer eviction, so NOTIFY delivery to 10^4–10^5
  clients never rides a shard's event loop;
* :mod:`repro.service.cluster.supervisor` — journal-backed shard
  failover: kill a shard, restore it from its own WAL/snapshot, and
  force sources to resync through the existing probe path;
* :mod:`repro.service.cluster.health` — the heartbeat failure detector
  (:class:`ShardHealthMonitor`): deadline + miss-count suspicion over
  the shard trunks, honest degraded bounds while suspect, automatic
  journal-restore failover with no operator in the loop;
* :mod:`repro.service.cluster.migration` — epoch-fenced live
  resharding (:class:`ShardMigrator`): freeze → hand-off → cutover per
  item, with the map epoch stamped on routed frames so a lagging shard
  can never double-own an item; queries whose spread the move changes
  are re-homed whole and re-announced at cutover.

Everything is lazily exported, mirroring :mod:`repro.service`.
"""

from __future__ import annotations

from repro.service.cluster.routing import ShardMap, stable_shard

__all__ = [
    "ShardMap",
    "stable_shard",
    # lazily loaded:
    "ClusterCoordinator",
    "build_scenario_cluster",
    "NotifyBroker",
    "BrokerTier",
    "ShardSupervisor",
    "ShardHealthMonitor",
    "ShardMigrator",
]

_LAZY = {
    "ClusterCoordinator": ("repro.service.cluster.router", "ClusterCoordinator"),
    "build_scenario_cluster": ("repro.service.cluster.router",
                               "build_scenario_cluster"),
    "NotifyBroker": ("repro.service.cluster.broker", "NotifyBroker"),
    "BrokerTier": ("repro.service.cluster.broker", "BrokerTier"),
    "ShardSupervisor": ("repro.service.cluster.supervisor", "ShardSupervisor"),
    "ShardHealthMonitor": ("repro.service.cluster.health", "ShardHealthMonitor"),
    "ShardMigrator": ("repro.service.cluster.migration", "ShardMigrator"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
