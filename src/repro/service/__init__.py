"""Live service layer: the paper's architecture over real sockets.

The discrete-event simulator proves the planning algorithms; this package
*deploys* them.  It contains:

* :mod:`repro.service.core` — :class:`~repro.service.core.CoordinatorCore`,
  the protocol-agnostic planning/recomputation state machine shared with
  the simulator's coordinator (which is now a thin event-loop adapter
  over it);
* :mod:`repro.service.protocol` — the framed, versioned wire protocol
  (length-prefixed JSON messages);
* :mod:`repro.service.transports` — asyncio byte-stream plumbing, a
  byte-faithful in-process loopback transport, and the in-process
  message link (no bytes) behind every ``connect_loopback()``;
* :mod:`repro.service.frontend` — the wire-facing half every node
  that accepts peers inherits (server, cluster router, broker): the
  accept/validate/dispatch/teardown peer loop over a per-node handler
  table, the bounded-queue subscriber plane with slow-consumer
  eviction, and acked/retried DAB_UPDATE delivery;
* :mod:`repro.service.server` — the asyncio
  :class:`~repro.service.server.CoordinatorServer`;
* :mod:`repro.service.agent` — the :class:`~repro.service.agent.SourceAgent`
  push source (trace replay or programmatic ticks, local primary-DAB
  filtering, reconnect-with-resync);
* :mod:`repro.service.client` — the
  :class:`~repro.service.client.ServiceClient` subscriber SDK;
* :mod:`repro.service.loadgen` — the N-sources × M-subscribers load
  generator behind ``repro loadgen``;
* :mod:`repro.service.chaos` — seeded wire-level fault injection
  (:class:`~repro.service.chaos.FaultSchedule`,
  :class:`~repro.service.chaos.FaultInjector`) that composes with any
  transport;
* :mod:`repro.service.resilience` — :class:`~repro.service.resilience.RetryPolicy`
  backoff and the :class:`~repro.service.resilience.CircuitBreaker` guarding
  the solver;
* :mod:`repro.service.soak` — the chaos soak harness behind
  ``repro chaos-soak``, auditing end-to-end QAB correctness under faults;
* :mod:`repro.service.cluster` — the sharded coordinator cluster: stable
  item hashing, whole-query placement (one home shard per query), the
  :class:`~repro.service.cluster.router.ClusterCoordinator` shard
  router, the NOTIFY fan-out broker tier and journal-backed shard
  failover (``repro cluster serve``/``loadgen``,
  ``repro chaos-soak --shards N``).

Only ``core`` and ``protocol`` are imported eagerly: the simulator imports
:class:`CoordinatorCore` from here, and the asyncio modules import the
simulator (for planners and metrics), so the heavier modules load lazily
to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.service.core import CoordinatorCore
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    MessageType,
    ProtocolError,
    encode_frame,
)

__all__ = [
    "CoordinatorCore",
    "FrameDecoder",
    "MessageType",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "encode_frame",
    # lazily loaded:
    "CoordinatorServer",
    "SourceAgent",
    "ServiceClient",
    "run_loadgen",
    "loopback_pair",
    "MessageStream",
    "FaultSchedule",
    "FaultInjector",
    "chaos_stream",
    "chaos_loopback_pair",
    "RetryPolicy",
    "RetryExhausted",
    "CircuitBreaker",
    "BreakerState",
    "retry_async",
    "run_chaos_soak",
    "ClusterCoordinator",
    "build_scenario_cluster",
    "ShardMap",
    "stable_shard",
]

_LAZY = {
    "CoordinatorServer": ("repro.service.server", "CoordinatorServer"),
    "SourceAgent": ("repro.service.agent", "SourceAgent"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "run_loadgen": ("repro.service.loadgen", "run_loadgen"),
    "loopback_pair": ("repro.service.transports", "loopback_pair"),
    "MessageStream": ("repro.service.transports", "MessageStream"),
    "FaultSchedule": ("repro.service.chaos", "FaultSchedule"),
    "FaultInjector": ("repro.service.chaos", "FaultInjector"),
    "chaos_stream": ("repro.service.chaos", "chaos_stream"),
    "chaos_loopback_pair": ("repro.service.chaos", "chaos_loopback_pair"),
    "RetryPolicy": ("repro.service.resilience", "RetryPolicy"),
    "RetryExhausted": ("repro.service.resilience", "RetryExhausted"),
    "CircuitBreaker": ("repro.service.resilience", "CircuitBreaker"),
    "BreakerState": ("repro.service.resilience", "BreakerState"),
    "retry_async": ("repro.service.resilience", "retry_async"),
    "run_chaos_soak": ("repro.service.soak", "run_chaos_soak"),
    "ClusterCoordinator": ("repro.service.cluster.router",
                           "ClusterCoordinator"),
    "build_scenario_cluster": ("repro.service.cluster.router",
                               "build_scenario_cluster"),
    "ShardMap": ("repro.service.cluster.routing", "ShardMap"),
    "stable_shard": ("repro.service.cluster.routing", "stable_shard"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
