"""Trace-driven discrete-event simulator.

Reproduces the paper's evaluation environment (Section V):

* push sources enforcing primary DABs against their traces
  (:mod:`~repro.simulation.source`),
* a coordinator caching values, serving queries, notifying users and
  recomputing DABs per policy (:mod:`~repro.simulation.coordinator`),
* heavy-tailed Pareto network and computation delays
  (:mod:`~repro.simulation.network`),
* fidelity / refresh / recomputation / total-cost metrics
  (:mod:`~repro.simulation.metrics`),
* a one-call harness (:mod:`~repro.simulation.harness`), and
* the multi-coordinator dissemination network of Figure 8(c)
  (:mod:`~repro.simulation.dissemination`).

Ticks are seconds (the traces' native resolution); message delays are
fractional seconds, so events are kept on a continuous timeline.
"""

from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.faults import (
    CrashWindow,
    DelaySpike,
    FaultConfig,
    FaultModel,
    PartitionWindow,
    parse_crash_spec,
    parse_delay_spike_spec,
    parse_partition_spec,
)
from repro.simulation.network import (
    ConstantDelayModel,
    DelayModel,
    ParetoDelayModel,
    ZeroDelayModel,
)
from repro.simulation.metrics import MetricsCollector, QueryFidelity, SimulationMetrics
from repro.simulation.source import SourceNode, assign_items_to_sources
from repro.simulation.coordinator import Coordinator
from repro.simulation.harness import (
    AlgorithmName,
    SimulationConfig,
    SimulationResult,
    run_simulation,
)
from repro.simulation.dissemination import DisseminationConfig, run_dissemination

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "CrashWindow",
    "DelaySpike",
    "FaultConfig",
    "FaultModel",
    "PartitionWindow",
    "parse_crash_spec",
    "parse_delay_spike_spec",
    "parse_partition_spec",
    "DelayModel",
    "ParetoDelayModel",
    "ConstantDelayModel",
    "ZeroDelayModel",
    "MetricsCollector",
    "QueryFidelity",
    "SimulationMetrics",
    "SourceNode",
    "assign_items_to_sources",
    "Coordinator",
    "AlgorithmName",
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
    "DisseminationConfig",
    "run_dissemination",
]
