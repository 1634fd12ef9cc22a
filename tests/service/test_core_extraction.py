"""The Coordinator/CoordinatorCore split, pinned.

Bit-identical *metrics* across the extraction are pinned by the golden
fault suite and the reference-equivalence suite (which predate the
split).  These tests pin the *structure*: the
simulator's coordinator really is a thin adapter over the shared core,
and the core stays importable without dragging the simulator in.
"""

import pathlib

from repro.service.core import CoordinatorCore, RecomputeMode
from repro.simulation import coordinator as sim_coordinator
from repro.simulation.harness import SimulationConfig, run_simulation
from repro.workloads import scaled_scenario
from tests.golden import assert_matches_reference


def test_recompute_mode_is_the_same_object():
    assert sim_coordinator.RecomputeMode is RecomputeMode


def test_core_module_does_not_import_the_simulator():
    # The simulator's coordinator imports repro.service.core; the reverse
    # direction would be a cycle.  Pin it at the source level: neither the
    # core nor the protocol/transport layer may mention repro.simulation.
    import repro.service.core as core_module
    import repro.service.protocol as protocol_module
    import repro.service.transports as transports_module

    for module in (core_module, protocol_module, transports_module):
        source = pathlib.Path(module.__file__).read_text()
        assert "import repro.simulation" not in source, module.__name__
        assert "from repro.simulation" not in source, module.__name__


def _small_config():
    scenario = scaled_scenario(query_count=3, item_count=20, trace_length=61,
                               source_count=2, seed=7)
    return SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                            algorithm="dual_dab", duration=40,
                            source_count=2, seed=7)


def test_simulator_coordinator_wraps_a_core():
    config = _small_config()
    # run_simulation constructs the Coordinator internally; build one the
    # same way and inspect the adapter surface.
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.harness import _SINGLE_DAB_MODES, build_planner
    from repro.dynamics.estimation import estimate_rates
    from repro.filters.cost_model import CostModel
    from repro.simulation.coordinator import Coordinator
    from repro.simulation.metrics import MetricsCollector
    from repro.simulation.network import ZeroDelayModel
    from repro.simulation.source import assign_items_to_sources

    items = config.used_items
    rates = estimate_rates(config.traces, config.rate_estimator, items)
    planner = build_planner(config, CostModel(ddm=config.ddm, rates=rates,
                                              recompute_cost=config.recompute_cost))
    engine = SimulationEngine(config.duration, config.fidelity_interval)
    coordinator = Coordinator(
        queries=config.queries, planner=planner,
        mode=_SINGLE_DAB_MODES[config.algorithm], queue=engine.queue,
        metrics=MetricsCollector(recompute_cost=config.recompute_cost),
        initial_values=config.traces.initial_values(items),
        item_to_source=assign_items_to_sources(items, 2),
        network_delay=ZeroDelayModel(),
    )
    assert isinstance(coordinator.core, CoordinatorCore)
    # Delegated state is shared, not copied.
    assert coordinator.cache is coordinator.core.cache
    assert coordinator.plans is coordinator.core.plans
    assert coordinator.epochs is coordinator.core.epochs
    assert coordinator.item_to_source is coordinator.core.item_to_source
    assert coordinator.queries is coordinator.core.queries


def test_extraction_preserves_run_metrics_scalar_vs_vector():
    # Belt and braces on top of the golden suite: a fresh end-to-end run
    # through the shared core equals the recorded scalar reference run.
    assert_matches_reference(run_simulation(_small_config()).metrics,
                             "core-extraction")
