"""The reference-equivalence contract (DESIGN.md §8).

Every hot path — slab-scanned source ticks, compiled query evaluators,
the safe-band window screen, compiled-GP templates — must be *bitwise*
identical to the reference definitions (``PolynomialQuery.evaluate``,
``DABAssignment.window_contains``, ``Trace.at``).  These tests pin the
contract end to end: a full simulation run must produce the exact same
``SimulationMetrics`` dataclass, field for field, as the run recorded on
the same config (see ``tests/golden.py`` for where the records come
from).
"""

import pytest

from repro.simulation import (
    CrashWindow,
    FaultConfig,
    SimulationConfig,
    run_simulation,
)
from repro.workloads import scaled_scenario
from tests.golden import assert_matches_reference


def _assert_identical(golden_id, seed, **kw):
    scenario = scaled_scenario(query_count=4, item_count=16, trace_length=121,
                               source_count=3, seed=seed,
                               query_kind=kw.pop("query_kind", "portfolio"))
    config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                              recompute_cost=2.0, source_count=3, seed=seed,
                              fidelity_interval=2, **kw)
    assert_matches_reference(run_simulation(config).metrics, golden_id)


@pytest.mark.parametrize("seed", [13, 29])
def test_dual_dab_identical(seed):
    _assert_identical(f"dual-dab-{seed}", seed)


@pytest.mark.parametrize("seed", [13, 29])
def test_optimal_refresh_identical(seed):
    _assert_identical(f"optimal-refresh-{seed}", seed,
                      algorithm="optimal_refresh")


def test_random_walk_identical():
    _assert_identical("random-walk", 13, ddm="random_walk")


def test_zero_delay_identical():
    _assert_identical("zero-delay", 13, zero_delay=True)


def test_arbitrage_mixed_sign_identical():
    # Mixed-sign queries exercise the Different-Sum mirror through the
    # compiled templates.
    _assert_identical("arbitrage", 13, query_kind="arbitrage")


def test_faulted_run_identical():
    # Loss, duplicates and a mid-run crash: the source slab and the
    # warm-start clearing on resync must replay the reference run exactly.
    faults = FaultConfig(loss_rate=0.05, duplicate_rate=0.02,
                         crash_windows=(CrashWindow(1, 40.0, 70.0),),
                         seed=5)
    _assert_identical("faulted", 13, fault_config=faults)
