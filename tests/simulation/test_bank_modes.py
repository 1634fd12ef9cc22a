"""End-to-end bank-index mode contract (ISSUE 8).

Mirrors ``test_recompute_modes.py`` for the ``bank_index`` axis:

1. **Golden bit-identity** — ``bank_index="flat"`` (the default) runs the
   exact pre-index code path; the golden tuple from the recompute
   suite must still hold when the flag is passed explicitly.
2. **Observable equivalence** — a shared-index run over a high-overlap
   query bank matches the flat run on *every* simulation-visible metric;
   only the mode-dependent bank stats fields (``bank_templates``,
   ``bank_dedup_ratio``) may differ.
3. **Stats plane** — dedup figures surface through ``SimulationResult``
   and ``SimulationMetrics`` in shared mode and stay inert in flat mode.
"""

import dataclasses

import pytest

from repro.exceptions import SimulationError
from repro.simulation import SimulationConfig, run_simulation
from repro.workloads import generate_template_bank, scaled_scenario

# Same pinned tuple as tests/simulation/test_recompute_modes.GOLDEN_FULL:
# explicit --bank-index flat may not move it.
GOLDEN_FULL = (2499, 75, 0.0, 166, 946, 81)

BANK_QUERIES = 24
BANK_STRUCTURES = 4


def _golden_config(bank_index):
    scenario = scaled_scenario(query_count=6, item_count=20, trace_length=151,
                               source_count=4, seed=13, volatility=0.02)
    return SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                            recompute_cost=5.0, source_count=4, seed=13,
                            fidelity_interval=2,
                            bank_index=bank_index)


def _bank_config(bank_index):
    """A high-overlap bank: 24 queries over 4 monomial structures."""
    scenario = scaled_scenario(query_count=2, item_count=20, trace_length=121,
                               source_count=4, seed=13, volatility=0.02)
    queries = generate_template_bank(scenario.registry,
                                     scenario.initial_values,
                                     count=BANK_QUERIES,
                                     distinct_structures=BANK_STRUCTURES,
                                     seed=3)
    return SimulationConfig(queries=queries, traces=scenario.traces,
                            recompute_cost=5.0, source_count=4, seed=13,
                            fidelity_interval=2,
                            bank_index=bank_index)


@pytest.fixture(scope="module")
def flat_result():
    return run_simulation(_bank_config("flat"))


@pytest.fixture(scope="module")
def shared_result():
    return run_simulation(_bank_config("shared"))


class TestGoldenIdentity:
    def test_explicit_flat_matches_golden(self):
        m = run_simulation(_golden_config("flat")).metrics
        got = (m.refreshes, m.recomputations, m.fidelity_loss_percent,
               m.dab_change_messages, m.user_notifications, m.gp_solves)
        assert got == GOLDEN_FULL


class TestModeEquivalence:
    def test_shared_differs_only_in_bank_stats_fields(self, flat_result,
                                                      shared_result):
        allowed = {"bank_templates", "bank_dedup_ratio"}
        for field in dataclasses.fields(flat_result.metrics):
            if field.name in allowed:
                continue
            flat_value = getattr(flat_result.metrics, field.name)
            shared_value = getattr(shared_result.metrics, field.name)
            assert shared_value == flat_value, (
                f"shared index changed simulation-visible metric "
                f"{field.name!r}")

    def test_workload_actually_notifies_and_recomputes(self, flat_result):
        # Equivalence over a silent run would prove nothing.
        m = flat_result.metrics
        assert m.user_notifications > 0
        assert m.recomputations > 0


class TestStatsPlane:
    def test_shared_reports_dedup(self, shared_result):
        assert shared_result.bank_index == "shared"
        stats = shared_result.bank_stats
        assert stats is not None
        assert stats["distinct_structures"] == BANK_STRUCTURES
        assert stats["queries"] == BANK_QUERIES
        assert stats["dedup_ratio"] == BANK_QUERIES / BANK_STRUCTURES
        assert stats["structure_hits"] == BANK_QUERIES - BANK_STRUCTURES
        assert stats["appends"] == BANK_QUERIES
        assert shared_result.metrics.bank_templates == BANK_STRUCTURES
        assert (shared_result.metrics.bank_dedup_ratio
                == BANK_QUERIES / BANK_STRUCTURES)

    def test_screening_counters_move(self, shared_result):
        stats = shared_result.bank_stats
        assert stats["screen_evaluated"] > 0
        assert stats["template_syncs"] > 0

    def test_flat_mode_is_inert(self, flat_result):
        assert flat_result.bank_index == "flat"
        assert flat_result.bank_stats is None
        assert flat_result.metrics.bank_templates == 0
        assert flat_result.metrics.bank_dedup_ratio == 0.0


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        scenario = scaled_scenario(query_count=2, item_count=20,
                                   trace_length=41, source_count=2, seed=1)
        with pytest.raises(SimulationError, match="bank_index"):
            SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                             source_count=2, seed=1, bank_index="hashed")
