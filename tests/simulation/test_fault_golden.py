"""The no-op guarantee and end-to-end fault runs.

Two properties anchor the fault subsystem:

1. **Provable no-op** — with faults disabled (``fault_config=None`` or a
   default ``FaultConfig()``) the simulator must be *bit-identical* to the
   fault-free one: the golden metrics below were first captured on the
   tree before ``repro/simulation/faults.py`` existed, and re-recorded once
   every planner stack planned at the item values it was given, again
   once λ became the per-update whole-trace mean, and again once the
   coordinator priced a query's μ·R row at μ/2 until its window is first
   left (DESIGN.md §4): the dual-DAB and AAO-T rows moved, Optimal
   Refresh's (no μ·R row) did not.
2. **Graceful degradation** — with loss, duplicates and a mid-run crash
   injected, a run completes without exceptions and the staleness /
   uncertainty accounting is internally consistent.
"""

import pytest

from repro.simulation import (
    CrashWindow,
    DisseminationConfig,
    FaultConfig,
    SimulationConfig,
    run_dissemination,
    run_simulation,
)
from repro.workloads import scaled_scenario

# (refreshes, recomputations, fidelity_loss_percent, dab_change_messages,
#  user_notifications, gp_solves) at seed 13, fidelity_interval 2.
GOLDEN = [
    pytest.param(
        dict(qc=5, ic=20, tl=201, sc=4, mu=5.0, kind="portfolio", kw={}),
        (542, 0, 0.0, 0, 18, 0), id="pareto-dual-dab-portfolio"),
    pytest.param(
        dict(qc=5, ic=20, tl=201, sc=4, mu=5.0, kind="arbitrage", kw={}),
        (1465, 1, 0.0, 4, 43, 0), id="pareto-dual-dab-arbitrage"),
    pytest.param(
        dict(qc=5, ic=20, tl=201, sc=4, mu=5.0, kind="portfolio",
             kw=dict(ddm="random_walk")),
        (433, 7, 0.0, 17, 18, 0), id="pareto-dual-dab-random-walk"),
    pytest.param(
        dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio",
             kw=dict(algorithm="optimal_refresh")),
        (228, 797, 0.0, 684, 5, 4), id="pareto-optimal-refresh"),
    pytest.param(
        dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio",
             kw=dict(algorithm="aao_t", aao_period=40)),
        (187, 5, 0.0, 15, 5, 0), id="pareto-aao-40"),
    pytest.param(
        dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio",
             kw=dict(zero_delay=True)),
        (254, 0, 0.0, 0, 6, 0), id="zero-delay-dual-dab"),
]


def _run(spec, fault_config=None):
    scenario = scaled_scenario(query_count=spec["qc"], item_count=spec["ic"],
                               trace_length=spec["tl"], source_count=spec["sc"],
                               seed=13, query_kind=spec["kind"])
    config = SimulationConfig(queries=scenario.queries, traces=scenario.traces,
                              recompute_cost=spec["mu"], source_count=spec["sc"],
                              seed=13, fidelity_interval=2,
                              fault_config=fault_config, **spec["kw"])
    return run_simulation(config).metrics


class TestGoldenIdentity:
    @pytest.mark.parametrize("spec, want", GOLDEN)
    def test_faults_disabled_matches_pre_fault_seed(self, spec, want):
        metrics = _run(spec)
        got = (metrics.refreshes, metrics.recomputations,
               metrics.fidelity_loss_percent, metrics.dab_change_messages,
               metrics.user_notifications, metrics.gp_solves)
        assert got == want
        # No fault machinery ran.  ``duplicate_rejects`` is exempt: the
        # epoch guard fires on genuinely reordered DAB-changes even on a
        # fault-free Pareto network — that is the reorder bug fix, and the
        # goldens above prove it leaves every pre-PR metric untouched.
        counters = metrics.fault_counters()
        counters.pop("duplicate_rejects")
        assert counters == {name: 0 for name in counters}

    def test_default_fault_config_is_bit_identical_to_none(self):
        """A disabled ``FaultConfig()`` must not perturb a single metric —
        the whole fault machinery is a provable no-op when off."""
        spec = dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio",
                    kw=dict(zero_delay=True))
        baseline = _run(spec, fault_config=None)
        disabled = _run(spec, fault_config=FaultConfig())
        assert disabled == baseline   # full dataclass equality, every field

    def test_default_fault_config_noop_under_pareto_delays(self):
        spec = dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio", kw={})
        assert _run(spec, fault_config=FaultConfig()) == _run(spec)


class TestFaultedRuns:
    def test_lossy_crashy_run_completes_with_consistent_accounting(self):
        """The acceptance scenario: 5% loss, duplicates, one mid-run crash."""
        spec = dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio", kw={})
        faults = FaultConfig(loss_rate=0.05, duplicate_rate=0.02,
                             crash_windows=(CrashWindow(1, 40.0, 70.0),),
                             seed=5)
        metrics = _run(spec, fault_config=faults)
        assert metrics.duration_ticks == 121   # every tick ran to completion
        assert metrics.messages_dropped > 0
        assert metrics.heartbeats > 0
        assert metrics.recovery_resyncs == 1
        # The crashed source goes quiet for 30 s >> the 20 s lease: its
        # items must have been detected and probed.
        assert metrics.lease_expiries + metrics.refresh_gaps > 0
        assert metrics.value_probes > 0
        assert metrics.staleness_exposure_seconds > 0.0
        # Degraded answers are counted, and the widened bound should cover
        # the truth in all but rare cases.
        assert metrics.degraded_samples > 0
        assert metrics.uncertainty_violations <= metrics.degraded_samples
        # Retries only exist where deliveries can be lost.
        assert metrics.dab_retries >= 0
        assert metrics.dab_retry_exhausted <= metrics.dab_retries

    def test_loss_alone_triggers_gap_detection(self):
        """With loss but no crash, heartbeat sequence gaps are the only way
        the coordinator can notice lost refreshes — they must fire."""
        spec = dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio",
                    kw=dict(ddm="random_walk"))
        faults = FaultConfig(loss_rate=0.15, seed=9)
        metrics = _run(spec, fault_config=faults)
        assert metrics.messages_dropped > 0
        assert metrics.refresh_gaps > 0
        assert metrics.value_probes > 0

    def test_fault_seed_reproducibility(self):
        spec = dict(qc=4, ic=16, tl=121, sc=3, mu=2.0, kind="portfolio", kw={})
        faults = FaultConfig(loss_rate=0.1, duplicate_rate=0.05, seed=21)
        assert _run(spec, fault_config=faults) == _run(spec, fault_config=faults)

    def test_dissemination_survives_loss(self):
        scenario = scaled_scenario(query_count=4, item_count=20,
                                   trace_length=81, source_count=2, seed=3)
        config = DisseminationConfig(
            queries=scenario.queries, traces=scenario.traces,
            coordinator_count=3, source_count=2, seed=3,
            fault_config=FaultConfig(loss_rate=0.1, seed=4))
        result = run_dissemination(config)
        assert result.metrics.duration_ticks == 81
        assert result.metrics.messages_dropped > 0
