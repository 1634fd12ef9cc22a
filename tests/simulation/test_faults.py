"""Tests for the fault-injection model (config validation, substream
determinism, window semantics, CLI spec parsing)."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation import (
    CrashWindow,
    DelaySpike,
    FaultConfig,
    FaultModel,
    PartitionWindow,
    parse_crash_spec,
    parse_delay_spike_spec,
    parse_partition_spec,
)
from repro.simulation.faults import DISABLED


class TestFaultConfig:
    def test_default_is_disabled(self):
        assert not FaultConfig().enabled

    @pytest.mark.parametrize("kwargs", [
        dict(loss_rate=0.01),
        dict(duplicate_rate=0.05),
        dict(crash_windows=(CrashWindow(0, 10.0, 20.0),)),
        dict(partitions=(PartitionWindow(5.0, 6.0),)),
        dict(delay_spikes=(DelaySpike(5.0, 6.0, 3.0),)),
    ])
    def test_any_channel_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    @pytest.mark.parametrize("kwargs", [
        dict(loss_rate=1.0),
        dict(loss_rate=-0.1),
        dict(duplicate_rate=1.5),
        dict(lease_duration=0.0),
        dict(heartbeat_interval=-1.0),
        dict(lease_check_interval=0.0),
        dict(duplicate_rate=-0.1),
        dict(suspect_drift_rel=-0.5),
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            FaultConfig(**kwargs)

    def test_bad_windows_rejected(self):
        with pytest.raises(SimulationError):
            CrashWindow(0, 10.0, 10.0)
        with pytest.raises(SimulationError):
            PartitionWindow(-1.0, 5.0)
        with pytest.raises(SimulationError):
            DelaySpike(0.0, 5.0, factor=0.5)

    def test_windows_normalised_to_tuples(self):
        config = FaultConfig(crash_windows=[CrashWindow(0, 1.0, 2.0)])
        assert isinstance(config.crash_windows, tuple)


class TestFaultModelDecisions:
    def test_disabled_is_inert_and_draws_no_rng(self):
        model = FaultModel(FaultConfig())
        assert not model.drop("src0->coord", 1.0)
        assert not model.duplicate("src0->coord", 1.0)
        assert model.delay_factor(1.0) == 1.0
        assert not model.is_crashed(0, 1.0)
        # The no-op guarantee: no per-link stream was ever created.
        assert model._streams == {}
        assert DISABLED._streams == {}

    def test_same_seed_reproduces_decisions(self):
        config = FaultConfig(loss_rate=0.3, seed=42)
        first, second = FaultModel(config), FaultModel(config)
        a = [first.drop("src0->coord", float(t)) for t in range(50)]
        b = [second.drop("src0->coord", float(t)) for t in range(50)]
        assert a == b
        assert any(a) and not all(a)  # 30% loss actually fires sometimes

    def test_different_seeds_differ(self):
        m1 = FaultModel(FaultConfig(loss_rate=0.3, seed=1))
        m2 = FaultModel(FaultConfig(loss_rate=0.3, seed=2))
        s1 = [m1.drop("l", float(t)) for t in range(100)]
        s2 = [m2.drop("l", float(t)) for t in range(100)]
        assert s1 != s2

    def test_links_are_independent_substreams(self):
        """Interleaving draws on link B must not perturb link A's stream."""
        config = FaultConfig(loss_rate=0.3, seed=7)
        alone = FaultModel(config)
        seq_alone = [alone.drop("src0->coord", float(t)) for t in range(40)]

        mixed = FaultModel(config)
        seq_mixed = []
        for t in range(40):
            mixed.drop("src1->coord", float(t))   # extra traffic elsewhere
            seq_mixed.append(mixed.drop("src0->coord", float(t)))
            mixed.drop("coord->src2", float(t))
        assert seq_mixed == seq_alone

    def test_partition_drops_everything_inside_window(self):
        model = FaultModel(FaultConfig(partitions=(PartitionWindow(10.0, 20.0),)))
        assert model.drop("any-link", 10.0)
        assert model.drop("other-link", 19.999)
        assert not model.drop("any-link", 9.999)
        assert not model.drop("any-link", 20.0)  # half-open interval

    def test_crash_window_is_per_source(self):
        model = FaultModel(FaultConfig(crash_windows=(CrashWindow(2, 5.0, 9.0),)))
        assert model.is_crashed(2, 5.0)
        assert model.is_crashed(2, 8.9)
        assert not model.is_crashed(2, 9.0)
        assert not model.is_crashed(1, 6.0)

    def test_delay_spike_takes_max_factor(self):
        model = FaultModel(FaultConfig(delay_spikes=(
            DelaySpike(0.0, 10.0, 3.0), DelaySpike(5.0, 15.0, 8.0))))
        assert model.delay_factor(2.0) == 3.0
        assert model.delay_factor(7.0) == 8.0   # overlapping: worst wins
        assert model.delay_factor(12.0) == 8.0
        assert model.delay_factor(20.0) == 1.0

    def test_duplicate_draws_separately_from_drop(self):
        config = FaultConfig(duplicate_rate=0.5, seed=3)
        model = FaultModel(config)
        decisions = [model.duplicate("l", 0.0) for _ in range(100)]
        assert any(decisions) and not all(decisions)


class TestSpecParsing:
    def test_crash_spec(self):
        windows = parse_crash_spec("2:100:160, 5:200:260")
        assert windows == (CrashWindow(2, 100.0, 160.0),
                           CrashWindow(5, 200.0, 260.0))

    def test_partition_spec(self):
        assert parse_partition_spec("50:80") == (PartitionWindow(50.0, 80.0),)

    def test_delay_spike_spec_with_default_factor(self):
        spikes = parse_delay_spike_spec("50:80:10,90:95")
        assert spikes[0] == DelaySpike(50.0, 80.0, 10.0)
        assert spikes[1].factor == 5.0

    @pytest.mark.parametrize("parser, text", [
        (parse_crash_spec, "1:2"),
        (parse_crash_spec, "a:1:2"),
        (parse_partition_spec, "1:2:3"),
        (parse_partition_spec, "x:2"),
        (parse_delay_spike_spec, "1"),
        (parse_delay_spike_spec, "1:2:z"),
    ])
    def test_malformed_specs_rejected(self, parser, text):
        with pytest.raises(SimulationError):
            parser(text)

    def test_empty_pieces_skipped(self):
        assert parse_crash_spec("") == ()
        assert parse_partition_spec(" , ") == ()
