"""The chaos soak harness end-to-end: audits, determinism, no-op guard."""

import json

import pytest

from repro.exceptions import ReproError
from repro.service.chaos import FaultSchedule
from repro.service.soak import named_schedule, run_chaos_soak

SMALL = dict(queries=4, items=20, sources=2, seed=3)


class TestNamedSchedules:
    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown chaos schedule"):
            named_schedule("tornado")

    def test_profiles_enumerate_their_faults(self):
        for name in ("smoke", "ci", "heavy", "restart"):
            schedule, steps = named_schedule(name, seed=1)
            assert schedule.enabled
            assert steps > 0
            assert len(schedule.fault_kinds()) >= 3

    def test_seed_threads_into_schedule(self):
        a, _ = named_schedule("smoke", seed=1)
        b, _ = named_schedule("smoke", seed=2)
        assert a.seed != b.seed


class TestSoakRun:
    def test_smoke_profile_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "BENCH_chaos.json"
        report = run_chaos_soak(schedule="smoke", output=str(out), **SMALL)
        assert report["passed"] is True
        assert report["qab_violations_unexcused"] == 0
        assert report["audits"] > 0
        assert report["fault_events"] > 0
        assert report["final_degraded_queries"] == []
        on_disk = json.loads(out.read_text())
        assert on_disk["fault_trace_digest"] == report["fault_trace_digest"]

    def test_same_seed_is_bit_identical(self):
        a = run_chaos_soak(schedule="smoke", **SMALL)
        b = run_chaos_soak(schedule="smoke", **SMALL)
        assert a["fault_trace_digest"] == b["fault_trace_digest"]
        assert a["fault_counts"] == b["fault_counts"]
        assert a["audits"] == b["audits"]
        assert a["refreshes_total"] == b["refreshes_total"]

    def test_empty_schedule_is_a_clean_noop(self):
        report = run_chaos_soak(schedule=FaultSchedule(), steps=12, **SMALL)
        assert report["passed"] is True
        assert report["schedule"] == "custom"
        assert report["fault_events"] == 0
        assert report["fault_counts"] == {}
        assert report["qab_violations_unexcused"] == 0
        assert report["qab_violations_excused_degraded"] == 0
        assert report["recovery_episodes"] == 0

    def test_heavy_profile_survives_a_corrupted_registration(self):
        # Seed 7 corrupts a REGISTER_SOURCE frame; the rejected
        # registration used to escape every retry policy and abort the
        # whole soak with a ProtocolError.
        report = run_chaos_soak(schedule="heavy", seed=7)
        assert report["fault_counts"]["corrupt"] > 0
        assert report["passed"] is True
        assert report["qab_violations_unexcused"] == 0
        assert report["degraded_bound_exceeded"] == 0
        assert report["connect_give_ups"] == 0

    def test_an_exceeded_widened_bound_fails_the_run(self, monkeypatch):
        # A degraded-flagged answer outside its widened bound is a wrong
        # answer the system vouched for: recorded AND fatal.
        import repro.service.soak as soak

        real = soak.check_served

        def one_exceedance(truth, served, degraded, queries):
            broken, flagged, exceeded = real(truth, served, degraded, queries)
            name = queries[0].name
            return broken, flagged, exceeded + [
                {"query": name, "error": 2.0, "widened_bound": 1.0}]

        monkeypatch.setattr(soak, "check_served", one_exceedance)
        report = run_chaos_soak(schedule=FaultSchedule(), steps=6, **SMALL)
        assert report["qab_violations_unexcused"] == 0
        assert report["degraded_bound_exceeded"] == report["audits"]
        assert report["passed"] is False

    def test_recovery_section_present_without_a_journal(self):
        report = run_chaos_soak(schedule="smoke", **SMALL)
        assert report["coordinator_recovery"] == {"kills": 0}


class TestCoordinatorRestart:
    def test_restart_schedule_survives_kills_and_audits(self, tmp_path):
        report = run_chaos_soak(schedule="restart",
                                journal_dir=str(tmp_path / "journal"),
                                **SMALL)
        recovery = report["coordinator_recovery"]
        assert recovery["kills"] == 2
        assert recovery["kill_steps"] == [9, 24]
        assert len(recovery["restarts"]) == 2
        assert recovery["records_replayed_total"] > 0
        assert recovery["journal_append_ms"]          # overhead percentiles
        assert recovery["journal"]["records"] > 0
        assert report["passed"] is True
        assert report["qab_violations_unexcused"] == 0
        assert report["final_degraded_queries"] == []

    def test_restart_run_is_deterministic(self, tmp_path):
        a = run_chaos_soak(schedule="restart",
                           journal_dir=str(tmp_path / "a"), **SMALL)
        b = run_chaos_soak(schedule="restart",
                           journal_dir=str(tmp_path / "b"), **SMALL)
        assert a["fault_trace_digest"] == b["fault_trace_digest"]
        assert a["refreshes_total"] == b["refreshes_total"]
        assert (a["coordinator_recovery"]["records_replayed_total"]
                == b["coordinator_recovery"]["records_replayed_total"])

    def test_explicit_kill_steps_override_schedule_default(self, tmp_path):
        report = run_chaos_soak(schedule="restart",
                                journal_dir=str(tmp_path / "journal"),
                                kill_steps=[12], **SMALL)
        assert report["coordinator_recovery"]["kills"] == 1
        assert report["coordinator_recovery"]["kill_steps"] == [12]
        assert report["passed"] is True
