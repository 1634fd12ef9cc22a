"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_int_list, _parse_kv, main


class TestHelpers:
    def test_parse_kv(self):
        assert _parse_kv("x=2,y=3.5", "t") == {"x": 2.0, "y": 3.5}
        assert _parse_kv("", "t") == {}

    def test_parse_kv_errors(self):
        with pytest.raises(SystemExit):
            _parse_kv("x", "t")
        with pytest.raises(SystemExit):
            _parse_kv("x=abc", "t")

    def test_parse_int_list(self):
        assert _parse_int_list("5,10,20") == [5, 10, 20]
        assert _parse_int_list("") == []


class TestPlan:
    def test_dual_dab_plan(self, capsys):
        code = main(["plan", "x*y : 5", "--values", "x=2,y=2",
                     "--rates", "x=1,y=1", "--mu", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "primary b" in out and "secondary c" in out
        assert "estimated refresh rate" in out

    def test_single_dab_plan(self, capsys):
        code = main(["plan", "x*y : 5", "--values", "x=2,y=2", "--single-dab"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal refresh" in out
        assert "nan" in out  # no secondary

    def test_mixed_sign_plan(self, capsys):
        code = main(["plan", "x*y - u*v : 5",
                     "--values", "x=2,y=2,u=1,v=1",
                     "--heuristic", "half_and_half"])
        assert code == 0
        assert "half_and_half" in capsys.readouterr().out

    def test_qab_override(self, capsys):
        code = main(["plan", "x*y", "--qab", "3", "--values", "x=2,y=2"])
        assert code == 0
        assert ": 3" in capsys.readouterr().out

    @pytest.mark.parametrize("ddm, primary", [("monotonic", "0.582576"),
                                              ("random_walk", "0.584638")])
    def test_ddm_reaches_the_cost_model(self, ddm, primary, capsys):
        # The only CLI route to the paper's two data-dynamics models.
        code = main(["plan", "x*y : 5", "--values", "x=2,y=2", "--ddm", ddm])
        assert code == 0
        out = capsys.readouterr().out
        assert f"ddm={ddm}" in out and primary in out

    def test_missing_values_rejected(self):
        with pytest.raises(SystemExit, match="no values"):
            main(["plan", "x*y : 5", "--values", "x=2"])

    def test_library_error_becomes_exit_code_1(self, capsys):
        # zero value is rejected by the GP formulation -> ReproError -> rc 1
        code = main(["plan", "x*y : 5", "--values", "x=0,y=2"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_small_run(self, capsys):
        code = main(["simulate", "--queries", "2", "--items", "16",
                     "--duration", "60", "--sources", "3",
                     "--fidelity-interval", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "refreshes" in out and "recomputations" in out
        assert "total cost" in out

    def test_aao_t_requires_period(self, capsys):
        code = main(["simulate", "--queries", "2", "--items", "16",
                     "--duration", "60", "--algorithm", "aao_t"])
        assert code == 1
        assert "aao_period" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, reads", [
        (["--ddm", "random_walk"], lambda c: c.ddm.value == "random_walk"),
        (["--zero-delay"], lambda c: c.zero_delay is True),
        (["--algorithm", "aao_t", "--aao-period", "30"],
         lambda c: c.aao_period == 30),
        (["--partition-spec", "20:30"],
         lambda c: [(w.start, w.end) for w in c.fault_config.partitions]
         == [(20.0, 30.0)]),
        (["--delay-spike-spec", "20:30:10"],
         lambda c: [(w.start, w.end, w.factor)
                    for w in c.fault_config.delay_spikes]
         == [(20.0, 30.0, 10.0)]),
    ], ids=["ddm", "zero-delay", "aao-period", "partition-spec",
            "delay-spike-spec"])
    def test_paper_and_fault_flags_reach_the_simulator(self, flags, reads,
                                                       capsys, monkeypatch):
        # Each flag is the only CLI route to a paper feature (the ddm,
        # zero-delay fidelity, AAO-T's period) or to a fault kind.
        import repro.simulation

        seen = []
        real = repro.simulation.run_simulation

        def spy(config):
            seen.append(config)
            return real(config)

        monkeypatch.setattr(repro.simulation, "run_simulation", spy)
        code = main(["simulate", "--queries", "2", "--items", "16",
                     "--duration", "60", "--sources", "3",
                     "--fidelity-interval", "5"] + flags)
        assert code == 0
        (config,) = seen
        assert reads(config)
        faulted = config.fault_config is not None
        assert ("Fault injection & recovery"
                in capsys.readouterr().out) == faulted

    def test_arbitrage_workload(self, capsys):
        code = main(["simulate", "--queries", "2", "--items", "20",
                     "--duration", "60", "--workload", "arbitrage",
                     "--algorithm", "different_sum",
                     "--fidelity-interval", "10"])
        assert code == 0


class TestFigures:
    def test_sharfman_table(self, capsys):
        code = main(["figures", "sharfman"])
        assert code == 0
        assert "Comparison with [5]" in capsys.readouterr().out

    def test_fig8c_small(self, capsys):
        code = main(["figures", "fig8c", "--queries", "2", "--items", "16",
                     "--trace-length", "61"])
        assert code == 0
        out = capsys.readouterr().out
        assert "WSDAB" in out and "Dual-DAB" in out


class TestTraces:
    def test_csv_output(self, capsys):
        code = main(["traces", "--items", "2", "--length", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tick,x0,x1"
        assert len(lines) == 6  # header + 5 ticks

    def test_deterministic(self, capsys):
        main(["traces", "--items", "1", "--length", "3", "--seed", "9"])
        first = capsys.readouterr().out
        main(["traces", "--items", "1", "--length", "3", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


def _strip_timings(text):
    """Drop wall-clock readouts and the echoed jobs count, which
    legitimately vary between otherwise-identical runs."""
    import re
    return re.sub(r"jobs=\S+", "jobs=<n>",
                  re.sub(r"\d+\.\d+s", "<time>", text))


class TestPerfFlags:
    SMALL = ["simulate", "--queries", "2", "--items", "16",
             "--duration", "60", "--sources", "3",
             "--fidelity-interval", "5"]

    def test_seed_sweep(self, capsys):
        code = main(self.SMALL + ["--runs", "3", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Seed sweep" in out
        assert out.count("\n  ") >= 3 or len(out.strip().splitlines()) >= 4

    def test_seed_sweep_serial_matches_parallel(self, capsys):
        main(self.SMALL + ["--runs", "2"])
        serial = capsys.readouterr().out
        main(self.SMALL + ["--runs", "2", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert _strip_timings(serial) == _strip_timings(parallel)

    def test_profile_writes_stats_file(self, tmp_path, capsys):
        target = tmp_path / "run.pstats"
        code = main(["--profile", str(target)] + self.SMALL)
        assert code == 0
        captured = capsys.readouterr()
        assert target.exists() and target.stat().st_size > 0
        assert "profile written" in captured.err
        assert "cumulative" in captured.err
