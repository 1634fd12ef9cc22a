"""Smoke + shape tests for the figure runners (micro scale).

The benches run these at larger scale and print the paper-style tables;
here we verify the runners produce structurally correct series and that the
paper's qualitative orderings hold even at micro scale.
"""

import pytest

from repro.experiments import (
    run_figure5,
    run_figure7,
    run_figure8ab,
    run_figure8c,
    run_sharfman_comparison,
    run_solver_timing,
)


@pytest.fixture(scope="module")
def fig5():
    return run_figure5(query_counts=(3, 6), mus=(1.0, 5.0),
                       item_count=16, trace_length=121, seed=21)


class TestFigure5:
    def test_series_labels(self, fig5):
        labels = [s.label for s in fig5]
        assert labels[0] == "Optimal Refresh"
        assert "Dual-DAB, mu=1" in labels and "Dual-DAB, mu=5" in labels

    def test_x_axis_is_query_count(self, fig5):
        for series in fig5:
            assert [p.x for p in series.points] == [3, 6]

    def test_dual_dab_reduces_recomputations(self, fig5):
        optimal = {p.x: p.recomputations for p in fig5[0].points}
        dual = {p.x: p.recomputations for p in fig5[1].points}
        for x in (3, 6):
            assert dual[x] * 5 <= optimal[x]

    def test_optimal_refresh_fewest_refreshes(self, fig5):
        optimal = {p.x: p.refreshes for p in fig5[0].points}
        for series in fig5[1:]:
            for p in series.points:
                assert optimal[p.x] <= p.refreshes * (1 + 1e-9)


class TestFigure7:
    def test_structure_and_ordering(self):
        series = run_figure7(mus=(1.0, 5.0), periods=(15,), query_count=3,
                             item_count=16, trace_length=91, seed=22)
        labels = [s.label for s in series]
        assert labels == ["EQI", "AAO-15"]
        eqi, aao = series
        assert [p.x for p in eqi.points] == [1.0, 5.0]
        # AAO-T with a short period does at least duration/period recomputations
        for p in aao.points:
            assert p.recomputations >= 90 // 15
        # AAO's joint primaries are never tighter than EQI's min-merge
        for pe, pa in zip(eqi.points, aao.points):
            assert pa.refreshes <= pe.refreshes * 1.5


class TestFigure8:
    def test_ab_labels_and_soundness(self):
        series = run_figure8ab(query_counts=(2,), mus=(1.0,),
                               item_count=16, trace_length=91, seed=23)
        labels = {s.label for s in series}
        assert labels == {"HH, mu=1", "DS, mu=1"}
        for s in series:
            assert all(p.refreshes > 0 for p in s.points)

    def test_8c_wsdab_explodes(self):
        series = run_figure8c(query_counts=(3,), item_count=16, trace_length=91,
                              coordinator_count=2, seed=24)
        by_label = {s.label: s for s in series}
        dual = by_label["Dual-DAB"].points[0]
        wsdab = by_label["WSDAB"].points[0]
        assert wsdab.recomputations >= 10 * max(dual.recomputations, 1)


class TestTables:
    def test_sharfman_comparison_rows(self):
        rows = run_sharfman_comparison(rate_skews=(1.0, 8.0))
        assert len(rows) == 2
        for row in rows:
            assert row["optimal_refresh_rate"] <= row["baseline_refresh_rate"] * (1 + 1e-9)
        # the gap grows with skew
        gaps = [r["baseline_refresh_rate"] / r["optimal_refresh_rate"] for r in rows]
        assert gaps[0] < gaps[-1]

    def test_solver_timing_keys(self):
        timing = run_solver_timing(query_count=3, item_count=16,
                                   trace_length=61, repetitions=2)
        assert timing["dual_dab_cold_ms"] > 0
        assert timing["dual_dab_warm_ms"] > 0
        assert timing["dual_dab_plan_ms"] > 0
        assert timing["aao_3_queries_ms"] > 0
        # warm starts must not be slower than cold solves (same problem)
        assert timing["dual_dab_warm_ms"] <= timing["dual_dab_cold_ms"] * 1.5
