"""Tests for threshold-crossing monitoring (extension module)."""

import pytest

from repro.dynamics.traces import Trace, TraceSet
from repro.exceptions import FilterError
from repro.filters import CostModel
from repro.filters.threshold import ThresholdMonitor, ThresholdQuery
from repro.queries import parse_query
from repro.queries.deviation import max_query_deviation
from repro.simulation.harness import SimulationConfig, build_planner


@pytest.fixture()
def spread_query():
    return parse_query("x*y - u*v : 1", name="spread")  # QAB replaced adaptively


@pytest.fixture()
def model():
    return CostModel(rates={"x": 1.0, "y": 1.0, "u": 1.0, "v": 1.0},
                     recompute_cost=2.0)


def threshold_query(q, threshold=0.0, theta=0.5):
    return ThresholdQuery(polynomial=q, threshold=threshold, theta=theta)


class TestThresholdQuery:
    def test_validation(self, spread_query):
        with pytest.raises(FilterError):
            ThresholdQuery(spread_query, 0.0, theta=1.0)
        with pytest.raises(FilterError):
            ThresholdQuery(spread_query, 0.0, floor=0.0)
        with pytest.raises(FilterError):
            ThresholdQuery(spread_query, float("inf"))

    def test_distance_and_bound(self, spread_query):
        tq = threshold_query(spread_query, threshold=10.0, theta=0.5)
        values = {"x": 4.0, "y": 5.0, "u": 2.0, "v": 3.0}  # P = 20 - 6 = 14
        assert tq.distance(values) == pytest.approx(4.0)
        assert tq.accuracy_bound(values) == pytest.approx(2.0)

    def test_bound_floors_at_threshold(self, spread_query):
        tq = threshold_query(spread_query, threshold=14.0)
        values = {"x": 4.0, "y": 5.0, "u": 2.0, "v": 3.0}
        assert tq.accuracy_bound(values) == tq.floor

    def test_crossed(self, spread_query):
        tq = threshold_query(spread_query, threshold=10.0)
        assert tq.crossed(9.0, 11.0)
        assert tq.crossed(11.0, 9.0)
        assert tq.crossed(11.0, 10.0)  # touching counts
        assert not tq.crossed(11.0, 12.0)


class TestMonitor:
    VALUES_FAR = {"x": 4.0, "y": 5.0, "u": 2.0, "v": 3.0}    # P = 14
    VALUES_NEAR = {"x": 3.0, "y": 4.0, "u": 2.0, "v": 0.75}  # P = 10.5

    def test_first_plan_always_happens(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model)
        assert monitor.needs_replan(self.VALUES_FAR)
        plan = monitor.plan(self.VALUES_FAR)
        assert plan is monitor.current_plan
        assert monitor.replan_count == 1

    def test_plan_respects_adaptive_bound(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model)
        plan = monitor.plan(self.VALUES_FAR)
        bound = monitor.planned_bound
        deviation = max_query_deviation(spread_query.terms, self.VALUES_FAR,
                                        plan.primary)
        assert deviation <= bound * (1 + 1e-6)

    def test_tightening_near_threshold(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model)
        far_plan = monitor.plan(self.VALUES_FAR)
        near_monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model)
        near_plan = near_monitor.plan(self.VALUES_NEAR)
        # distance 4.0 -> bound 2.0 vs distance 0.5 -> bound 0.25
        assert near_monitor.planned_bound < monitor.planned_bound
        mean_far = sum(far_plan.primary.values()) / len(far_plan.primary)
        mean_near = sum(near_plan.primary.values()) / len(near_plan.primary)
        assert mean_near < mean_far

    def test_hysteresis_prevents_thrashing(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model,
                                   replan_ratio=2.0)
        monitor.plan(self.VALUES_FAR)
        # a small drift inside the window and well within the ratio band
        nudged = dict(self.VALUES_FAR, x=4.05)
        assert not monitor.needs_replan(nudged)
        monitor.plan(nudged)
        assert monitor.replan_count == 1

    def test_replan_on_large_bound_shift(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model,
                                   replan_ratio=1.2)
        monitor.plan(self.VALUES_FAR)
        assert monitor.needs_replan(self.VALUES_NEAR)
        monitor.plan(self.VALUES_NEAR)
        assert monitor.replan_count == 2

    def test_replan_on_window_violation(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model)
        plan = monitor.plan(self.VALUES_FAR)
        escaped = dict(self.VALUES_FAR)
        escaped["x"] += plan.secondary["x"] * 2.0
        assert monitor.needs_replan(escaped)

    def test_alert_semantics(self, spread_query, model):
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0), model)
        monitor.plan(self.VALUES_FAR)
        # cache far from the threshold: no alert
        assert not monitor.coordinator_alert(self.VALUES_FAR, self.VALUES_FAR)
        # cached value within the planned bound of the threshold: alert
        near_cache = {"x": 2.0, "y": 5.0, "u": 0.1, "v": 1.0}  # P = 9.9
        assert monitor.coordinator_alert(self.VALUES_FAR, near_cache)

    def test_no_missed_crossing_invariant(self, spread_query, model):
        """The guarantee behind theta < 1: if the coordinator does not
        alert, the truth cannot have crossed (cache within bound)."""
        monitor = ThresholdMonitor(threshold_query(spread_query, 10.0,
                                                   theta=0.5), model)
        monitor.plan(self.VALUES_FAR)
        bound = monitor.planned_bound
        cached_value = spread_query.evaluate(self.VALUES_FAR)
        # any truth within the bound of the cached view:
        worst_truth = cached_value - bound
        assert worst_truth > 10.0, \
            "with B = theta*distance the truth cannot reach the threshold"

    def test_invalid_replan_ratio(self, spread_query, model):
        with pytest.raises(FilterError):
            ThresholdMonitor(threshold_query(spread_query, 10.0), model,
                             replan_ratio=1.0)


class TestTighteningBound:
    """Driving the value toward the threshold shrinks the bound replan
    after replan; each plan must hold the bound it was planned with, on
    whatever stack plans it (every replan reuses one query name)."""

    START = {"x": 10.0, "y": 20.0}

    @staticmethod
    def _shipped_stack(poly, model):
        traces = TraceSet(Trace(name, [value, value])
                          for name, value in TestTighteningBound.START.items())
        config = SimulationConfig(queries=[poly], traces=traces,
                                  algorithm="dual_dab")
        return build_planner(config, model)

    @pytest.mark.parametrize("stack", ["default", "dual_dab"])
    def test_every_replan_holds_its_bound(self, stack):
        poly = parse_query("2 x*y + x^2 : 1", name="thr")    # P(START) = 500
        model = CostModel(rates={"x": 1.0, "y": 2.0}, recompute_cost=5.0)
        planner = self._shipped_stack(poly, model) if stack == "dual_dab" else None
        monitor = ThresholdMonitor(threshold_query(poly, threshold=100.0),
                                   model, planner=planner)
        bounds = []
        for step in range(12):
            scale = 0.93 ** step
            values = {name: value * scale for name, value in self.START.items()}
            replans = monitor.replan_count
            plan = monitor.plan(values)
            if monitor.replan_count > replans:
                bounds.append(monitor.planned_bound)
                assert plan.guarantees_qab_over_window(
                    poly.with_qab(monitor.planned_bound))
        assert sum(b < a for a, b in zip(bounds, bounds[1:])) >= 3
