"""Unit tests for :mod:`repro.filters.cost_model` and the ddm formulas."""

import pytest

from repro.exceptions import FilterError
from repro.dynamics.models import DataDynamicsModel, refresh_rate
from repro.filters import CostModel
from tests.oracle.deviation import refresh_objective, refresh_rate_monomial


class TestDdmFormulas:
    def test_monotonic_rate(self):
        assert refresh_rate(DataDynamicsModel.MONOTONIC, 2.0, 0.5) == pytest.approx(4.0)

    def test_random_walk_rate(self):
        assert refresh_rate(DataDynamicsModel.RANDOM_WALK, 2.0, 0.5) == pytest.approx(16.0)

    def test_bad_dab_rejected(self):
        with pytest.raises(FilterError):
            refresh_rate(DataDynamicsModel.MONOTONIC, 1.0, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(FilterError):
            refresh_rate(DataDynamicsModel.MONOTONIC, -1.0, 1.0)

    def test_monomial_forms(self):
        mono = refresh_rate_monomial(DataDynamicsModel.MONOTONIC, 2.0, "b")
        assert mono.evaluate({"b": 0.5}) == pytest.approx(4.0)
        rw = refresh_rate_monomial(DataDynamicsModel.RANDOM_WALK, 2.0, "b")
        assert rw.evaluate({"b": 0.5}) == pytest.approx(16.0)

    def test_monomial_floors_zero_rate(self):
        mono = refresh_rate_monomial(DataDynamicsModel.MONOTONIC, 0.0, "b")
        assert mono.evaluate({"b": 1.0}) > 0.0

    def test_from_string(self):
        assert DataDynamicsModel.from_string("monotonic") is DataDynamicsModel.MONOTONIC
        assert DataDynamicsModel.from_string(DataDynamicsModel.RANDOM_WALK) \
            is DataDynamicsModel.RANDOM_WALK
        with pytest.raises(FilterError, match="unknown"):
            DataDynamicsModel.from_string("brownian")


class TestCostModel:
    def test_defaults(self):
        model = CostModel()
        assert model.ddm is DataDynamicsModel.MONOTONIC
        assert model.rate_of("anything") == pytest.approx(1.0)

    def test_string_ddm_coerced(self):
        assert CostModel(ddm="random_walk").ddm is DataDynamicsModel.RANDOM_WALK

    def test_negative_mu_rejected(self):
        with pytest.raises(FilterError):
            CostModel(recompute_cost=-1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(FilterError):
            CostModel(rates={"x": -1.0})

    def test_zero_rate_floored(self):
        model = CostModel(rates={"x": 0.0})
        assert model.rate_of("x") > 0.0

    def test_refresh_objective_monotonic(self):
        model = CostModel(rates={"x": 2.0, "y": 8.0})
        objective = refresh_objective(model, ["x", "y"])
        value = objective.evaluate({"b__x": 1.0, "b__y": 2.0})
        assert value == pytest.approx(2.0 / 1.0 + 8.0 / 2.0)

    def test_refresh_objective_random_walk(self):
        model = CostModel(ddm="random_walk", rates={"x": 2.0})
        value = refresh_objective(model, ["x"]).evaluate({"b__x": 1.0})
        assert value == pytest.approx(4.0)

    def test_refresh_objective_needs_items(self):
        with pytest.raises(FilterError):
            refresh_objective(CostModel(), [])

    def test_estimated_rates(self):
        model = CostModel(rates={"x": 2.0, "y": 4.0})
        assert model.estimated_refresh_rate({"x": 1.0, "y": 2.0}) == pytest.approx(4.0)
        assert model.estimated_recompute_rate({"x": 1.0, "y": 2.0}) == pytest.approx(2.0)
        assert model.estimated_recompute_rate({}) == 0.0

    def test_total_cost(self):
        model = CostModel(recompute_cost=5.0)
        assert model.total_cost(100, 10) == pytest.approx(150.0)

    def test_with_recompute_cost(self):
        model = CostModel(rates={"x": 2.0}, recompute_cost=1.0)
        other = model.with_recompute_cost(7.0)
        assert other.recompute_cost == 7.0
        assert other.rate_of("x") == model.rate_of("x")
        assert model.recompute_cost == 1.0  # original untouched
