"""Tests for the Dual-DAB planner (paper Sections III-A.2 to III-A.5)."""

import pytest

from repro.exceptions import NotPositiveCoefficientError
from repro.filters import CostModel, DualDABPlanner, OptimalRefreshPlanner
from repro.filters.dual_dab import build_dual_dab_program, build_widen_program
from repro.queries import parse_query
from repro.queries.deviation import max_query_deviation, secondary_variable


class TestStructure:
    def test_primary_more_stringent_than_optimal(self, fig2_query, fig2_values,
                                                 unit_cost_model):
        """The paper's key tradeoff: dual-DAB primaries are tighter than the
        refresh-optimal single DABs (Fig. 4: 0.5 vs 1.0)."""
        optimal = OptimalRefreshPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        dual = DualDABPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        for item in ("x", "y"):
            assert dual.primary[item] < optimal.primary[item]

    def test_secondary_dominates_primary(self, fig2_query, fig2_values, unit_cost_model):
        dual = DualDABPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        for item in ("x", "y"):
            assert dual.secondary[item] >= dual.primary[item]

    def test_window_guarantee_holds(self, fig2_query, fig2_values, unit_cost_model):
        """Primary DABs must keep the QAB at the worst point of the window
        (Eq. 2) — the invariant that makes skipping recomputations safe."""
        dual = DualDABPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        assert dual.guarantees_qab_over_window(fig2_query)

    def test_recompute_rate_positive(self, fig2_query, fig2_values, unit_cost_model):
        dual = DualDABPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        assert dual.recompute_rate > 0.0

    def test_window_capped_by_values(self, fig2_query, fig2_values, unit_cost_model):
        dual = DualDABPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        for item, value in fig2_values.items():
            assert dual.secondary[item] <= value * (1 + 1e-6)

    def test_mixed_sign_rejected(self):
        q = parse_query("x - u*v : 5")
        with pytest.raises(NotPositiveCoefficientError):
            DualDABPlanner(CostModel()).plan(q, {"x": 1.0, "u": 1.0, "v": 1.0})


class TestMuTradeoff:
    """Section III-A.3: larger μ ⇒ more stringent primaries, larger windows,
    fewer (estimated) recomputations, more refreshes."""

    @pytest.fixture(scope="class")
    def plans_by_mu(self, fig2_query, fig2_values):
        plans = {}
        for mu in (0.5, 2.0, 8.0):
            model = CostModel(rates={"x": 1.0, "y": 1.0}, recompute_cost=mu)
            plans[mu] = DualDABPlanner(model).plan(fig2_query, fig2_values)
        return plans

    def test_primaries_tighten_with_mu(self, plans_by_mu):
        mus = sorted(plans_by_mu)
        for low, high in zip(mus, mus[1:]):
            assert plans_by_mu[high].primary["x"] <= plans_by_mu[low].primary["x"] * (1 + 1e-6)

    def test_recompute_rate_falls_with_mu(self, plans_by_mu):
        mus = sorted(plans_by_mu)
        for low, high in zip(mus, mus[1:]):
            assert plans_by_mu[high].recompute_rate <= plans_by_mu[low].recompute_rate * (1 + 1e-6)

    def test_estimated_refreshes_rise_with_mu(self, plans_by_mu, unit_cost_model):
        mus = sorted(plans_by_mu)
        rates = [unit_cost_model.estimated_refresh_rate(plans_by_mu[m].primary)
                 for m in mus]
        for low, high in zip(rates, rates[1:]):
            assert high >= low * (1 - 1e-6)


class TestEnvelopesAndWidening:
    def test_max_envelope_supported(self, fig2_query, fig2_values, unit_cost_model):
        planner = DualDABPlanner(unit_cost_model, recompute_envelope="max")
        plan = planner.plan(fig2_query, fig2_values)
        assert plan.guarantees_qab_over_window(fig2_query)

    def test_bad_envelope_rejected(self, fig2_query, fig2_values, unit_cost_model):
        planner = DualDABPlanner(unit_cost_model, recompute_envelope="median")
        with pytest.raises(ValueError, match="recompute_envelope"):
            planner.plan(fig2_query, fig2_values)

    def test_widening_never_shrinks_windows(self):
        q = parse_query("2 x*y + y*z : 3")
        values = {"x": 4.0, "y": 3.0, "z": 5.0}
        model = CostModel(rates={"x": 2.0, "y": 1.0, "z": 0.2}, recompute_cost=1.0)
        raw = DualDABPlanner(model, widen_windows=False).plan(q, values)
        widened = build_widen_program(q, values, raw.primary, model).solve()
        for item in raw.primary:
            assert widened.values[secondary_variable(item)] >= \
                raw.secondary[item] * (1 - 1e-6)

    def test_widened_plan_still_guarantees_window(self):
        q = parse_query("2 x*y + y*z : 3")
        values = {"x": 4.0, "y": 3.0, "z": 5.0}
        model = CostModel(rates={"x": 2.0, "y": 1.0, "z": 0.2}, recompute_cost=1.0)
        plan = DualDABPlanner(model).plan(q, values)
        assert plan.guarantees_qab_over_window(q)

    def test_build_program_shape(self, fig2_query, fig2_values, unit_cost_model):
        program = build_dual_dab_program(fig2_query, fig2_values, unit_cost_model)
        names = {c.name for c in program.constraints}
        assert "qab" in names
        assert "recompute" in names
        assert "order[x]" in names and "window[y]" in names
        # variables: b, c per item plus R
        assert len(program.variables) == 5


class TestDataModels:
    def test_random_walk_less_stringent_dabs(self, fig2_query, fig2_values):
        """Figure 6's explanation: the λ²/b² objective of the random-walk
        model pushes toward less stringent DABs than λ/b (for λ < b scale)."""
        mono = DualDABPlanner(
            CostModel(ddm="monotonic", rates={"x": 0.2, "y": 0.2}, recompute_cost=2.0)
        ).plan(fig2_query, fig2_values)
        walk = DualDABPlanner(
            CostModel(ddm="random_walk", rates={"x": 0.2, "y": 0.2}, recompute_cost=2.0)
        ).plan(fig2_query, fig2_values)
        assert walk.primary["x"] > mono.primary["x"]

    def test_reference_values_recorded(self, fig2_query, fig2_values, unit_cost_model):
        plan = DualDABPlanner(unit_cost_model).plan(fig2_query, fig2_values)
        assert plan.reference_values == fig2_values
