"""Property tests of the paper's formal claims.

* **Claim 1** (Section III-B.2): DABs satisfying the dual-DAB condition of
  ``Q' = P1 + P2 : B`` also satisfy it for ``Q = P1 - P2 : B``.
* **Claim 2** (near-optimality of Different Sum): when the optimal DABs of
  ``P1 - P2`` are small relative to the data (``c_i <= α·V_i / d``), the
  scaled bounds ``b(1-α), c(1-α)`` are feasible for ``P1 + P2`` and the
  cost blow-up is at most ``1/(1-α)`` under the monotonic ddm.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.filters import CostModel, DifferentSumPlanner, DualDABPlanner
from repro.queries import PolynomialQuery, QueryTerm, max_query_deviation
from repro.queries.deviation import primary_variable, secondary_variable
from tests.oracle.deviation import deviation_posynomial

weights = st.floats(min_value=0.2, max_value=10.0, allow_nan=False)
values_st = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)
fractions = st.floats(min_value=0.01, max_value=0.5, allow_nan=False)


@st.composite
def independent_split_queries(draw):
    """Q = w1·x·y − w2·u·v with random values, bounds expressed as value
    fractions so everything stays in a sane numeric range."""
    w1, w2 = draw(weights), draw(weights)
    terms = [QueryTerm.product(w1, "x", "y"), QueryTerm.product(-w2, "u", "v")]
    values = {name: draw(values_st) for name in ("x", "y", "u", "v")}
    b_fraction = draw(fractions)
    c_fraction = draw(st.floats(min_value=b_fraction, max_value=0.6))
    bounds = {name: b_fraction * value for name, value in values.items()}
    windows = {name: c_fraction * value for name, value in values.items()}
    return terms, values, bounds, windows


def _eval_dual(terms, values, bounds, windows):
    posy = deviation_posynomial(terms, values, include_secondary=True)
    point = {primary_variable(k): v for k, v in bounds.items()}
    point.update({secondary_variable(k): windows[k] for k in windows})
    return posy.evaluate(point)


class TestClaim1:
    @given(independent_split_queries())
    @settings(max_examples=60, deadline=None)
    def test_mirror_condition_dominates(self, world):
        """The worst-case movement of Q = P1 − P2 under any per-item bounds
        is no larger than that of Q' = P1 + P2 (term-wise equality through
        absolute weights — this is how the triangle bound realises
        Claim 1)."""
        terms, values, bounds, windows = world
        query = PolynomialQuery(terms, qab=1.0)
        mirror = query.positive_mirror()
        assert max_query_deviation(query.terms, values, bounds) == pytest.approx(
            max_query_deviation(mirror.terms, values, bounds), rel=1e-9)

    @given(independent_split_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_actual_movement_of_difference_within_mirror_bound(self, world, data):
        """Simulate arbitrary in-filter movements: the actual |ΔQ| of the
        difference query never exceeds the mirror's worst case."""
        terms, values, bounds, windows = world
        query = PolynomialQuery(terms, qab=1.0)
        mirror = query.positive_mirror()
        moved = {}
        for name, value in values.items():
            sign = data.draw(st.floats(min_value=-1.0, max_value=1.0))
            moved[name] = max(value + sign * bounds[name], 1e-9)
        actual = abs(query.evaluate(moved) - query.evaluate(values))
        worst = max_query_deviation(mirror.terms, values, bounds)
        assert actual <= worst * (1 + 1e-9) + 1e-9


class TestClaim2:
    @given(independent_split_queries())
    @settings(max_examples=40, deadline=None)
    def test_scaled_bounds_feasible_for_mirror(self, world):
        """Claim 2(A): if (b, c) meet the dual condition for P1 − P2 with
        budget B and c_i <= α·V_i/d, then (b(1−α), c(1−α)) meet it for
        P1 + P2."""
        terms, values, bounds, windows = world
        degree = 2
        # α from the windows actually drawn
        alpha = max(windows[k] * degree / values[k] for k in values)
        if alpha >= 0.95:  # keep (1-α) meaningfully positive
            alpha = 0.95
        mirror_terms = [t.abs() for t in terms]

        budget = _eval_dual(terms, values, bounds, windows)  # triangle form of Q's condition
        scale = 1.0 - alpha
        scaled_bounds = {k: v * scale for k, v in bounds.items()}
        scaled_windows = {k: v * scale for k, v in windows.items()}
        mirror_value = _eval_dual(mirror_terms, values, scaled_bounds, scaled_windows)
        assert mirror_value <= budget * (1 + 1e-9)

    @given(st.floats(min_value=0.05, max_value=0.5), independent_split_queries())
    @settings(max_examples=40, deadline=None)
    def test_cost_blowup_bounded(self, alpha, world):
        """Claim 2(B): scaling every b by (1−α) raises the monotonic
        refresh objective Σλ/b by exactly 1/(1−α)."""
        terms, values, bounds, _ = world
        model = CostModel(rates={k: 1.0 for k in values})
        base_cost = model.estimated_refresh_rate(bounds)
        scaled = {k: v * (1 - alpha) for k, v in bounds.items()}
        scaled_cost = model.estimated_refresh_rate(scaled)
        assert scaled_cost == pytest.approx(base_cost / (1 - alpha), rel=1e-9)


class TestDifferentSumNearOptimal:
    def test_ds_dominates_hh_in_small_bound_regime(self):
        """The practical consequence of Claim 2: on independent-half queries
        with DABs small relative to the data, Different Sum (which optimises
        the joint budget split) achieves an estimated message cost no worse
        than Half and Half (which imposes an arbitrary 50/50 split)."""
        from repro.filters import HalfAndHalfPlanner

        query = PolynomialQuery(
            [QueryTerm.product(1.0, "x", "y"), QueryTerm.product(-1.0, "u", "v")],
            qab=5.0, name="claim2_check",
        )
        values = {"x": 20.0, "y": 30.0, "u": 25.0, "v": 15.0}
        model = CostModel(rates={"x": 4.0, "y": 1.0, "u": 0.5, "v": 2.0},
                          recompute_cost=1.0)
        ds_plan = DifferentSumPlanner(model).plan(query, values)
        hh_plan = HalfAndHalfPlanner(model).plan(query, values)
        # small-bound regime (alpha well below 1)
        alpha = max(ds_plan.secondary[k] * 2 / values[k] for k in values)
        assert alpha < 0.5
        ds_cost = model.estimated_refresh_rate(ds_plan.primary)
        hh_cost = model.estimated_refresh_rate(hh_plan.primary)
        assert ds_cost <= hh_cost * (1 + 1e-6)
