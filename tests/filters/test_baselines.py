"""Tests for the baseline DAB schemes (paper Section V comparison)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import FilterError
from repro.filters import (
    CostModel,
    OptimalRefreshPlanner,
    SharfmanStyleBaseline,
    UniformAllocationBaseline,
)
from repro.filters.baselines import _term_width
from repro.queries import QueryTerm, parse_query
from repro.queries.deviation import max_query_deviation, max_term_deviation


def _solve_width(budget, deviation_at, rel_tol=1e-12):
    """Largest ``b`` with ``deviation_at(b) <= budget`` via bracket+bisect —
    the oracle :func:`_term_width` is held to.

    ``deviation_at`` must be continuous, increasing and 0 at 0 — true for
    every worst-case deviation in this package.
    """
    if budget <= 0.0:
        raise FilterError(f"deviation budget must be positive, got {budget!r}")
    low, high = 0.0, 1.0
    # Grow the bracket until the budget is exceeded (cap to avoid runaway
    # on degenerate inputs, e.g. items with near-zero weight).
    for _ in range(200):
        if deviation_at(high) >= budget:
            break
        low, high = high, high * 2.0
    else:
        return high  # deviation never reaches the budget: effectively unbounded
    for _ in range(200):
        mid = 0.5 * (low + high)
        if deviation_at(mid) <= budget:
            low = mid
        else:
            high = mid
        if high - low <= rel_tol * high:
            break
    return low if low > 0.0 else high * 0.5


class TestSolveWidth:
    """The bisection oracle itself."""

    def test_monotone_function(self):
        width = _solve_width(10.0, lambda b: 2.0 * b)
        assert width == pytest.approx(5.0, rel=1e-6)

    def test_quadratic(self):
        width = _solve_width(9.0, lambda b: b * b)
        assert width == pytest.approx(3.0, rel=1e-6)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(FilterError):
            _solve_width(0.0, lambda b: b)

    def test_never_reaching_budget(self):
        # deviation saturates below the budget: a very wide filter comes back
        width = _solve_width(10.0, lambda b: 1.0 - 1.0 / (1.0 + b))
        assert width > 1e10


@st.composite
def _terms(draw):
    """A term over one to three items with exponents 1–4, its values and a
    budget spanning tight to loose relative to the term's value."""
    names = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3,
                          unique=True))
    exponents = {name: draw(st.integers(1, 4)) for name in names}
    term = QueryTerm(draw(st.floats(-5.0, 5.0).filter(lambda w: abs(w) > 1e-3)),
                     exponents)
    values = {name: draw(st.floats(0.01, 500.0)) for name in names}
    budget = abs(term.evaluate(values)) * draw(st.floats(1e-4, 10.0))
    return term, values, budget


class TestTermWidth:
    """The safeguarded Newton width against the bisection oracle."""

    @given(_terms())
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_and_stays_within_budget(self, case):
        term, values, budget = case
        width = _term_width(term, values, budget)
        bounds = dict.fromkeys(term.variables, width)
        assert 0.0 < width
        assert max_term_deviation(term, values, bounds) <= budget
        oracle = _solve_width(budget, lambda b: max_term_deviation(
            term, values, dict.fromkeys(term.variables, b)))
        assert width == pytest.approx(oracle, rel=1e-9)

    def test_linear_term_is_its_estimate(self):
        term = QueryTerm(2.0, {"x": 1})
        assert _term_width(term, {"x": 3.0}, 5.0) == pytest.approx(2.5)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(FilterError):
            _term_width(QueryTerm(1.0, {"x": 2}), {"x": 3.0}, 0.0)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(FilterError):
            _term_width(QueryTerm(1.0, {"x": 2}), {"x": 0.0}, 1.0)


class TestSoundness:
    """Every baseline must satisfy Condition 1 at the planning values."""

    @pytest.mark.parametrize("baseline_cls",
                             [UniformAllocationBaseline, SharfmanStyleBaseline])
    @pytest.mark.parametrize("text,values", [
        ("x*y : 5", {"x": 2.0, "y": 2.0}),
        ("x*y : 50", {"x": 40.0, "y": 20.0}),
        ("2 x*y + 3 y*z : 7", {"x": 5.0, "y": 2.0, "z": 7.0}),
        ("x^2 + y^2 : 2", {"x": 3.0, "y": 4.0}),
        ("x*y*z : 10", {"x": 2.0, "y": 3.0, "z": 4.0}),
    ])
    def test_qab_respected(self, baseline_cls, text, values):
        query = parse_query(text)
        plan = baseline_cls().plan(query, values)
        deviation = max_query_deviation(query.terms, values, plan.primary)
        assert deviation <= query.qab * (1 + 1e-6)

    def test_single_dab_semantics(self):
        query = parse_query("x*y : 5")
        plan = SharfmanStyleBaseline().plan(query, {"x": 2.0, "y": 2.0})
        assert plan.secondary is None
        assert not plan.window_contains({"x": 2.1})


class TestStringency:
    """The paper's Section-V argument: per-item sufficient conditions are
    never better than the joint necessary-and-sufficient one."""

    @pytest.mark.parametrize("rates", [
        {"x": 1.0, "y": 1.0},
        {"x": 5.0, "y": 0.5},
        {"x": 0.1, "y": 3.0},
    ])
    def test_optimal_refresh_dominates_sharfman(self, rates):
        query = parse_query("x*y : 50")
        values = {"x": 40.0, "y": 20.0}
        model = CostModel(rates=rates)
        optimal = OptimalRefreshPlanner(model).plan(query, values)
        baseline = SharfmanStyleBaseline(model).plan(query, values)
        assert model.estimated_refresh_rate(optimal.primary) <= \
            model.estimated_refresh_rate(baseline.primary) * (1 + 1e-6)

    def test_optimal_refresh_dominates_uniform(self):
        query = parse_query("x*y : 50")
        values = {"x": 40.0, "y": 20.0}
        model = CostModel(rates={"x": 5.0, "y": 0.5})
        optimal = OptimalRefreshPlanner(model).plan(query, values)
        baseline = UniformAllocationBaseline(model).plan(query, values)
        assert model.estimated_refresh_rate(optimal.primary) < \
            model.estimated_refresh_rate(baseline.primary)

    def test_gap_widens_with_rate_skew(self):
        """More heterogeneous λ ⇒ relatively worse baseline (it cannot see
        rates at all)."""
        query = parse_query("x*y : 50")
        values = {"x": 40.0, "y": 20.0}
        ratios = []
        for skew in (1.0, 4.0, 16.0):
            model = CostModel(rates={"x": skew, "y": 1.0})
            optimal = OptimalRefreshPlanner(model).plan(query, values)
            baseline = SharfmanStyleBaseline(model).plan(query, values)
            ratios.append(model.estimated_refresh_rate(baseline.primary)
                          / model.estimated_refresh_rate(optimal.primary))
        assert ratios[0] < ratios[-1]


class TestMultiplicativeSplit:
    def test_product_growth_exact(self):
        """For a single product term the multiplicative split satisfies the
        QAB with equality: prod(V_i (1+r))^p = base (1 + B/base)."""
        query = parse_query("x*y : 50")
        values = {"x": 40.0, "y": 20.0}
        plan = SharfmanStyleBaseline().plan(query, values)
        deviation = max_query_deviation(query.terms, values, plan.primary)
        assert deviation == pytest.approx(50.0, rel=1e-9)

    def test_equal_relative_growth(self):
        query = parse_query("x*y : 50")
        values = {"x": 40.0, "y": 20.0}
        plan = SharfmanStyleBaseline().plan(query, values)
        rel_x = plan.primary["x"] / values["x"]
        rel_y = plan.primary["y"] / values["y"]
        assert rel_x == pytest.approx(rel_y, rel=1e-9)

    def test_nonpositive_value_rejected(self):
        query = parse_query("x*y : 5")
        with pytest.raises(FilterError):
            SharfmanStyleBaseline().plan(query, {"x": 0.0, "y": 1.0})

    def test_shared_item_takes_min(self):
        query = parse_query("x*y + 100 x*z : 5")
        values = {"x": 2.0, "y": 2.0, "z": 2.0}
        plan = SharfmanStyleBaseline().plan(query, values)
        # the heavy term (100 x z) forces the tighter bound on x
        deviation = max_query_deviation(query.terms, values, plan.primary)
        assert deviation <= query.qab * (1 + 1e-6)
