"""Unit tests for the worst-case-deviation expansion (paper Eq. 1 and 2)."""

import pytest

from repro.exceptions import InvalidQueryError
from repro.queries import (
    PolynomialQuery,
    QueryTerm,
    max_query_deviation,
    max_term_deviation,
    parse_query,
    primary_variable,
    secondary_variable,
)
from repro.queries.deviation import assignment_feasible_for_query, item_of_variable
from tests.oracle.deviation import deviation_posynomial, dual_dab_condition


class TestVariableNames:
    def test_roundtrip(self):
        assert item_of_variable(primary_variable("x1")) == "x1"
        assert item_of_variable(secondary_variable("x1")) == "x1"

    def test_item_of_non_dab_variable(self):
        with pytest.raises(ValueError):
            item_of_variable("x1")


class TestEquation1:
    """Single-DAB condition for Q = xy (paper Eq. 1):
    Vx·by + Vy·bx + bx·by <= B."""

    def test_product_expansion_matches_paper(self):
        q = parse_query("x*y : 5")
        p = deviation_posynomial(q.terms, {"x": 2.0, "y": 2.0})
        # evaluate at bx = by = 1: 2 + 2 + 1 = 5 (the Fig. 2 numbers)
        value = p.evaluate({primary_variable("x"): 1.0, primary_variable("y"): 1.0})
        assert value == pytest.approx(5.0)

    def test_asymmetric_values(self):
        q = parse_query("x*y : 50")
        p = deviation_posynomial(q.terms, {"x": 40.0, "y": 20.0})
        value = p.evaluate({primary_variable("x"): 1.0, primary_variable("y"): 2.0})
        # Vx·by + Vy·bx + bx·by = 80 + 20 + 2
        assert value == pytest.approx(102.0)

    def test_square_expansion(self):
        q = parse_query("x^2 : 1")
        p = deviation_posynomial(q.terms, {"x": 3.0})
        # (3+b)^2 - 9 = 6b + b^2
        value = p.evaluate({primary_variable("x"): 0.5})
        assert value == pytest.approx(6 * 0.5 + 0.25)

    def test_weight_applied_absolutely(self):
        negative = deviation_posynomial(
            [QueryTerm.product(-2.0, "x", "y")], {"x": 1.0, "y": 1.0})
        positive = deviation_posynomial(
            [QueryTerm.product(2.0, "x", "y")], {"x": 1.0, "y": 1.0})
        assert negative == positive

    def test_matches_numeric_deviation_for_ppq(self):
        q = parse_query("2 x*y + x^2 : 1")
        values = {"x": 3.0, "y": 5.0}
        bounds = {"x": 0.2, "y": 0.7}
        p = deviation_posynomial(q.terms, values)
        symbolic = p.evaluate({primary_variable(k): v for k, v in bounds.items()})
        numeric = max_query_deviation(q.terms, values, bounds)
        assert symbolic == pytest.approx(numeric)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(InvalidQueryError, match="positive"):
            deviation_posynomial([QueryTerm.product(1.0, "x")], {"x": 0.0})

    def test_missing_value_raises(self):
        with pytest.raises(KeyError):
            deviation_posynomial([QueryTerm.product(1.0, "x")], {})


class TestEquation2:
    """Dual-DAB condition (paper Eq. 2):
    (Vx+cx)·by + (Vy+cy)·bx + bx·by <= B."""

    def test_product_dual_expansion(self):
        q = parse_query("x*y : 5")
        p = deviation_posynomial(q.terms, {"x": 2.0, "y": 2.0}, include_secondary=True)
        point = {
            primary_variable("x"): 0.5, primary_variable("y"): 0.5,
            secondary_variable("x"): 3.5, secondary_variable("y"): 2.5,
        }
        expected = (2 + 3.5) * 0.5 + (2 + 2.5) * 0.5 + 0.25
        assert p.evaluate(point) == pytest.approx(expected)

    def test_every_term_contains_a_primary(self):
        q = parse_query("x*y + x^2 : 1")
        p = deviation_posynomial(q.terms, {"x": 2.0, "y": 3.0}, include_secondary=True)
        for term in p.terms:
            assert any(v.startswith("b__") for v in term.variables)

    def test_dual_dab_condition_normalised(self):
        q = parse_query("x*y : 5")
        condition = dual_dab_condition(q.terms, {"x": 2.0, "y": 2.0}, q.qab)
        point = {
            primary_variable("x"): 1.0, primary_variable("y"): 1.0,
            secondary_variable("x"): 1e-9, secondary_variable("y"): 1e-9,
        }
        # at c ~ 0, b = 1 the Eq.-1 value is 5 = B, so normalised ~ 1
        assert condition.evaluate(point) == pytest.approx(1.0, rel=1e-6)

    def test_dual_dab_condition_rejects_bad_qab(self):
        q = parse_query("x*y : 5")
        with pytest.raises(InvalidQueryError):
            dual_dab_condition(q.terms, {"x": 2.0, "y": 2.0}, 0.0)


class TestNumericDeviation:
    def test_term_deviation_exact(self):
        term = QueryTerm.product(1.0, "x", "y")
        values = {"x": 3.0, "y": 2.0}
        # (3.5 * 2.5) - 6 = 2.75
        assert max_term_deviation(term, values, {"x": 0.5, "y": 0.5}) == pytest.approx(2.75)

    def test_items_without_bounds_are_exact(self):
        term = QueryTerm.product(1.0, "x", "y")
        assert max_term_deviation(term, {"x": 3.0, "y": 2.0}, {"x": 1.0}) == pytest.approx(2.0)

    def test_negative_bound_rejected(self):
        term = QueryTerm.product(1.0, "x")
        with pytest.raises(InvalidQueryError):
            max_term_deviation(term, {"x": 1.0}, {"x": -0.1})

    def test_fig2_invalidation_story(self):
        """Paper Fig. 2: at V=(2,2), b=(1,1) is valid for B=5; at V=(3,2)
        the same DABs are no longer valid."""
        q = parse_query("x*y : 5")
        bounds = {"x": 1.0, "y": 1.0}
        assert assignment_feasible_for_query(q.terms, {"x": 2.0, "y": 2.0}, bounds, q.qab)
        assert not assignment_feasible_for_query(q.terms, {"x": 3.0, "y": 2.0}, bounds, q.qab)
        # the concrete drift the paper uses: 3.9 * 2.9 - 6 = 5.31 > 5
        assert 3.9 * 2.9 - 6.0 > q.qab

    def test_mixed_sign_uses_triangle_bound(self):
        q = parse_query("x*y - u*v : 5")
        values = {"x": 2.0, "y": 2.0, "u": 3.0, "v": 1.0}
        bounds = {"x": 0.5, "y": 0.5, "u": 0.5, "v": 0.5}
        total = max_query_deviation(q.terms, values, bounds)
        per_term = [max_term_deviation(t, values, bounds) for t in q.terms]
        assert total == pytest.approx(sum(per_term))
