"""Unit tests for the oracle's posynomials (``tests/oracle/posynomial.py``)."""

import numpy as np
import pytest

from tests.oracle import (
    Monomial,
    NotPosynomialError,
    Posynomial,
    as_posynomial,
    substitute,
)

x = Monomial.variable("x")
y = Monomial.variable("y")


class TestConstruction:
    def test_like_terms_combined(self):
        p = Posynomial([x, x, 2 * y])
        assert len(p) == 2
        assert p.evaluate({"x": 1.0, "y": 1.0}) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(NotPosynomialError):
            Posynomial([])

    def test_non_monomial_rejected(self):
        with pytest.raises(TypeError):
            Posynomial([1.0])

    def test_as_posynomial_coercions(self):
        assert as_posynomial(2.0).is_constant
        assert as_posynomial(x).is_monomial
        p = x + y
        assert as_posynomial(p) is p

    def test_as_posynomial_rejects_junk(self):
        with pytest.raises(TypeError):
            as_posynomial("x + y")


class TestAccessors:
    def test_variables_sorted(self):
        p = y + x + 1
        assert p.variables == ("x", "y")

    def test_constant_part(self):
        assert (x + 3 + 2).constant_part == pytest.approx(5.0)
        assert (x + y).constant_part == 0.0

    def test_degree(self):
        p = x * y + x
        assert p.degree == pytest.approx(2.0)

    def test_as_monomial_roundtrip(self):
        p = Posynomial([2 * x])
        assert p.as_monomial() == 2 * x

    def test_adding_nonpositive_scalar_rejected(self):
        with pytest.raises(TypeError):
            Posynomial([2 * x]) + 0.0

    def test_as_monomial_rejects_sums(self):
        with pytest.raises(NotPosynomialError):
            (x + y).as_monomial()


class TestAlgebra:
    def test_addition(self):
        p = (x + y) + 2
        assert p.evaluate({"x": 1.0, "y": 1.0}) == pytest.approx(4.0)

    def test_multiplication_distributes(self):
        p = (x + y) * (x + y)
        # x^2 + 2xy + y^2
        assert len(p) == 3
        assert p.evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(9.0)

    def test_scalar_multiplication(self):
        p = 3 * (x + y)
        assert p.evaluate({"x": 1.0, "y": 1.0}) == pytest.approx(6.0)

    def test_division_by_monomial(self):
        p = (x * y + y) / y
        assert p.evaluate({"x": 5.0, "y": 7.0}) == pytest.approx(6.0)

    def test_division_by_posynomial_rejected(self):
        with pytest.raises(NotPosynomialError):
            (x + y) / (x + y)

    def test_integer_power(self):
        p = (x + 1) ** 3
        assert p.evaluate({"x": 2.0}) == pytest.approx(27.0)

    def test_non_integer_power_of_sum_rejected(self):
        with pytest.raises(NotPosynomialError):
            (x + y) ** 0.5

    def test_fractional_power_of_monomial_posynomial(self):
        p = Posynomial([4 * x ** 2]) ** 0.5
        assert p.evaluate({"x": 3.0}) == pytest.approx(6.0)


class TestExponentMatrix:
    def test_shapes_and_values(self):
        p = 2 * x * y + 3 * x
        A, log_c = p.exponent_matrix(["x", "y"])
        assert A.shape == (2, 2)
        assert log_c.shape == (2,)
        # evaluate through the log-space form
        point = np.log([2.0, 5.0])
        direct = p.evaluate({"x": 2.0, "y": 5.0})
        via_matrix = np.exp(A @ point + log_c).sum()
        assert via_matrix == pytest.approx(direct)

    def test_unknown_variable_raises(self):
        with pytest.raises(KeyError):
            (x + y).exponent_matrix(["x"])


class TestSubstitute:
    def test_partial_evaluation(self):
        p = 2 * x * y + y
        q = substitute(p, {"x": 3.0})
        assert q.variables == ("y",)
        assert q.evaluate({"y": 2.0}) == pytest.approx(p.evaluate({"x": 3.0, "y": 2.0}))

    def test_full_evaluation_leaves_constant(self):
        p = x + y
        q = substitute(p, {"x": 1.0, "y": 2.0})
        assert q.is_constant
        assert q.constant_part == pytest.approx(3.0)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(NotPosynomialError):
            substitute(x + y, {"x": -1.0})


class TestProtocol:
    def test_equality_structural(self):
        assert x + y == y + x
        assert x + y != x + 2 * y

    def test_equality_with_monomial(self):
        assert Posynomial([2 * x]) == 2 * x

    def test_hash_consistency(self):
        assert hash(x + y) == hash(y + x)

    def test_iteration(self):
        terms = list(x + y)
        assert len(terms) == 2
