"""Unit tests for the oracle's monomials (``tests/oracle/monomial.py``)."""

import math

import pytest

from tests.oracle import Monomial, NotPosynomialError, Posynomial, variables


class TestConstruction:
    def test_variable_factory(self):
        x = Monomial.variable("x")
        assert x.coefficient == 1.0
        assert x.exponents == {"x": 1.0}

    def test_constant_factory(self):
        c = Monomial.constant(3.5)
        assert c.is_constant
        assert c.evaluate({}) == 3.5

    def test_zero_exponents_dropped(self):
        m = Monomial(2.0, {"x": 0.0, "y": 1.0})
        assert m.exponents == {"y": 1.0}
        assert m.variables == ("y",)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(NotPosynomialError):
            Monomial(-1.0, {"x": 1.0})

    def test_zero_coefficient_rejected(self):
        with pytest.raises(NotPosynomialError):
            Monomial(0.0, {"x": 1.0})

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Monomial(float("nan"), {"x": 1.0})

    def test_infinite_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(1.0, {"x": float("inf")})

    def test_bad_variable_name_rejected(self):
        with pytest.raises(TypeError):
            Monomial(1.0, {"": 1.0})

    def test_variables_helper(self):
        x, y = variables(["x", "y"])
        assert x == Monomial.variable("x")
        assert y == Monomial.variable("y")


class TestEvaluation:
    def test_simple(self):
        m = Monomial(2.0, {"x": 2.0, "y": -1.0})
        assert m.evaluate({"x": 3.0, "y": 2.0}) == pytest.approx(9.0)

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError, match="x"):
            Monomial.variable("x").evaluate({"y": 1.0})

    def test_nonpositive_value_raises(self):
        with pytest.raises(ValueError, match="positive"):
            Monomial.variable("x").evaluate({"x": 0.0})

    def test_fractional_exponent(self):
        m = Monomial(1.0, {"x": 0.5})
        assert m.evaluate({"x": 4.0}) == pytest.approx(2.0)


class TestAlgebra:
    def test_multiplication_merges_exponents(self):
        x, y = Monomial.variable("x"), Monomial.variable("y")
        product = (2 * x) * (3 * x * y)
        assert product.coefficient == pytest.approx(6.0)
        assert product.exponents == {"x": 2.0, "y": 1.0}

    def test_multiplication_cancels_exponents(self):
        x = Monomial.variable("x")
        assert (x * x ** -1).is_constant

    def test_scalar_multiplication_commutes(self):
        x = Monomial.variable("x")
        assert 2 * x == x * 2

    def test_division_by_monomial(self):
        x, y = Monomial.variable("x"), Monomial.variable("y")
        q = (6 * x * y) / (2 * y)
        assert q.coefficient == pytest.approx(3.0)
        assert q.exponents == {"x": 1.0}

    def test_division_by_scalar(self):
        x = Monomial.variable("x")
        assert (x / 4).coefficient == pytest.approx(0.25)

    def test_rtruediv_builds_reciprocal(self):
        x = Monomial.variable("x")
        inv = 1 / x
        assert inv.exponents == {"x": -1.0}

    def test_division_by_nonpositive_scalar_rejected(self):
        with pytest.raises(NotPosynomialError):
            Monomial.variable("x") / 0.0

    def test_power(self):
        m = Monomial(2.0, {"x": 1.0}) ** 3
        assert m.coefficient == pytest.approx(8.0)
        assert m.exponents == {"x": 3.0}

    def test_fractional_power(self):
        m = Monomial(4.0, {"x": 2.0}) ** 0.5
        assert m.coefficient == pytest.approx(2.0)
        assert m.exponents == {"x": 1.0}

    def test_addition_promotes_to_posynomial(self):
        x, y = Monomial.variable("x"), Monomial.variable("y")
        s = x + y
        assert isinstance(s, Posynomial)
        assert len(s) == 2

    def test_addition_with_scalar(self):
        x = Monomial.variable("x")
        s = x + 1
        assert isinstance(s, Posynomial)
        assert s.constant_part == pytest.approx(1.0)


class TestProtocol:
    def test_equality_ignores_construction_order(self):
        a = Monomial(2.0, {"x": 1.0, "y": 2.0})
        b = Monomial(2.0, {"y": 2.0, "x": 1.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_coefficient(self):
        assert Monomial(2.0, {"x": 1.0}) != Monomial(3.0, {"x": 1.0})

    def test_degree(self):
        assert Monomial(1.0, {"x": 2.0, "y": 1.5}).degree == pytest.approx(3.5)

    def test_exponent_of(self):
        m = Monomial(1.0, {"x": 2.0})
        assert m.exponent_of("x") == 2.0
        assert m.exponent_of("z") == 0.0

    def test_repr_mentions_variables(self):
        assert "x^2" in repr(Monomial(1.0, {"x": 2.0}))
