"""Unit tests for :mod:`repro.queries.polynomial`."""

import pytest

from repro.exceptions import InvalidQueryError
from repro.queries import PolynomialQuery, QueryTerm


def make_mixed():
    """``3·x·y − 2·u·v : 5`` — independent halves."""
    return PolynomialQuery(
        [QueryTerm.product(3.0, "x", "y"), QueryTerm.product(-2.0, "u", "v")],
        qab=5.0, name="mixed",
    )


class TestConstruction:
    def test_like_terms_combined(self):
        q = PolynomialQuery(
            [QueryTerm.product(1.0, "x", "y"), QueryTerm.product(2.0, "x", "y")],
            qab=1.0,
        )
        assert len(q.terms) == 1
        assert q.terms[0].weight == pytest.approx(3.0)

    def test_cancellation_rejected(self):
        with pytest.raises(InvalidQueryError, match="zero"):
            PolynomialQuery(
                [QueryTerm.product(1.0, "x"), QueryTerm.product(-1.0, "x")],
                qab=1.0,
            )

    def test_nonpositive_qab_rejected(self):
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(InvalidQueryError):
                PolynomialQuery([QueryTerm.product(1.0, "x")], qab=bad)

    def test_auto_names_unique(self):
        a = PolynomialQuery([QueryTerm.product(1.0, "x")], qab=1.0)
        b = PolynomialQuery([QueryTerm.product(1.0, "x")], qab=1.0)
        assert a.name != b.name

    def test_product_factory(self):
        q = PolynomialQuery.product(5.0, "x", "y")
        assert q.qab == 5.0
        assert q.degree == 2
        assert q.variables == ("x", "y")

    def test_single_term_factory(self):
        q = PolynomialQuery.single_term(2.0, {"x": 2}, qab=1.0)
        assert q.evaluate({"x": 3.0}) == pytest.approx(18.0)


class TestStructure:
    def test_is_positive_coefficient(self):
        assert PolynomialQuery.product(1.0, "x", "y").is_positive_coefficient
        assert not make_mixed().is_positive_coefficient

    def test_degree_and_linearity(self):
        linear = PolynomialQuery([QueryTerm(1.0, {"x": 1})], qab=1.0)
        assert linear.is_linear and not linear.is_nonlinear
        assert make_mixed().is_nonlinear

    def test_split(self):
        p1, p2 = make_mixed().split()
        assert [t.weight for t in p1] == [3.0]
        assert [t.weight for t in p2] == [2.0]  # negated to positive
        assert all(t.is_positive for t in p1 + p2)

    def test_split_all_positive(self):
        p1, p2 = PolynomialQuery.product(1.0, "x", "y").split()
        assert len(p1) == 1 and len(p2) == 0

    def test_positive_mirror(self):
        mirror = make_mixed().positive_mirror()
        assert mirror.is_positive_coefficient
        assert mirror.qab == 5.0
        assert mirror.evaluate({"x": 1, "y": 1, "u": 1, "v": 1}) == pytest.approx(5.0)

    def test_halves_independence(self):
        assert make_mixed().halves_are_independent()
        dependent = PolynomialQuery(
            [QueryTerm(1.0, {"x": 2}), QueryTerm(-1.0, {"x": 1, "y": 1})], qab=1.0
        )
        assert not dependent.halves_are_independent()

    def test_with_qab(self):
        q = make_mixed().with_qab(9.0)
        assert q.qab == 9.0
        assert q.terms == make_mixed().terms


class TestEvaluation:
    def test_evaluate_mixed(self):
        q = make_mixed()
        values = {"x": 2.0, "y": 3.0, "u": 1.0, "v": 4.0}
        assert q.evaluate(values) == pytest.approx(3 * 6 - 2 * 4)

    def test_within_bound(self):
        q = make_mixed()
        assert q.within_bound(10.0, 14.9)
        assert not q.within_bound(10.0, 15.1)

    def test_equality_and_hash(self):
        assert make_mixed() == make_mixed()
        assert hash(make_mixed()) == hash(make_mixed())
        assert make_mixed() != make_mixed().with_qab(6.0)

    def test_repr_contains_body(self):
        text = repr(make_mixed())
        assert "x*y" in text and ": 5" in text
