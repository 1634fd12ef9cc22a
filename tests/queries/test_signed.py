"""Tests for the signed (Eq.-4) expansion, both directions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InvalidQueryError
from repro.queries import PolynomialQuery, QueryTerm, parse_query
from repro.queries.deviation import primary_variable, secondary_variable
from repro.queries.signed import (
    mixed_dual_condition,
    mixed_worst_deviation,
    row_values,
)


def eval_condition(pos, neg, b, c):
    point = {primary_variable(k): v for k, v in b.items()}
    point.update({secondary_variable(k): v for k, v in c.items()})
    return sum(row_values(pos, point)) - (
        sum(row_values(neg, point)) if neg else 0.0)


class TestEq4HandChecks:
    """The paper's Eq. 4 for Q = xy - uv, verified coefficient by
    coefficient."""

    QUERY = "x*y - u*v : 5"
    VALUES = {"x": 5.0, "y": 4.0, "u": 3.0, "v": 2.0}
    B = {"x": 0.3, "y": 0.2, "u": 0.25, "v": 0.15}
    C = {"x": 0.5, "y": 0.4, "u": 0.6, "v": 0.3}

    def test_query_up_matches_paper_formula(self):
        q = parse_query(self.QUERY)
        pos, neg = mixed_dual_condition(q.terms, self.VALUES, "query_up")
        V, b, c = self.VALUES, self.B, self.C
        hand = ((V["x"] + c["x"]) * b["y"] + (V["y"] + c["y"]) * b["x"]
                + b["x"] * b["y"]
                + (V["u"] - c["u"]) * b["v"] + (V["v"] - c["v"]) * b["u"]
                - b["u"] * b["v"])
        assert eval_condition(pos, neg, b, c) == pytest.approx(hand)

    def test_query_down_is_the_mirror(self):
        q = parse_query(self.QUERY)
        pos, neg = mixed_dual_condition(q.terms, self.VALUES, "query_down")
        V, b, c = self.VALUES, self.B, self.C
        hand = ((V["x"] - c["x"]) * b["y"] + (V["y"] - c["y"]) * b["x"]
                - b["x"] * b["y"]
                + (V["u"] + c["u"]) * b["v"] + (V["v"] + c["v"]) * b["u"]
                + b["u"] * b["v"])
        assert eval_condition(pos, neg, b, c) == pytest.approx(hand)

    def test_numeric_oracle_agrees(self):
        q = parse_query(self.QUERY)
        for direction in ("query_up", "query_down"):
            pos, neg = mixed_dual_condition(q.terms, self.VALUES, direction)
            expanded = eval_condition(pos, neg, self.B, self.C)
            direct = mixed_worst_deviation(q.terms, self.VALUES,
                                           self.B, self.C, direction)
            assert expanded == pytest.approx(direct)

    def test_both_takes_max(self):
        q = parse_query(self.QUERY)
        both = mixed_worst_deviation(q.terms, self.VALUES, self.B, self.C)
        up = mixed_worst_deviation(q.terms, self.VALUES, self.B, self.C,
                                   "query_up")
        down = mixed_worst_deviation(q.terms, self.VALUES, self.B, self.C,
                                     "query_down")
        assert both == pytest.approx(max(up, down))

    def test_heavy_negative_half_flips_dominant_direction(self):
        """With P2 ten times heavier, the query-*down* case dominates —
        the reason Eq. 4 alone is not sufficient."""
        q = parse_query("x*y - 10 u*v : 5")
        up = mixed_worst_deviation(q.terms, self.VALUES, self.B, self.C,
                                   "query_up")
        down = mixed_worst_deviation(q.terms, self.VALUES, self.B, self.C,
                                     "query_down")
        assert down > up

    def test_ppq_has_no_negative_part(self):
        q = parse_query("x*y : 5")
        pos, neg = mixed_dual_condition(q.terms, {"x": 2.0, "y": 2.0},
                                        "query_up")
        assert neg is None

    def test_bad_direction(self):
        q = parse_query("x*y : 5")
        with pytest.raises(InvalidQueryError):
            mixed_dual_condition(q.terms, {"x": 2.0, "y": 2.0}, "sideways")
        with pytest.raises(InvalidQueryError):
            mixed_worst_deviation(q.terms, {"x": 2.0, "y": 2.0},
                                  {"x": 0.1, "y": 0.1}, {"x": 0.2, "y": 0.2},
                                  "sideways")

    def test_window_overshoot_rejected(self):
        q = parse_query("x*y - u*v : 5")
        with pytest.raises(InvalidQueryError, match="exceed"):
            mixed_worst_deviation(q.terms, self.VALUES, {"u": 2.0, "v": 0.1,
                                                         "x": 0.1, "y": 0.1},
                                  {"u": 2.0, "v": 0.1, "x": 0.1, "y": 0.1})


weights = st.floats(min_value=0.2, max_value=10.0, allow_nan=False)
values_st = st.floats(min_value=2.0, max_value=50.0, allow_nan=False)
fracs = st.floats(min_value=0.01, max_value=0.3, allow_nan=False)


@st.composite
def signed_worlds(draw):
    w1, w2 = draw(weights), draw(weights)
    terms = [QueryTerm.product(w1, "x", "y"), QueryTerm.product(-w2, "u", "v")]
    values = {n: draw(values_st) for n in ("x", "y", "u", "v")}
    bf = draw(fracs)
    cf = draw(st.floats(min_value=bf, max_value=0.4))
    b = {n: bf * v for n, v in values.items()}
    c = {n: cf * v for n, v in values.items()}
    return terms, values, b, c


class TestSignedProperties:
    @given(signed_worlds())
    @settings(max_examples=60, deadline=None)
    def test_expansion_matches_oracle(self, world):
        terms, values, b, c = world
        for direction in ("query_up", "query_down"):
            pos, neg = mixed_dual_condition(terms, values, direction)
            expanded = eval_condition(pos, neg, b, c)
            direct = mixed_worst_deviation(terms, values, b, c, direction)
            assert expanded == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @given(signed_worlds(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_condition_bounds_actual_movement(self, world, data):
        """Any joint movement — windows drifting anywhere within ±c, then
        filters moving within ±b — changes the query by at most the
        two-direction worst case."""
        terms, values, b, c = world
        query = PolynomialQuery(terms, qab=1.0)
        worst = mixed_worst_deviation(terms, values, b, c)
        cached = {}
        truth = {}
        for name, value in values.items():
            drift = data.draw(st.floats(min_value=-1.0, max_value=1.0)) * c[name]
            cached[name] = max(value + drift, 1e-9)
            move = data.draw(st.floats(min_value=-1.0, max_value=1.0)) * b[name]
            truth[name] = max(cached[name] + move, 1e-9)
        change = abs(query.evaluate(truth) - query.evaluate(cached))
        assert change <= worst * (1 + 1e-9) + 1e-9

    @given(signed_worlds())
    @settings(max_examples=60, deadline=None)
    def test_mirror_condition_dominates_both_directions(self, world):
        """Claim 1 extended: the Different-Sum mirror condition evaluated
        at the up-edge dominates both directional signed conditions — the
        formal reason DS is a sound (conservative) seed."""
        from repro.queries.deviation import max_query_deviation

        terms, values, b, c = world
        mirror_terms = [t.abs() for t in terms]
        edge = {n: values[n] + c[n] for n in values}
        mirror = max_query_deviation(mirror_terms, edge, b)
        signed = mixed_worst_deviation(terms, values, b, c)
        assert signed <= mirror * (1 + 1e-9)
