"""Property-based tests for the deviation expansion.

The central invariant of the whole system: the symbolic posynomial equals
the exact worst-case deviation for PPQs, and the worst case really is the
worst over random in-window movements.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.queries import (
    PolynomialQuery,
    QueryTerm,
    max_query_deviation,
    primary_variable,
    secondary_variable,
)
from tests.oracle.deviation import deviation_posynomial

item_names = ["x", "y", "z", "w"]

weights = st.floats(min_value=0.1, max_value=50.0,
                    allow_nan=False, allow_infinity=False)
powers = st.integers(min_value=1, max_value=3)
base_values = st.floats(min_value=0.5, max_value=100.0,
                        allow_nan=False, allow_infinity=False)
bound_values = st.floats(min_value=0.001, max_value=5.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def ppq_terms(draw):
    term_count = draw(st.integers(min_value=1, max_value=3))
    terms = []
    for _ in range(term_count):
        item_count = draw(st.integers(min_value=1, max_value=3))
        chosen = draw(st.permutations(item_names))[:item_count]
        exponents = {name: draw(powers) for name in chosen}
        terms.append(QueryTerm(draw(weights), exponents))
    return terms


@st.composite
def worlds(draw):
    terms = draw(ppq_terms())
    items = sorted({n for t in terms for n in t.variables})
    values = {n: draw(base_values) for n in items}
    bounds = {n: draw(bound_values) for n in items}
    return terms, values, bounds


class TestExpansionProperties:
    @given(worlds())
    @settings(max_examples=80, deadline=None)
    def test_symbolic_equals_numeric_worst_case(self, world):
        terms, values, bounds = world
        posy = deviation_posynomial(terms, values)
        symbolic = posy.evaluate({primary_variable(k): v for k, v in bounds.items()})
        numeric = max_query_deviation(terms, values, bounds)
        assert symbolic == pytest.approx(numeric, rel=1e-9)

    @given(worlds())
    @settings(max_examples=80, deadline=None)
    def test_dual_form_reduces_to_single_as_c_vanishes(self, world):
        terms, values, bounds = world
        single = deviation_posynomial(terms, values)
        dual = deviation_posynomial(terms, values, include_secondary=True)
        point = {primary_variable(k): v for k, v in bounds.items()}
        point.update({secondary_variable(k): 1e-12 for k in bounds})
        assert dual.evaluate(point) == pytest.approx(
            single.evaluate({primary_variable(k): v for k, v in bounds.items()}),
            rel=1e-6)

    @given(worlds())
    @settings(max_examples=80, deadline=None)
    def test_deviation_monotone_in_base_values(self, world):
        """Feasibility at inflated values implies feasibility at true ones —
        why the secondary window's worst point is its upper edge ``V + c``
        (and why a plan made at inflated values is needlessly tight)."""
        terms, values, bounds = world
        inflated = {k: v * 1.07 for k, v in values.items()}
        assert max_query_deviation(terms, values, bounds) <= \
            max_query_deviation(terms, inflated, bounds) + 1e-12

    @given(worlds())
    @settings(max_examples=80, deadline=None)
    def test_deviation_monotone_in_bounds(self, world):
        terms, values, bounds = world
        tighter = {k: v * 0.5 for k, v in bounds.items()}
        assert max_query_deviation(terms, values, tighter) <= \
            max_query_deviation(terms, values, bounds) + 1e-12

    @given(worlds(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_worst_case_dominates_random_movements(self, world, data):
        """For a PPQ, any |d_i| <= b_i movement changes the query by at most
        the computed worst case."""
        terms, values, bounds = world
        moved = {}
        for name, value in values.items():
            delta = data.draw(st.floats(min_value=-1.0, max_value=1.0,
                                        allow_nan=False)) * bounds[name]
            moved[name] = max(value + delta, 1e-9)
        query = PolynomialQuery(terms, qab=1.0)
        change = abs(query.evaluate(moved) - query.evaluate(values))
        worst = max_query_deviation(terms, values, bounds)
        assert change <= worst * (1 + 1e-9) + 1e-9

    @given(worlds())
    @settings(max_examples=50, deadline=None)
    def test_dual_window_edge_guarantee(self, world):
        """Eq. 2 evaluated at (b, c) dominates Eq. 1 evaluated with base
        values anywhere inside the window [V, V+c]."""
        terms, values, bounds = world
        windows = {k: 2.0 * v for k, v in bounds.items()}
        dual = deviation_posynomial(terms, values, include_secondary=True)
        point = {primary_variable(k): v for k, v in bounds.items()}
        point.update({secondary_variable(k): windows[k] for k in windows})
        edge_value = dual.evaluate(point)
        # any interior base point: V + 0.4 * c
        interior = {k: values[k] + 0.4 * windows[k] for k in values}
        interior_deviation = max_query_deviation(terms, interior, bounds)
        assert interior_deviation <= edge_value * (1 + 1e-9)
