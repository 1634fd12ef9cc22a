"""Bitwise-equality tests for the compiled query/deviation evaluators.

The vectorized simulation paths are only admissible because every compiled
evaluator reproduces its scalar counterpart *bit for bit* — these tests pin
that contract (note ``==``, never ``pytest.approx``).
"""

import math

import numpy as np
import pytest

from repro.dynamics.traces import generate_trace_set
from repro.queries.items import ItemRegistry
from repro.gp.posynomial import substitute
from repro.queries import (
    PolynomialQuery,
    QueryTerm,
    deviation_posynomial,
    dual_dab_condition,
    parse_query,
    primary_variable,
)
from repro.queries.compiled import (
    CompiledDeviation,
    CompiledPolynomial,
    CompiledQueryBank,
    PowerTable,
)


def _random_query(rng, n_terms, items, max_degree=3):
    terms = []
    for _ in range(n_terms):
        width = int(rng.integers(1, min(4, len(items)) + 1))
        names = rng.choice(items, size=width, replace=False)
        exponents = {str(n): int(rng.integers(1, max_degree + 1)) for n in names}
        weight = float(rng.uniform(-4.0, 4.0)) or 1.0
        terms.append(QueryTerm(weight, exponents))
    return PolynomialQuery(terms, qab=float(rng.uniform(0.5, 10.0)))


def _random_values(rng, items):
    return {name: float(rng.uniform(0.1, 50.0)) for name in items}


ITEMS = [f"x{i}" for i in range(6)]


class TestCompiledPolynomial:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bitwise_equal_to_scalar_evaluate(self, seed):
        rng = np.random.default_rng(seed)
        for n_terms in (1, 2, 5, 8, 12):
            query = _random_query(rng, n_terms, ITEMS)
            compiled = CompiledPolynomial(query)
            for _ in range(5):
                values = _random_values(rng, ITEMS)
                assert compiled.evaluate(values) == query.evaluate(values)

    def test_shared_table_and_incremental_update(self):
        rng = np.random.default_rng(7)
        table = PowerTable()
        queries = [_random_query(rng, 6, ITEMS) for _ in range(4)]
        compiled = [CompiledPolynomial(q, table) for q in queries]
        values = _random_values(rng, ITEMS)
        vector = table.vector(values)
        for q, c in zip(queries, compiled):
            assert c.evaluate_vector(vector) == q.evaluate(values)
        # mutate one item and refresh only its slots
        values["x3"] = 17.25
        table.update(vector, "x3", values["x3"])
        for q, c in zip(queries, compiled):
            assert c.evaluate_vector(vector) == q.evaluate(values)

    def test_sentinel_survives_table_growth(self):
        table = PowerTable()
        q1 = parse_query("x*y : 1", name="q1")
        c1 = CompiledPolynomial(q1, table)
        values = {"x": 3.0, "y": 5.0, "z": 7.0}
        # registering a second query must not shift q1's gather slots
        c2 = CompiledPolynomial(parse_query("z^3 + x : 1", name="q2"), table)
        vector = table.vector(values)
        assert c1.evaluate_vector(vector) == q1.evaluate(values)
        assert c2.evaluate_vector(vector) == c2.query.evaluate(values)

    def test_power_slab_matches_per_tick_vectors(self):
        traces = generate_trace_set(
            ItemRegistry.from_names(["x", "y"]), length=20, seed=3)
        table = PowerTable()
        query = parse_query("2 x^2*y + y^3 : 1")
        compiled = CompiledPolynomial(query, table)
        slab = table.slab(traces)
        assert slab.shape == (20, len(table.pairs) + 1)
        for tick in (0, 1, 7, 19):
            values = traces.values_at(tick, ["x", "y"])
            assert np.array_equal(slab[tick], table.vector(values))
            assert compiled.evaluate_vector(slab[tick]) == query.evaluate(values)


class TestEvaluateSlab:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_rows_bitwise_equal_to_evaluate_vector(self, seed):
        rng = np.random.default_rng(seed)
        traces = generate_trace_set(ItemRegistry.from_names(ITEMS),
                                    length=30, seed=seed)
        table = PowerTable()
        compiled = [CompiledPolynomial(_random_query(rng, n, ITEMS), table)
                    for n in (1, 3, 7)]
        slab = table.slab(traces)
        for one in compiled:
            rows = one.evaluate_slab(slab)
            for tick in range(30):
                assert rows[tick] == one.evaluate_vector(slab[tick])


class TestCompiledQueryBank:
    def _bank(self, seed, n_queries=5):
        rng = np.random.default_rng(seed)
        table = PowerTable()
        compiled = [
            CompiledPolynomial(_random_query(rng, int(rng.integers(1, 9)),
                                             ITEMS), table)
            for _ in range(n_queries)
        ]
        return rng, table, compiled, CompiledQueryBank(compiled)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_of_bitwise_equal_to_evaluate_vector(self, seed):
        rng, table, compiled, bank = self._bank(seed)
        for _ in range(5):
            vector = table.vector(_random_values(rng, ITEMS))
            products = bank.products(vector)
            for index, one in enumerate(compiled):
                assert bank.value_of(index, products) == \
                    one.evaluate_vector(vector)
            for item in ITEMS:
                assert bank.values_vector(vector, item).tolist() == [
                    compiled[index].evaluate_vector(vector)
                    for index in bank.affected(item)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_vector_bitwise_equal_to_values(self, seed):
        rng, table, compiled, bank = self._bank(seed)
        for _ in range(5):
            vector = table.vector(_random_values(rng, ITEMS))
            listed = bank.values(vector)
            batched = bank.values_vector(vector)
            assert batched.tolist() == listed
            # buffer reuse across calls must not leak padding state
            assert bank.values_vector(vector).tolist() == listed
            # one item written through the bank, then read alone
            bank.write(vector, "x2", float(rng.uniform(0.1, 50.0)))
            listed = bank.values(vector)
            assert bank.values_vector(vector, "x2").tolist() == [
                listed[index] for index in bank.affected("x2")]
            assert bank.values_vector(vector).tolist() == listed

    def test_single_query_bank(self):
        _rng, table, compiled, bank = self._bank(3, n_queries=1)
        vector = table.vector({name: 2.5 for name in ITEMS})
        assert bank.values(vector) == [compiled[0].evaluate_vector(vector)]
        for item in compiled[0].query.variables:
            assert bank.values_vector(vector, item).tolist() == \
                bank.values(vector)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            CompiledQueryBank([])

    def test_mixed_tables_rejected(self):
        rng = np.random.default_rng(4)
        a = CompiledPolynomial(_random_query(rng, 2, ITEMS), PowerTable())
        b = CompiledPolynomial(_random_query(rng, 2, ITEMS), PowerTable())
        with pytest.raises(ValueError):
            CompiledQueryBank([a, b])


class TestCompiledDeviation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("include_secondary", [False, True])
    def test_coefficients_bitwise_equal(self, seed, include_secondary):
        rng = np.random.default_rng(seed)
        for n_terms in (1, 3, 8):
            query = _random_query(rng, n_terms, ITEMS)
            compiled = CompiledDeviation(
                query.terms, include_secondary=include_secondary)
            for _ in range(4):
                values = _random_values(rng, ITEMS)
                scalar = deviation_posynomial(
                    query.terms, values, include_secondary=include_secondary)
                assert compiled.signatures == tuple(
                    t.key for t in scalar.terms)
                assert compiled.coefficients(values) == [
                    t.coefficient for t in scalar.terms]

    def test_qab_division_matches_dual_dab_condition(self):
        rng = np.random.default_rng(11)
        query = _random_query(rng, 5, ITEMS)
        values = _random_values(rng, ITEMS)
        compiled = CompiledDeviation(query.terms, include_secondary=True)
        scalar = dual_dab_condition(query.terms, values, query.qab)
        assert compiled.coefficients(values, qab=query.qab) == [
            t.coefficient for t in scalar.terms]
        # exponent matrix + log-coefficients against the scalar compile
        order = sorted(scalar.variables)
        A_scalar, log_scalar = scalar.exponent_matrix(order)
        assert np.array_equal(compiled.exponent_matrix(order), A_scalar)
        assert np.array_equal(
            compiled.log_coefficients(values, qab=query.qab), log_scalar)

    def test_cross_term_like_term_combining(self):
        # x^2 and (x)^2-ish overlap: both terms contribute b__x rows that the
        # Posynomial algebra combines; the compiled path must fold them in
        # the same order.
        query = parse_query("x^2 + 3 x^2*y + 2 x : 1")
        values = {"x": 2.5, "y": 1.75}
        for include_secondary in (False, True):
            compiled = CompiledDeviation(
                query.terms, include_secondary=include_secondary)
            scalar = deviation_posynomial(
                query.terms, values, include_secondary=include_secondary)
            assert compiled.coefficients(values) == [
                t.coefficient for t in scalar.terms]

    def test_missing_and_nonpositive_values_raise_like_scalar(self):
        compiled = CompiledDeviation(parse_query("x*y : 1").terms)
        with pytest.raises(KeyError):
            compiled.coefficients({"x": 1.0})
        from repro.exceptions import InvalidQueryError
        with pytest.raises(InvalidQueryError):
            compiled.coefficients({"x": 1.0, "y": 0.0})


class TestCompiledSubstitution:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_scalar_substitute(self, seed):
        rng = np.random.default_rng(seed)
        query = _random_query(rng, 6, ITEMS)
        values = _random_values(rng, ITEMS)
        compiled = CompiledDeviation(query.terms, include_secondary=True)
        scalar = dual_dab_condition(query.terms, values, query.qab)
        fixed = {primary_variable(name): float(rng.uniform(0.05, 2.0))
                 for name in query.variables}
        widened_scalar = substitute(scalar, fixed)
        widened = compiled.substituted(fixed)
        parent = compiled.coefficients(values, qab=query.qab)
        assert widened.signatures == tuple(t.key for t in widened_scalar.terms)
        assert widened.coefficients(parent, fixed) == [
            t.coefficient for t in widened_scalar.terms]

    def test_fully_substituted_row_is_constant(self):
        query = parse_query("x : 1")
        compiled = CompiledDeviation(query.terms, include_secondary=True)
        widened = compiled.substituted([primary_variable("x")])
        assert widened.is_constant
        values = {"x": 4.0}
        parent = compiled.coefficients(values, qab=query.qab)
        coeffs = widened.coefficients(parent, {primary_variable("x"): 0.5})
        scalar = substitute(dual_dab_condition(query.terms, values, query.qab),
                            {primary_variable("x"): 0.5})
        assert coeffs == [t.coefficient for t in scalar.terms]
