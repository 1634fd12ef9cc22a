"""Micro-benchmarks of the GP substrate (pytest-benchmark).

The programs are written with the object algebra kept as the test oracle
(``tests/oracle/``); the solves are the package's own
:func:`repro.gp.solver.solve_compiled` on their compiled arrays, and the
expansion benchmarks set the oracle's scalar expansion next to
:class:`repro.queries.compiled.CompiledDeviation`, which the planners run.
"""

import pytest

from repro.gp.solver import solve_compiled
from repro.queries import parse_query
from repro.queries.compiled import CompiledDeviation
from tests.oracle import GeometricProgram, Monomial
from tests.oracle.deviation import deviation_posynomial


@pytest.fixture(scope="module")
def wide_program():
    """A 20-variable budget program resembling one QAB constraint, compiled."""
    variables = [Monomial.variable(f"t{i}") for i in range(20)]
    objective = variables[0] ** -1
    for v in variables[1:]:
        objective = objective + 1 / v
    gp = GeometricProgram(objective=objective)
    total = variables[0]
    for v in variables[1:]:
        total = total + v
    gp.add_constraint(total, 20.0)
    return gp.compile()


def test_bench_gp_solve_20_vars(benchmark, wide_program):
    result = benchmark(solve_compiled, wide_program)
    assert result.report.is_optimal


def test_bench_gp_warm_solve(benchmark, wide_program):
    warm = solve_compiled(wide_program).values
    result = benchmark(solve_compiled, wide_program, initial=warm)
    assert result.report.is_optimal


def test_bench_posynomial_product(benchmark):
    x, y = Monomial.variable("x"), Monomial.variable("y")
    p = (x + y + 1) ** 3

    def multiply():
        return p * p

    q = benchmark(multiply)
    assert len(q) >= len(p)


def _portfolio_14():
    names = [f"x{i}" for i in range(14)]
    body = " + ".join(f"{i + 1} {a}*{b}" for i, (a, b)
                      in enumerate(zip(names[::2], names[1::2])))
    query = parse_query(body, qab=10.0)
    values = {name: 50.0 + i for i, name in enumerate(names)}
    return query, values


def test_bench_deviation_expansion(benchmark):
    """Scalar (oracle) expansion cost for a 14-item portfolio query."""
    query, values = _portfolio_14()
    posy = benchmark(deviation_posynomial, query.terms, values, True)
    assert len(posy) > 0


def test_bench_compiled_deviation_coefficients(benchmark):
    """The same expansion's coefficients as the planners get them on every
    DAB recomputation — it must stay cheap."""
    query, values = _portfolio_14()
    compiled = CompiledDeviation(query.terms, include_secondary=True)
    coefficients = benchmark(compiled.coefficients, values, query.qab)
    assert len(coefficients) == len(compiled.signatures) > 0
