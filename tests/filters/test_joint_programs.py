"""AAO's joint program and the signomial rounds against their oracle.

Neither program is a per-query template: AAO assembles one joint program
per ``plan_all`` and the signomial planner one program per condensation
round, both with :func:`repro.filters.compiled_gp._assemble_priced`.  The
oracle writes the same programs down with the object algebra
(``tests/oracle/builders.py``, ``tests/oracle/signomial.py``); DESIGN
§8.2's contract — the arrays the solver gets are *bitwise* what the
oracle's ``.compile()`` gives — is checked here over Hypothesis-generated
query banks, and with it the plans: equal arrays and equal warm starts
solve to equal plans, bit for bit.

* AAO: banks of 1–4 PPQs over shared items, both ddms, μ from 0 to 50;
  the program at two value sets, and two consecutive ``plan_all`` calls
  (the second warm-started from the first's joint optimum).
* Signomial: mixed-sign queries with independent and dependent halves;
  both directions' condition rows, every round's program at the point
  it was condensed at, the iteration counts and the plans.
"""

import os

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidQueryError
from repro.filters import AAOPlanner, SignomialPlanner
from repro.filters.cost_model import CostModel
from repro.queries import parse_query
from repro.queries.signed import mixed_dual_condition
from tests.filters.test_template_arrays import assert_same_program
from tests.oracle.builders import OracleAAOPlanner, build_aao_program
from tests.oracle.signomial import OracleSignomialPlanner
from tests.oracle.signomial import mixed_dual_condition as oracle_condition

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

ITEMS = ("w", "x", "y", "z", "Zed")      # "Zed" sorts before the lower-case names

factor = st.tuples(st.sampled_from(ITEMS), st.integers(1, 3))
term = st.tuples(
    st.floats(0.25, 4.0).map(lambda w: round(w, 3)),
    st.lists(factor, min_size=1, max_size=3, unique_by=lambda f: f[0]))
positive = st.floats(0.5, 50.0)


def _text(terms):
    return " ".join(
        ("- " if sign < 0 else "+ ") + f"{weight}*"
        + "*".join(f"{name}^{power}" for name, power in factors)
        for sign, (weight, factors) in terms).lstrip("+ ")


@st.composite
def banks(draw):
    """``(queries, values one, values two, rates)``: 1–4 PPQs."""
    queries = []
    for index in range(draw(st.integers(1, 4))):
        terms = draw(st.lists(term, min_size=1, max_size=3))
        queries.append(parse_query(_text([(1, t) for t in terms]),
                                   qab=draw(st.floats(0.1, 20.0)),
                                   name=f"bank{index}"))
    items = sorted({name for query in queries for name in query.variables})
    one = {name: draw(positive) for name in items}
    two = {name: draw(positive) for name in items}
    rates = {name: draw(st.floats(0.05, 5.0)) for name in items}
    return queries, one, two, rates


@given(bank=banks(), ddm=st.sampled_from(["monotonic", "random_walk"]),
       mu=st.floats(0.0, 50.0))
def test_aao_program_is_the_compiled_object_program(bank, ddm, mu):
    queries, one, two, rates = bank
    model = CostModel(ddm=ddm, rates=rates, recompute_cost=mu)
    planner = AAOPlanner(model)
    for values in (one, two):
        assert_same_program(planner.build_program(queries, values),
                            build_aao_program(queries, values, model).compile())


#: A bank whose first joint optimum lands 9.5e-13 over the QAB, and whose
#: warm-started second one so far over that the widening pass's constant
#: QAB row was violated: each plan's primaries are scaled onto the QAB.
OVERSHOOT = ([parse_query("1*w + 1*x : 1", name="bank0")],
             {"w": 0.5, "x": 1.0}, {"w": 1.0, "x": 1.0},
             {"w": 1.0, "x": 0.5})


@given(bank=banks(), ddm=st.sampled_from(["monotonic", "random_walk"]),
       mu=st.sampled_from([1.0, 5.0, 20.0]))
@example(bank=OVERSHOOT, ddm="monotonic", mu=1.0)
def test_aao_plans_are_the_oracle_plans(bank, ddm, mu):
    queries, one, two, rates = bank
    model = CostModel(ddm=ddm, rates=rates, recompute_cost=mu)
    planner, oracle = AAOPlanner(model), OracleAAOPlanner(model)
    for values in (one, two):           # the second starts from the first
        got = planner.plan_all(queries, values)
        want = oracle.plan_all(queries, values)
        assert got.per_query == want.per_query
        assert got.coordinator == want.coordinator


def test_a_joint_optimum_over_the_qab_is_scaled_onto_it():
    queries, one, two, rates = OVERSHOOT
    model = CostModel(ddm="monotonic", rates=rates, recompute_cost=1.0)
    for planner in (AAOPlanner(model), OracleAAOPlanner(model)):
        for values in (one, two):
            plan = planner.plan_all(queries, values).per_query["bank0"]
            assert plan.guarantees_qab(queries[0], values)
            assert sum(plan.primary.values()) <= 1.0


@st.composite
def mixed_queries(draw):
    """``(query, values, rates)``: at least one term of each sign."""
    signed = [(1, draw(term)), (-1, draw(term))] + [
        (draw(st.sampled_from([1, -1])), t)
        for t in draw(st.lists(term, max_size=2))]
    try:
        query = parse_query(_text(signed), qab=draw(st.floats(0.5, 20.0)),
                            name="mixed")
    except InvalidQueryError:
        assume(False)                           # every term cancelled
    assume(not query.is_positive_coefficient)   # like terms may cancel a sign
    values = {name: draw(st.floats(2.0, 50.0)) for name in query.variables}
    rates = {name: draw(st.floats(0.05, 5.0)) for name in query.variables}
    return query, values, rates


class _Recording(SignomialPlanner):
    """Keeps every round's assembled program of the last plan."""

    def plan(self, query, values, recompute_scale=1.0):
        self.rounds = []
        return super().plan(query, values, recompute_scale)

    def _program(self, query, values, conditions, point, recompute_cost):
        program = super()._program(query, values, conditions, point,
                                   recompute_cost)
        self.rounds.append((program, dict(point)))
        return program


def _same_rows(rows, posynomial):
    assert [signature for signature, _ in rows] == \
        [t.key for t in posynomial.terms]
    assert [coefficient.hex() for _, coefficient in rows] == \
        [t.coefficient.hex() for t in posynomial.terms]


_EXAMPLES = [("x*y - u*v : 5", {"x": 5.0, "y": 4.0, "u": 3.0, "v": 2.0}),
             ("x^2 - x*y : 4", {"x": 3.0, "y": 2.0}),        # dependent halves
             ("x*y - 10 u*v : 20", {"x": 5.0, "y": 4.0, "u": 3.0, "v": 2.0}),
             ("2 x - 3 y : 6", {"x": 4.0, "y": 5.0})]         # nothing condensed


@given(case=mixed_queries(), ddm=st.sampled_from(["monotonic", "random_walk"]),
       mu=st.floats(0.5, 20.0))
@example(case=(parse_query(_EXAMPLES[0][0], name="mixed"), _EXAMPLES[0][1],
               {}), ddm="monotonic", mu=2.0)
@example(case=(parse_query(_EXAMPLES[1][0], name="mixed"), _EXAMPLES[1][1],
               {}), ddm="monotonic", mu=2.0)
@example(case=(parse_query(_EXAMPLES[2][0], name="mixed"), _EXAMPLES[2][1],
               {}), ddm="random_walk", mu=5.0)
@example(case=(parse_query(_EXAMPLES[3][0], name="mixed"), _EXAMPLES[3][1],
               {}), ddm="monotonic", mu=5.0)
def test_signomial_rounds_and_plans_are_the_oracle(case, ddm, mu):
    query, values, rates = case
    for direction in ("query_up", "query_down"):
        pos, neg = mixed_dual_condition(query.terms, values, direction)
        want_pos, want_neg = oracle_condition(query.terms, values, direction)
        _same_rows(pos, want_pos)
        assert (neg is None) == (want_neg is None)
        if neg is not None:
            _same_rows(neg, want_neg)

    model = CostModel(ddm=ddm, rates=rates, recompute_cost=mu)
    planner, oracle = _Recording(model), OracleSignomialPlanner(model)
    got = planner.plan(query, values)
    want = oracle.plan(query, values)
    assert len(planner.rounds) == len(oracle.rounds) >= 1
    for (program, point), (reference, reference_point) in zip(
            planner.rounds, oracle.rounds):
        assert point == reference_point
        assert_same_program(program, reference.compile())
    assert planner.last_trace == oracle.last_trace
    assert got == want
    assert np.isfinite(got.objective)
