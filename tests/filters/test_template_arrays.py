"""The array-built compiled templates against their oracle.

``filters/compiled_gp.py`` assembles each template's
:class:`~repro.gp.program.CompiledProgram` straight from exponent arrays
and signatures; the oracle's object builders (``build_dual_dab_program``,
``build_widen_program``, ``build_optimal_refresh_program`` in
``tests/oracle/builders.py``) stay as the definition.  DESIGN §8.2's contract — the template hands the solver
*bitwise* what ``build_*_program(...).compile()`` would — is checked here,
over Hypothesis-generated PPQs: powers 1–3, items repeated across terms,
purely linear queries, both ddms, both recompute envelopes,
``constrain_window`` on and off, and a refresh at values and rates other
than the ones the template was built at.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError
from repro.filters.compiled_gp import (
    CompiledDualDabTemplate,
    CompiledOptimalRefreshTemplate,
)
from repro.filters.cost_model import CostModel
from repro.queries import parse_query
from tests.oracle.builders import (
    build_dual_dab_program,
    build_optimal_refresh_program,
    build_widen_program,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

ITEMS = ("w", "x", "y", "z", "Zed")      # "Zed" sorts before the lower-case names

factor = st.tuples(st.sampled_from(ITEMS), st.integers(1, 3))
term = st.tuples(
    st.floats(0.25, 4.0).map(lambda w: round(w, 3)),
    st.lists(factor, min_size=1, max_size=3, unique_by=lambda f: f[0]))
positive = st.floats(0.5, 50.0)


@st.composite
def worlds(draw, linear=False):
    """``(query, build values, refresh values, rates)``."""
    terms = draw(st.lists(term, min_size=1, max_size=4))
    if linear:
        terms = [(weight, [(factors[0][0], 1)]) for weight, factors in terms]
    text = " + ".join(
        f"{weight}*" + "*".join(f"{name}^{power}" for name, power in factors)
        for weight, factors in terms)
    query = parse_query(text, qab=draw(st.floats(0.1, 20.0)), name="generated")
    one = {name: draw(positive) for name in query.variables}
    two = {name: draw(positive) for name in query.variables}
    rates = {name: draw(st.floats(0.05, 5.0)) for name in query.variables}
    return query, one, two, rates


def assert_same_program(compiled, reference):
    """Bitwise: names, shapes, every exponent and every log-coefficient."""
    assert compiled.variables == reference.variables
    assert compiled.constraint_names == reference.constraint_names
    assert np.array_equal(compiled.starts, reference.starts)
    assert compiled.A.shape == reference.A.shape
    assert np.array_equal(compiled.A, reference.A)
    assert compiled.log_c.tobytes() == reference.log_c.tobytes()
    assert np.array_equal(compiled.multi_row, reference.multi_row)


@given(world=st.one_of(worlds(), worlds(linear=True)),
       ddm=st.sampled_from(["monotonic", "random_walk"]),
       envelope=st.sampled_from(["sum", "max"]),
       constrain_window=st.booleans(),
       mu=st.floats(0.0, 50.0))
def test_dual_dab_template_is_the_compiled_object_program(
        world, ddm, envelope, constrain_window, mu):
    query, one, two, rates = world
    model = CostModel(ddm=ddm, rates=dict(rates), recompute_cost=mu)
    template = CompiledDualDabTemplate(
        query, one, model, constrain_window=constrain_window,
        recompute_envelope=envelope)

    def reference(values):
        return build_dual_dab_program(
            query, values, model, constrain_window=constrain_window,
            recompute_envelope=envelope).compile()

    # As built (no refresh call), refreshed elsewhere, and with live rates
    # moved under it the way OnlineRateTracker moves them.
    assert_same_program(template.compiled, reference(one))
    template.refresh(two)
    assert_same_program(template.compiled, reference(two))
    for name in model.rates:
        model.rates[name] *= 1.25
    template.refresh(one)
    assert_same_program(template.compiled, reference(one))


@given(world=worlds(), ddm=st.sampled_from(["monotonic", "random_walk"]),
       constrain_window=st.booleans(),
       shrink=st.floats(1e-4, 1e-2))
def test_widen_template_is_the_compiled_object_program(
        world, ddm, constrain_window, shrink):
    query, one, two, rates = world
    model = CostModel(ddm=ddm, rates=rates, recompute_cost=5.0)
    main = CompiledDualDabTemplate(query, one, model,
                                   constrain_window=constrain_window)
    # Small primaries keep the substituted constant under 1 (feasible).
    primary = {name: shrink * min(one[name], two[name]) * min(
        1.0, query.qab / query.evaluate(one), query.qab / query.evaluate(two))
        for name in query.variables}
    try:
        references = [
            build_widen_program(query, values, primary, model,
                                constrain_window=constrain_window).compile()
            for values in (one, two)]
    except InfeasibleProblemError:
        with pytest.raises(InfeasibleProblemError):
            widen = main.widen_template(one, primary)
            widen.refresh(two, primary)
        return
    widen = main.widen_template(one, primary)
    assert_same_program(widen.compiled, references[0])
    widen.refresh(two, primary)
    assert_same_program(widen.compiled, references[1])


@given(world=worlds(linear=True), constrain_window=st.booleans(),
       share=st.floats(0.05, 3.0))
@example(world=(parse_query("2*x + 3*y : 6", name="generated"),
                {"x": 4.0, "y": 5.0}, {"x": 4.5, "y": 4.0},
                {"x": 1.0, "y": 2.0}),
         constrain_window=True, share=0.5)        # constant dropped
@example(world=(parse_query("2*x + 3*y : 6", name="generated"),
                {"x": 4.0, "y": 5.0}, {"x": 4.5, "y": 4.0},
                {"x": 1.0, "y": 2.0}),
         constrain_window=True, share=1.5)        # constant violated
def test_widen_template_constant_qab_is_dropped_or_infeasible(
        world, constrain_window, share):
    """A purely linear query's substituted QAB row has no secondary DAB
    left in it: ``compile()`` drops it when it holds and reports the
    program infeasible when it does not — at construction and at every
    refresh, exactly where the object path would have."""
    query, one, two, rates = world
    model = CostModel(rates=rates, recompute_cost=5.0)
    main = CompiledDualDabTemplate(query, one, model,
                                   constrain_window=constrain_window)
    # Σ a_i b_i / B == share: the dropped constant.
    weights = {term.variables[0]: 0.0 for term in query.terms}
    for term_ in query.terms:
        weights[term_.variables[0]] += abs(term_.weight)
    primary = {name: share * query.qab / (len(weights) * weights[name])
               for name in weights}

    def reference(values):
        return build_widen_program(query, values, primary, model,
                                   constrain_window=constrain_window).compile()

    if share > 1.0 + 1e-9:
        with pytest.raises(InfeasibleProblemError, match="constant and violated"):
            reference(one)
        with pytest.raises(InfeasibleProblemError, match="constant and violated"):
            main.widen_template(one, primary)
        return
    if abs(share - 1.0) <= 1e-9:
        return                       # on the 1e-12 knife edge: either is right
    widen = main.widen_template(one, primary)
    assert widen.substituted.is_constant
    assert "qab" not in widen.compiled.constraint_names
    assert_same_program(widen.compiled, reference(one))
    widen.refresh(two, primary)
    assert_same_program(widen.compiled, reference(two))
    grown = {name: 3.0 * bound / share for name, bound in primary.items()}
    with pytest.raises(InfeasibleProblemError, match="constant and violated"):
        widen.refresh(two, grown)


@given(world=st.one_of(worlds(), worlds(linear=True)),
       ddm=st.sampled_from(["monotonic", "random_walk"]))
def test_optimal_refresh_template_is_the_compiled_object_program(world, ddm):
    query, one, two, rates = world
    model = CostModel(ddm=ddm, rates=rates)
    template = CompiledOptimalRefreshTemplate(query, one, model)
    assert_same_program(
        template.compiled,
        build_optimal_refresh_program(query, one, model).compile())
    template.refresh(two)
    assert_same_program(
        template.compiled,
        build_optimal_refresh_program(query, two, model).compile())
