"""A refreshed template must solve the *refreshed* program.

Templates rewrite ``log_c`` in place between solves while the stacked
evaluator structure of their :class:`CompiledProgram` is built once.  If that
structure held a *copy* of the offsets, or if a per-iterate memo keyed on
``y`` alone survived a refresh, the second solve below would return the first
solve's numbers.  Each test solves at V1, refreshes to V2 and requires exactly
what a fresh template — compiled at V2 from scratch — returns from the same
warm start, and that the second solve built no new structure.
"""

import sys

import numpy as np
import pytest

from repro.filters.compiled_gp import CompiledDualDabTemplate
from repro.filters.cost_model import CostModel
from repro.filters.delta_recompute import newton_patch
from repro.gp.program import CompiledProgram
from repro.queries import parse_query

QUERY = parse_query("2 x*y + x^2 + 3 y*z : 5", name="refresh")
V1 = {"x": 10.0, "y": 20.0, "z": 5.0}
V2 = {"x": 11.3, "y": 18.4, "z": 5.6}


@pytest.fixture()
def cost_model():
    return CostModel(rates={"x": 1.0, "y": 2.0, "z": 0.5}, recompute_cost=5.0)


@pytest.fixture()
def constructions(monkeypatch):
    """Counts of what a solve may not do once the template exists:
    ``np.vstack`` calls made from ``repro`` code and ``CompiledProgram``
    constructions."""
    counts = {"vstack": 0, "programs": 0}
    vstack = np.vstack
    post_init = CompiledProgram.__post_init__

    def counting_vstack(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("repro."):
            counts["vstack"] += 1
        return vstack(*args, **kwargs)

    def counting_post_init(self):
        counts["programs"] += 1
        post_init(self)

    monkeypatch.setattr(np, "vstack", counting_vstack)
    monkeypatch.setattr(CompiledProgram, "__post_init__", counting_post_init)
    return counts


def _primary(query, solution):
    return {name: solution.values[f"b__{name}"] for name in query.variables}


def test_dual_dab_template_second_solve_sees_the_refresh(cost_model,
                                                         constructions):
    template = CompiledDualDabTemplate(QUERY, V1, cost_model)
    first = template.solve(V1)
    assert constructions == {"vstack": 1, "programs": 1}

    second = template.solve(V2, initial=first.values)
    assert constructions == {"vstack": 1, "programs": 1}

    fresh = CompiledDualDabTemplate(QUERY, V2, cost_model).solve(
        V2, initial=first.values)
    assert second.values == fresh.values
    assert second.objective == fresh.objective
    assert second.values != first.values


def test_widen_template_second_solve_sees_the_refresh(cost_model,
                                                      constructions):
    template = CompiledDualDabTemplate(QUERY, V1, cost_model)
    first_main = template.solve(V1)
    first_primary = _primary(QUERY, first_main)
    first = template.widen_template(V1, first_primary).solve(
        V1, first_primary, initial=first_main.values)
    built = dict(constructions)
    assert built == {"vstack": 2, "programs": 2}

    second_main = template.solve(V2, initial=first_main.values)
    second_primary = _primary(QUERY, second_main)
    second = template.widen_template(V2, second_primary).solve(
        V2, second_primary, initial=first.values)
    assert constructions == built

    fresh_template = CompiledDualDabTemplate(QUERY, V2, cost_model)
    fresh = fresh_template.widen_template(V2, second_primary).solve(
        V2, second_primary, initial=first.values)
    assert second.values == fresh.values
    assert second.values != first.values


def test_newton_patch_after_refresh_sees_the_refresh(cost_model,
                                                     constructions):
    template = CompiledDualDabTemplate(QUERY, V1, cost_model)
    anchor = template.solve(V1)
    built = dict(constructions)

    template.refresh(V2)
    patched = newton_patch(template.compiled, anchor.values)
    assert patched is not None
    assert constructions == built

    fresh = newton_patch(
        CompiledDualDabTemplate(QUERY, V2, cost_model).compiled, anchor.values)
    assert patched.values == fresh.values
    assert patched.objective == fresh.objective
    # The patch tracked the refresh: it is the V2 optimum, not the V1 one.
    full = template.solve(V2, initial=anchor.values)
    assert patched.objective == pytest.approx(full.objective, rel=1e-5)
    assert patched.objective != pytest.approx(anchor.objective, rel=1e-5)


def test_widen_template_built_late_is_priced_at_its_own_values(cost_model):
    """A widening template first built at other values than its dual
    template was is priced at those values, not the dual template's: it
    solves to what a template built there from scratch does."""
    late = CompiledDualDabTemplate(QUERY, V1, cost_model)
    main = late.solve(V2)
    primary = _primary(QUERY, main)
    got = late.widen_template(V2, primary).solve(
        V2, primary, initial=main.values)

    fresh = CompiledDualDabTemplate(QUERY, V2, cost_model)
    want = fresh.widen_template(V2, primary).solve(
        V2, primary, initial=main.values)
    assert got.values == want.values
    stale = fresh.widen_template(V2, primary).solve(
        V1, primary, initial=main.values)
    assert got.values != stale.values
