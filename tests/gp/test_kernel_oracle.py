"""The fused log-sum-exp kernel against scipy, function by function.

``CompiledProgram.evaluate`` is the only log-sum-exp in ``src/``; scipy's
``logsumexp``/``softmax`` live on here as its oracle.  Programs are
Hypothesis-generated — 1-row monomial functions, multi-row posynomials and
mixtures — with ``y`` on the solver's box faces and offsets large enough
that ``|A y + log c|`` approaches 700, where an un-shifted ``exp`` overflows.
The kernel runs under ``warnings.simplefilter("error")`` so such an overflow
fails the test rather than printing a RuntimeWarning.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from repro.gp.program import CompiledFunction, CompiledProgram
from repro.gp.solver import _Y_BOUND

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

RTOL = 1e-12
MAX_VARIABLES = 6
MAX_EXPONENT = 3.0
#: With ``|y| <= 30``: ``|A y + log c| <= 6 * 3 * 30 + 150 = 690``.
MAX_OFFSET = 150.0

_exponents = st.sampled_from(
    [-MAX_EXPONENT, -2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0, MAX_EXPONENT])
_coordinates = st.one_of(st.just(-_Y_BOUND), st.just(_Y_BOUND),
                         st.floats(-_Y_BOUND, _Y_BOUND))
_row_counts = {
    "monomial": st.just(1),
    "posynomial": st.integers(2, 6),
    "mixed": st.integers(1, 6),
}


@st.composite
def programs(draw):
    """``(compiled program, reference (A, log_c) copies per function, y)``."""
    n = draw(st.integers(1, MAX_VARIABLES))
    kind = draw(st.sampled_from(sorted(_row_counts)))
    sizes = draw(st.lists(_row_counts[kind], min_size=1, max_size=6))
    functions = []
    for rows in sizes:
        A = np.array(draw(st.lists(
            st.lists(_exponents, min_size=n, max_size=n),
            min_size=rows, max_size=rows)))
        log_c = np.array(draw(st.lists(
            st.floats(-MAX_OFFSET, MAX_OFFSET), min_size=rows, max_size=rows)))
        functions.append((A, log_c))
    y = np.array(draw(st.lists(_coordinates, min_size=n, max_size=n)))
    return _compile(functions), functions, y


def _compile(functions):
    n = functions[0][0].shape[1]
    compiled = [CompiledFunction(A.copy(), log_c.copy())
                for A, log_c in functions]
    return CompiledProgram(
        variables=tuple(f"t{j}" for j in range(n)),
        objective=compiled[0],
        constraints=compiled[1:],
        constraint_names=[f"g{i}" for i in range(len(compiled) - 1)],
    )


def _evaluate_strictly(program, y):
    """The kernel's values, Jacobian and per-function Hessians with every
    numpy warning promoted to an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluation = program.evaluate(y)
        jacobian = evaluation.jacobian()
        count = len(program.constraints) + 1
        hessians = [evaluation.hessian(np.eye(count)[f]) for f in range(count)]
    return evaluation, jacobian, hessians


def _assert_matches_scipy(program, functions, y):
    evaluation, jacobian, hessians = _evaluate_strictly(program, y)
    for f, (A, log_c) in enumerate(functions):
        z = A @ y + log_c
        scale = 1.0 + float(np.max(np.abs(z)))
        weights = softmax(z)
        np.testing.assert_allclose(
            evaluation.values[f], logsumexp(z), rtol=RTOL, atol=RTOL * scale)
        np.testing.assert_allclose(
            jacobian[f], weights @ A, rtol=RTOL, atol=RTOL * MAX_EXPONENT)
        reference = A.T @ (np.diag(weights) - np.outer(weights, weights)) @ A
        np.testing.assert_allclose(
            hessians[f], reference, rtol=RTOL, atol=RTOL * MAX_EXPONENT ** 2)
    return evaluation, hessians


@given(programs())
def test_values_gradients_and_hessians_match_scipy(case):
    program, functions, y = case
    _assert_matches_scipy(program, functions, y)


@given(programs(), st.integers(0, 2 ** 31 - 1))
def test_weighted_hessian_is_the_multiplier_sum(case, seed):
    program, functions, y = case
    evaluation, hessians = _assert_matches_scipy(program, functions, y)
    multipliers = np.random.default_rng(seed).uniform(0.0, 5.0, len(functions))
    expected = sum(m * h for m, h in zip(multipliers, hessians))
    np.testing.assert_allclose(
        evaluation.hessian(multipliers), expected,
        rtol=1e-9, atol=1e-9 * MAX_EXPONENT ** 2)


def test_monomial_rows_are_exactly_linear():
    """A 1-row function is ``a·y + log c`` to the last bit with gradient
    ``a`` — the solver relies on monomial constraints staying linear."""
    A = np.array([[1.0, -2.0, 0.5]])
    log_c = np.array([0.37])
    program = _compile([(A, log_c), (A * 2.0, log_c - 1.0)])
    y = np.array([0.3, -1.7, 12.5])
    evaluation, jacobian, hessians = _evaluate_strictly(program, y)
    assert evaluation.values[0] == (A @ y + log_c)[0]
    assert np.array_equal(jacobian[0], A[0])
    assert np.array_equal(jacobian[1], 2.0 * A[0])
    assert not hessians[0].any() and not hessians[1].any()
    assert list(program.multi_row) == [False, False]


def test_offsets_of_seven_hundred_do_not_overflow():
    """``exp(700)`` is finite but ``exp(700) + exp(700)`` is not: only a
    max-shifted evaluation survives rows at both ends of the range."""
    wide = (np.zeros((4, 2)), np.array([700.0, 700.0, -700.0, 0.0]))
    low = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([-700.0, -700.0]))
    program = _compile([wide, low])
    y = np.array([_Y_BOUND, -_Y_BOUND])
    evaluation, _ = _assert_matches_scipy(program, [wide, low], y)
    assert evaluation.values[0] == pytest.approx(700.0 + np.log(2.0), rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_non_finite_iterate_returns_nan_and_never_raises(bad):
    """SLSQP probes outside the box; the kernel answers ``nan`` (which the
    solver's feasibility check rejects) instead of raising or warning."""
    functions = [(np.array([[2.0, -1.0], [0.0, 2.0]]), np.array([0.1, 0.2])),
                 (np.array([[1.0, 1.0]]), np.array([0.0]))]
    program = _compile(functions)
    evaluation, jacobian, hessians = _evaluate_strictly(
        program, np.array([bad, 1.0]))
    assert np.isnan(evaluation.values).all()
    assert np.isnan(jacobian).all()
    assert all(np.isnan(h).all() for h in hessians)
    # The program is intact afterwards.
    _assert_matches_scipy(program, functions, np.array([0.5, -0.5]))


def test_functions_are_views_of_the_stacked_arrays():
    """Templates rewrite ``log_c`` in place between solves: the write must
    land in the storage the kernel reads, and the fields cannot be rebound
    to arrays the kernel would not see."""
    functions = [(np.array([[1.0], [2.0]]), np.array([0.0, 0.0])),
                 (np.array([[1.0], [-1.0], [3.0]]), np.array([0.1, 0.2, 0.3]))]
    program = _compile(functions)
    y = np.array([0.4])
    before = program.evaluate(y).values.copy()
    program.objective.log_c[0] = 2.0
    program.constraints[0].log_c[:] = [1.0, -1.0, 0.5]
    refreshed = [(functions[0][0], np.array([2.0, 0.0])),
                 (functions[1][0], np.array([1.0, -1.0, 0.5]))]
    evaluation, _ = _assert_matches_scipy(program, refreshed, y)
    assert not np.array_equal(evaluation.values, before)
    assert np.shares_memory(program.objective.log_c, program.log_c)
    with pytest.raises(AttributeError):
        program.objective.log_c = np.zeros(2)
