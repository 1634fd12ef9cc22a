"""Worst-case query deviation: the DAB variables and the numeric checks.

The paper's QAB conditions are posynomials in the DAB variables:

For one positive term ``w * prod_i x_i^{p_i}`` at current values ``V_i``,
the worst-case increase when each item may move by ``d_i`` is obtained with
every item moving *up* simultaneously (all quantities positive)::

    w * ( prod_i (V_i + d_i)^{p_i}  -  prod_i V_i^{p_i} )

Expanding each factor with the binomial theorem and multiplying out, every
surviving term (the pure-``V`` constant cancels) contains at least one
``d_i`` and has a positive coefficient — a *posynomial* in the ``d_i``.

* **Single-DAB condition (paper Eq. 1, generalised):** substitute
  ``d_i = b_i`` and require the sum over query terms ``<= B``.
* **Dual-DAB condition (paper Eq. 2, generalised):** the primary DABs must
  stay valid anywhere inside the secondary window, whose worst point is
  ``V_i + c_i``; substitute base value ``V_i + c_i`` and ``d_i = b_i``:

      sum_t w_t * ( prod (V_i + c_i + b_i)^{p_i} - prod (V_i + c_i)^{p_i} ) <= B

  which is again a posynomial in ``(b, c)`` jointly.

The paper derives these for degree-2 products (``x*y``); here the expansion
handles arbitrary positive integer exponents via the multinomial theorem.
:class:`repro.queries.compiled.CompiledDeviation` compiles the expansion
into signature rows and a coefficient program; this module names the
variables and evaluates the worst-case deviation numerically, which is
how every plan's validity is checked.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.exceptions import InvalidQueryError
from repro.queries.terms import QueryTerm

#: Prefixes for the GP variables derived from item names.  Double
#: underscores keep them out of the item-name namespace.
_PRIMARY_PREFIX = "b__"
_SECONDARY_PREFIX = "c__"


def primary_variable(item: str) -> str:
    """GP variable name of the primary DAB of ``item``."""
    return _PRIMARY_PREFIX + item


def secondary_variable(item: str) -> str:
    """GP variable name of the secondary DAB of ``item``."""
    return _SECONDARY_PREFIX + item


def item_of_variable(variable: str) -> str:
    """Inverse of the two functions above."""
    for prefix in (_PRIMARY_PREFIX, _SECONDARY_PREFIX):
        if variable.startswith(prefix):
            return variable[len(prefix):]
    raise ValueError(f"{variable!r} is not a DAB variable")


def _require_positive_value(name: str, values: Mapping[str, float]) -> float:
    try:
        value = float(values[name])
    except KeyError:
        raise KeyError(f"no current value supplied for data item {name!r}") from None
    if not (value > 0.0) or math.isinf(value):
        raise InvalidQueryError(
            f"the GP formulation needs strictly positive item values; {name!r} = {value!r}. "
            "(Prices/rates/coordinates in the paper's workloads are positive; shift or "
            "re-origin the data if needed.)"
        )
    return value


# ---------------------------------------------------------------------------
# Numeric worst-case deviations (used by validity predicates and tests)
# ---------------------------------------------------------------------------

def max_term_deviation(term: QueryTerm, values: Mapping[str, float],
                       bounds: Mapping[str, float]) -> float:
    """``|w| * (prod (V_i + d_i)^{p_i} - prod V_i^{p_i})`` — the exact
    worst-case change of one term when each item may move by ``d_i >= 0``.

    Items absent from ``bounds`` are treated as exact (``d_i = 0``).
    """
    base = 1.0
    shifted = 1.0
    for name, power in term.key:
        value = _require_positive_value(name, values)
        bound = float(bounds.get(name, 0.0))
        if bound < 0.0:
            raise InvalidQueryError(f"deviation bounds must be >= 0; {name!r} = {bound!r}")
        base *= value ** power
        shifted *= (value + bound) ** power
    return abs(term.weight) * (shifted - base)


def max_query_deviation(terms: Iterable[QueryTerm], values: Mapping[str, float],
                        bounds: Mapping[str, float]) -> float:
    """Worst-case absolute query deviation under per-item bounds.

    Exact for PPQs (all items move up together); for mixed-sign queries it
    is the triangle-inequality bound, which is attained when the positive
    and negative halves share no data items (the paper's "independent"
    case) and conservative otherwise.
    """
    return sum(max_term_deviation(term, values, bounds) for term in terms)


def assignment_feasible_for_query(
    terms: Iterable[QueryTerm],
    values: Mapping[str, float],
    bounds: Mapping[str, float],
    qab: float,
    tol: float = 1e-9,
) -> bool:
    """Condition 1 of the problem statement: do these DABs guarantee the
    QAB at the current values?"""
    return max_query_deviation(terms, values, bounds) <= qab * (1.0 + tol)
