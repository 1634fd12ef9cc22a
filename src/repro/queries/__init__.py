"""Polynomial-query algebra.

This subpackage models the paper's query class (Section I-A):

* :class:`~repro.queries.items.DataItem` / ``ItemRegistry`` — the dynamic
  data items served by sources,
* :class:`~repro.queries.terms.QueryTerm` — one weighted monomial term
  ``w * x1^p1 * ... * xk^pk``,
* :class:`~repro.queries.polynomial.PolynomialQuery` — a polynomial with a
  query accuracy bound (QAB), including the ``P = P1 - P2`` split used by the
  general-PQ heuristics,
* :func:`~repro.queries.parser.parse_query` — a small text format
  (``"3 x*y - 2 u*v : 5"``),
* :mod:`~repro.queries.deviation` — the worst-case-deviation expansion that
  turns QAB conditions into GP posynomial constraints (Equations 1 and 2 of
  the paper, generalised to arbitrary positive integer exponents).
"""

from repro.queries.items import DataItem, ItemRegistry
from repro.queries.terms import QueryTerm
from repro.queries.polynomial import PolynomialQuery
from repro.queries.parser import parse_query
from repro.queries.deviation import (
    deviation_posynomial,
    dual_dab_condition,
    max_query_deviation,
    max_term_deviation,
    primary_variable,
    secondary_variable,
)

__all__ = [
    "DataItem",
    "ItemRegistry",
    "QueryTerm",
    "PolynomialQuery",
    "parse_query",
    "deviation_posynomial",
    "dual_dab_condition",
    "max_query_deviation",
    "max_term_deviation",
    "primary_variable",
    "secondary_variable",
]
