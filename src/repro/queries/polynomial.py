"""Polynomial queries with accuracy bounds.

A :class:`PolynomialQuery` is the paper's ``P : B`` — a polynomial over data
items together with a query accuracy bound (QAB).  The class also provides
the structural operations the filter algorithms need:

* PPQ test (all coefficients positive),
* the ``P = P1 - P2`` split behind the Half-and-Half and Different-Sum
  heuristics (Section III-B.1),
* the *positive mirror* ``P1 + P2`` used by Different Sum,
* the independence test between ``P1`` and ``P2`` (shared data items).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import InvalidQueryError
from repro.queries.terms import Number, QueryTerm

_name_counter = itertools.count()


def _combine_like_terms(terms: Iterable[QueryTerm]) -> Tuple[QueryTerm, ...]:
    combined: Dict[Tuple[Tuple[str, int], ...], float] = {}
    for term in terms:
        if not isinstance(term, QueryTerm):
            raise TypeError(f"query terms must be QueryTerm instances, got {term!r}")
        combined[term.key] = combined.get(term.key, 0.0) + term.weight
    kept = [
        QueryTerm(weight, dict(key))
        for key, weight in sorted(combined.items())
        if weight != 0.0
    ]
    if not kept:
        raise InvalidQueryError("all terms cancelled; the query is identically zero")
    return tuple(kept)


class PolynomialQuery:
    """``sum_i w_i * prod_j x_j^{p_ij}  :  B`` — a continuous query.

    Parameters
    ----------
    terms:
        The weighted monomial terms.  Like terms are combined; exact
        cancellations are rejected.
    qab:
        The query accuracy bound ``B > 0`` (maximum tolerable imprecision in
        the query value).
    name:
        Optional identifier; auto-generated when omitted.
    """

    __slots__ = ("_terms", "_qab", "_name", "_variables")

    def __init__(self, terms: Iterable[QueryTerm], qab: Number, name: Optional[str] = None):
        bound = float(qab)
        if not (bound > 0.0) or math.isinf(bound):
            raise InvalidQueryError(f"the QAB must be a positive finite number, got {qab!r}")
        self._terms = _combine_like_terms(terms)
        names = set()
        for term in self._terms:
            names.update(term.variables)
        self._variables = tuple(sorted(names))
        self._qab = bound
        self._name = name if name is not None else f"q{next(_name_counter)}"

    # -- constructors ------------------------------------------------------------

    @classmethod
    def single_term(cls, weight: Number, exponents: Mapping[str, int], qab: Number,
                    name: Optional[str] = None) -> "PolynomialQuery":
        """A one-term query ``weight * prod x^p : qab``."""
        return cls([QueryTerm(weight, exponents)], qab, name)

    @classmethod
    def product(cls, qab: Number, *names: str, weight: Number = 1.0,
                name: Optional[str] = None) -> "PolynomialQuery":
        """The running example of the paper: ``x*y : B``."""
        return cls([QueryTerm.product(weight, *names)], qab, name)

    # -- accessors ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def terms(self) -> Tuple[QueryTerm, ...]:
        return self._terms

    @property
    def qab(self) -> float:
        return self._qab

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._variables

    @property
    def degree(self) -> int:
        return max(term.degree for term in self._terms)

    @property
    def is_positive_coefficient(self) -> bool:
        """True when this is a PPQ (all weights positive)."""
        return all(term.is_positive for term in self._terms)

    @property
    def is_linear(self) -> bool:
        """True for linear aggregate queries (degree 1)."""
        return self.degree == 1

    @property
    def is_nonlinear(self) -> bool:
        return self.degree > 1

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Number]) -> float:
        """The query value at the given item values."""
        return sum(term.evaluate(values) for term in self._terms)

    def within_bound(self, reference: float, observed: float) -> bool:
        """``|observed - reference| <= B`` — the QAB predicate."""
        return abs(observed - reference) <= self._qab

    # -- structure for the heuristics ---------------------------------------------

    def split(self) -> Tuple[Tuple[QueryTerm, ...], Tuple[QueryTerm, ...]]:
        """The paper's key observation: ``P = P1 - P2``.

        Returns ``(P1, P2)`` where both are tuples of positive-weight terms:
        ``P1`` collects the positive-coefficient terms of ``P`` and ``P2``
        the negated negative-coefficient terms.  Either may be empty.
        """
        p1 = tuple(t for t in self._terms if t.is_positive)
        p2 = tuple(-t for t in self._terms if not t.is_positive)
        return p1, p2

    def positive_mirror(self, qab: Optional[Number] = None,
                        name: Optional[str] = None) -> "PolynomialQuery":
        """``P1 + P2 : B`` — the PPQ that Different Sum solves instead of
        ``P1 - P2 : B`` (Section III-B.2, Heuristic 2)."""
        p1, p2 = self.split()
        return PolynomialQuery(
            list(p1) + list(p2),
            self._qab if qab is None else qab,
            name or f"{self._name}__mirror",
        )

    def halves_are_independent(self) -> bool:
        """True when ``P1`` and ``P2`` share no data item — the condition
        under which Different Sum is provably near-optimal (Claim 2)."""
        p1, p2 = self.split()
        vars1 = set().union(*(t.variables for t in p1)) if p1 else set()
        vars2 = set().union(*(t.variables for t in p2)) if p2 else set()
        return not (vars1 & vars2)

    def with_qab(self, qab: Number, name: Optional[str] = None) -> "PolynomialQuery":
        """The same polynomial under a different accuracy bound."""
        return PolynomialQuery(self._terms, qab, name or self._name)

    # -- protocol ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolynomialQuery):
            return NotImplemented
        return self._terms == other._terms and math.isclose(
            self._qab, other._qab, rel_tol=1e-12, abs_tol=0.0
        )

    def __hash__(self) -> int:
        return hash((self._terms, round(self._qab, 12)))

    def __repr__(self) -> str:
        body = " + ".join(
            f"{t.weight:g}*" + "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in t.key
            )
            for t in self._terms
        ).replace("+ -", "- ")
        return f"PolynomialQuery({self._name}: {body} : {self._qab:g})"
