"""Posynomials: sums of monomials with positive coefficients (test oracle).

Posynomials are closed under addition, multiplication and positive integer
powers; dividing by a *monomial* is allowed (and used to normalise
constraints to the GP standard form ``f(t) <= 1``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from tests.oracle.monomial import Monomial, NotPosynomialError, Number

PosyLike = Union["Posynomial", Monomial, int, float]


def substitute(posynomial: "Posynomial", values: Mapping[str, float]) -> "Posynomial":
    """Partially evaluate: replace each variable in ``values`` (all positive)
    by its value, folding it into the coefficients."""
    monomials: List[Monomial] = []
    for term in posynomial.terms:
        coefficient = term.coefficient
        exponents: Dict[str, float] = {}
        for name, exp in term.exponents.items():
            if name in values:
                value = float(values[name])
                if value <= 0.0:
                    raise NotPosynomialError(
                        f"substituted values must be positive; {name!r} = {value!r}"
                    )
                coefficient *= value ** exp
            else:
                exponents[name] = exp
        monomials.append(Monomial(coefficient, exponents))
    return Posynomial(monomials)


def as_posynomial(value: PosyLike) -> "Posynomial":
    """Coerce a monomial or positive scalar into a posynomial."""
    if isinstance(value, Posynomial):
        return value
    if isinstance(value, Monomial):
        return Posynomial([value])
    if isinstance(value, (int, float)):
        return Posynomial([Monomial.constant(float(value))])
    raise TypeError(f"cannot interpret {value!r} as a posynomial")


class Posynomial:
    """An immutable sum of :class:`Monomial` terms.

    Like terms (identical exponent signatures) are combined at construction,
    and terms are kept in a canonical sorted order so that structurally equal
    posynomials compare equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Monomial]):
        combined: Dict[Tuple[Tuple[str, float], ...], float] = {}
        for term in terms:
            if not isinstance(term, Monomial):
                raise TypeError(f"posynomial terms must be Monomials, got {term!r}")
            combined[term.key] = combined.get(term.key, 0.0) + term.coefficient
        if not combined:
            raise NotPosynomialError("a posynomial needs at least one term")
        self._terms = tuple(
            Monomial(coeff, dict(key)) for key, coeff in sorted(combined.items())
        )

    # -- accessors -------------------------------------------------------------

    @property
    def terms(self) -> Tuple[Monomial, ...]:
        return self._terms

    @property
    def variables(self) -> Tuple[str, ...]:
        names = set()
        for term in self._terms:
            names.update(term.variables)
        return tuple(sorted(names))

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    @property
    def is_constant(self) -> bool:
        return len(self._terms) == 1 and self._terms[0].is_constant

    @property
    def constant_part(self) -> float:
        """Sum of coefficients of variable-free terms (0.0 if none)."""
        return sum(t.coefficient for t in self._terms if t.is_constant)

    @property
    def degree(self) -> float:
        return max(term.degree for term in self._terms)

    def as_monomial(self) -> Monomial:
        if not self.is_monomial:
            raise NotPosynomialError(f"{self!r} is not a monomial")
        return self._terms[0]

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Number]) -> float:
        return sum(term.evaluate(values) for term in self._terms)

    def exponent_matrix(self, order: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(A, log_c)`` for the log-space form.

        ``A`` is a ``(len(terms), len(order))`` array of exponents and
        ``log_c`` the log coefficients, so that in ``y = log t`` space the
        posynomial value is ``sum(exp(A @ y + log_c))``.
        """
        index = {name: j for j, name in enumerate(order)}
        A = np.zeros((len(self._terms), len(order)))
        log_c = np.empty(len(self._terms))
        for i, term in enumerate(self._terms):
            log_c[i] = math.log(term.coefficient)
            for name, exp in term.key:
                try:
                    A[i, index[name]] = exp
                except KeyError:
                    raise KeyError(
                        f"variable {name!r} of posynomial not present in ordering {order!r}"
                    ) from None
        return A, log_c

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: PosyLike) -> "Posynomial":
        try:
            other_posy = as_posynomial(other)
        except (TypeError, NotPosynomialError):
            return NotImplemented
        return Posynomial(self._terms + other_posy._terms)

    __radd__ = __add__

    def __mul__(self, other: PosyLike) -> "Posynomial":
        try:
            other_posy = as_posynomial(other)
        except (TypeError, NotPosynomialError):
            return NotImplemented
        products: List[Monomial] = []
        for a in self._terms:
            for b in other_posy._terms:
                products.append(a * b)
        return Posynomial(products)

    __rmul__ = __mul__

    def __truediv__(self, other: Union[Monomial, Number]) -> "Posynomial":
        if isinstance(other, Posynomial):
            if other.is_monomial:
                other = other.as_monomial()
            else:
                raise NotPosynomialError(
                    "a posynomial can only be divided by a monomial or a scalar"
                )
        if isinstance(other, Monomial):
            return Posynomial([t / other for t in self._terms])
        if isinstance(other, (int, float)):
            return Posynomial([t / float(other) for t in self._terms])
        return NotImplemented

    def __pow__(self, power: int) -> "Posynomial":
        if not isinstance(power, int) or power < 1:
            if self.is_monomial:
                return Posynomial([self.as_monomial() ** power])
            raise NotPosynomialError(
                "posynomials only support positive integer powers "
                f"(got {power!r}); monomials support any real power"
            )
        result = self
        for _ in range(power - 1):
            result = result * self
        return result

    # -- comparisons / protocol -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, Monomial)):
            try:
                other = as_posynomial(other)
            except NotPosynomialError:
                return NotImplemented
        if not isinstance(other, Posynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __repr__(self) -> str:
        return "Posynomial(" + " + ".join(repr(t)[len("Monomial("):-1] for t in self._terms) + ")"
