"""Monomials: the atoms of geometric programming (test oracle).

A *monomial* (in the GP sense) is ``c * t1^a1 * t2^a2 * ... * tn^an`` with a
strictly positive coefficient ``c`` and arbitrary real exponents ``ai`` over
strictly positive variables.  Monomials are closed under multiplication,
division and real powers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.exceptions import GPError

Number = Union[int, float]


class NotPosynomialError(GPError):
    """An expression required to be a posynomial has a non-positive
    coefficient or is otherwise outside the posynomial cone."""


#: Exponents smaller than this (in absolute value) are treated as zero so
#: that round-tripping through division does not accrete phantom variables.
_EXPONENT_EPS = 1e-12


def _normalise_exponents(exponents: Mapping[str, Number]) -> Tuple[Tuple[str, float], ...]:
    """Return a canonical, hashable representation of an exponent map.

    Variables with (numerically) zero exponents are dropped and the rest are
    sorted by variable name, so two monomials over the same variables compare
    equal regardless of construction order.
    """
    cleaned = {}
    for name, exp in exponents.items():
        if not isinstance(name, str) or not name:
            raise TypeError(f"variable names must be non-empty strings, got {name!r}")
        value = float(exp)
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"exponent for {name!r} must be finite, got {exp!r}")
        if abs(value) > _EXPONENT_EPS:
            cleaned[name] = value
    return tuple(sorted(cleaned.items()))


class Monomial:
    """``coefficient * prod(var ** exponent)`` with ``coefficient > 0``.

    Instances are immutable and hashable; like monomials (same exponent map)
    compare equal on exponents via :attr:`key`, which posynomial construction
    uses to combine terms.
    """

    __slots__ = ("_coefficient", "_exponents")

    def __init__(self, coefficient: Number = 1.0, exponents: Mapping[str, Number] = ()):
        value = float(coefficient)
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"coefficient must be finite, got {coefficient!r}")
        if value <= 0.0:
            raise NotPosynomialError(
                f"monomial coefficients must be strictly positive, got {coefficient!r}"
            )
        self._coefficient = value
        self._exponents = _normalise_exponents(dict(exponents))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def variable(cls, name: str) -> "Monomial":
        """The monomial ``1.0 * name**1``."""
        return cls(1.0, {name: 1.0})

    @classmethod
    def constant(cls, value: Number) -> "Monomial":
        """The constant monomial ``value`` (must be positive)."""
        return cls(value, {})

    # -- accessors -------------------------------------------------------------

    @property
    def coefficient(self) -> float:
        return self._coefficient

    @property
    def exponents(self) -> Dict[str, float]:
        """A fresh dict mapping variable name to exponent."""
        return dict(self._exponents)

    @property
    def key(self) -> Tuple[Tuple[str, float], ...]:
        """Canonical exponent signature used to combine like terms."""
        return self._exponents

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._exponents)

    @property
    def degree(self) -> float:
        """Sum of exponents (the polynomial-degree analogue)."""
        return sum(exp for _, exp in self._exponents)

    @property
    def is_constant(self) -> bool:
        return not self._exponents

    def exponent_of(self, name: str) -> float:
        """Exponent of ``name`` in this monomial (0.0 if absent)."""
        for var, exp in self._exponents:
            if var == name:
                return exp
        return 0.0

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Number]) -> float:
        """Evaluate at a point; every variable must be present and positive."""
        result = self._coefficient
        for name, exp in self._exponents:
            try:
                value = float(values[name])
            except KeyError:
                raise KeyError(f"no value supplied for variable {name!r}") from None
            if value <= 0.0:
                raise ValueError(
                    f"GP variables must be strictly positive; {name!r} = {value!r}"
                )
            result *= value ** exp
        return result

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: Union["Monomial", Number]) -> "Monomial":
        if isinstance(other, Monomial):
            merged: Dict[str, float] = dict(self._exponents)
            for name, exp in other._exponents:
                merged[name] = merged.get(name, 0.0) + exp
            return Monomial(self._coefficient * other._coefficient, merged)
        if isinstance(other, (int, float)):
            return Monomial(self._coefficient * float(other), dict(self._exponents))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Monomial", Number]) -> "Monomial":
        if isinstance(other, Monomial):
            return self * other ** -1
        if isinstance(other, (int, float)):
            if float(other) <= 0.0:
                raise NotPosynomialError("cannot divide a monomial by a non-positive scalar")
            return Monomial(self._coefficient / float(other), dict(self._exponents))
        return NotImplemented

    def __rtruediv__(self, other: Number) -> "Monomial":
        if isinstance(other, (int, float)):
            return Monomial.constant(float(other)) / self
        return NotImplemented

    def __pow__(self, power: Number) -> "Monomial":
        exponent = float(power)
        return Monomial(
            self._coefficient ** exponent,
            {name: exp * exponent for name, exp in self._exponents},
        )

    def __add__(self, other):
        # Addition leaves the monomial cone; delegate to Posynomial.
        from tests.oracle.posynomial import Posynomial

        return Posynomial([self]) + other

    __radd__ = __add__

    # -- comparisons / protocol -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return (
            self._exponents == other._exponents
            and math.isclose(self._coefficient, other._coefficient, rel_tol=1e-12, abs_tol=0.0)
        )

    def __hash__(self) -> int:
        return hash((round(self._coefficient, 12), self._exponents))

    def __repr__(self) -> str:
        if not self._exponents:
            return f"Monomial({self._coefficient:g})"
        parts = []
        for name, exp in self._exponents:
            parts.append(name if exp == 1.0 else f"{name}^{exp:g}")
        return f"Monomial({self._coefficient:g} * " + " * ".join(parts) + ")"


def variables(names: Iterable[str]) -> Tuple[Monomial, ...]:
    """Convenience: build variable monomials for each name."""
    return tuple(Monomial.variable(name) for name in names)
