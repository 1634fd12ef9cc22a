"""Signed expansion of the mixed-sign dual-DAB condition (paper Eq. 4).

For a general query ``Q = P1 - P2`` with dual windows, the exact
necessary-and-sufficient condition bounds the worst joint movement: the
positive half's items at the *top* of their windows moving up, the
negative half's at the *bottom* moving down::

    sum_{w>0} w [ prod(V+c+b)^p - prod(V+c)^p ]
  + sum_{w<0} |w| [ prod(V-c)^p - prod(V-c-b)^p ]   <=   B

The first sum is the familiar posynomial; the second expands into terms of
*both* signs (the ``- b_u b_v`` of the paper's Eq. 4).  This module
expands the whole left side into a signed pair ``(pos, neg)`` of
posynomials with ``LHS = pos - neg``, each given by its rows — one
``(signature, coefficient)`` pair per term, sorted by signature, every
coefficient positive — which the signomial planner turns into the
GP-approximable form ``pos <= B + neg``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import InvalidQueryError
from repro.queries.compiled import CompiledDeviation, Signature
from repro.queries.deviation import (
    _require_positive_value,
    primary_variable,
    secondary_variable,
)
from repro.queries.terms import QueryTerm

#: signed polynomial representation: exponent-key -> coefficient (any sign)
_SignedPoly = Dict[Signature, float]

#: A posynomial as its rows: ``(signature, coefficient > 0)`` per term,
#: sorted by signature.
Rows = List[Tuple[Signature, float]]

_COEFF_EPS = 1e-15


def _signed_factor_down(value: float, power: int, b_var: str,
                        c_var: str) -> _SignedPoly:
    """Expansion of ``(V - c - b)^p`` as a signed polynomial in (c, b)."""
    out: _SignedPoly = {}
    for j in range(power + 1):
        for k in range(power - j + 1):
            coefficient = (
                math.comb(power, j) * math.comb(power - j, k)
                * value ** (power - j - k) * (-1.0) ** (j + k)
            )
            exponents = []
            if j:
                exponents.append((c_var, float(j)))
            if k:
                exponents.append((b_var, float(k)))
            key = tuple(sorted(exponents))
            out[key] = out.get(key, 0.0) + coefficient
    return out


def _signed_mul(a: _SignedPoly, b: _SignedPoly) -> _SignedPoly:
    out: _SignedPoly = {}
    for key_a, coeff_a in a.items():
        for key_b, coeff_b in b.items():
            merged: Dict[str, float] = dict(key_a)
            for name, exp in key_b:
                merged[name] = merged.get(name, 0.0) + exp
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0.0) + coeff_a * coeff_b
    return out


def _signed_scale(a: _SignedPoly, factor: float) -> _SignedPoly:
    return {key: coeff * factor for key, coeff in a.items()}


def _signed_add_into(target: _SignedPoly, source: _SignedPoly) -> None:
    for key, coeff in source.items():
        target[key] = target.get(key, 0.0) + coeff


def _has_primary(key: Tuple[Tuple[str, float], ...]) -> bool:
    return any(name.startswith("b__") for name, _exp in key)


def _split_signed(signed: _SignedPoly) -> Tuple[Rows, Rows]:
    positive: Rows = []
    negative: Rows = []
    for key, coeff in signed.items():
        if abs(coeff) <= _COEFF_EPS:
            continue
        (positive if coeff > 0 else negative).append((key, abs(coeff)))
    return (sorted(positive, key=lambda row: row[0]),
            sorted(negative, key=lambda row: row[0]))


def row_values(rows: Rows, point: Mapping[str, float]) -> List[float]:
    """Each row's value at ``point``: its coefficient times each of its
    variables' powers, multiplied in signature order."""
    out = []
    for signature, coefficient in rows:
        value = coefficient
        for name, exponent in signature:
            value *= float(point[name]) ** exponent
        out.append(value)
    return out


def mixed_dual_condition(
    terms: Iterable[QueryTerm],
    values: Mapping[str, float],
    direction: str = "query_up",
) -> Tuple[Rows, Optional[Rows]]:
    """Expand one direction of the mixed dual condition into ``(pos, neg)``
    rows with ``LHS = pos - neg`` (``neg`` is ``None`` when nothing
    cancels).

    ``direction="query_up"`` is the paper's Eq. 4 (positive half at the top
    of its windows moving up, negative half at the bottom moving down —
    the query *increases* most).  ``direction="query_down"`` is the mirror
    case (positive half down, negative half up — the query *decreases*
    most), which Eq. 4 does **not** dominate when the negative half is
    heavy; a sound planner must enforce both.

    Every kept term contains at least one primary-DAB variable: the
    c-only parts cancel exactly between ``prod(V∓c)^p`` and the b-free
    slice of the moved product.
    """
    if direction not in ("query_up", "query_down"):
        raise InvalidQueryError(
            f"direction must be 'query_up' or 'query_down', got {direction!r}")
    term_list = list(terms)
    up_terms = [t for t in term_list
                if t.is_positive == (direction == "query_up")]
    down_terms = [t for t in term_list
                  if t.is_positive != (direction == "query_up")]

    signed: _SignedPoly = {}
    if up_terms:
        ppq_part = CompiledDeviation([t.abs() for t in up_terms],
                                     include_secondary=True)
        for key, coefficient in zip(ppq_part.signatures,
                                    ppq_part.coefficients(values)):
            signed[key] = signed.get(key, 0.0) + coefficient

    for term in down_terms:
        down: _SignedPoly = {(): 1.0}
        for name, power in term.key:
            value = _require_positive_value(name, values)
            down = _signed_mul(down, _signed_factor_down(
                value, power, primary_variable(name), secondary_variable(name)))
        # decrease = prod(V-c)^p - prod(V-c-b)^p: the b-free slice of `down`
        # is exactly prod(V-c)^p, so keep only b-bearing terms, negated.
        contribution: _SignedPoly = {
            key: -coeff for key, coeff in down.items() if _has_primary(key)
        }
        _signed_add_into(signed, _signed_scale(contribution, abs(term.weight)))

    pos, neg = _split_signed(signed)
    if not pos:
        raise InvalidQueryError(
            "the mixed dual condition has no positive part; the query is "
            "degenerate (no primary-DAB-bearing terms)"
        )
    return pos, neg or None


def _directional_deviation(
    terms: Iterable[QueryTerm],
    values: Mapping[str, float],
    primary: Mapping[str, float],
    secondary: Mapping[str, float],
    direction: str,
) -> float:
    total = 0.0
    for term in terms:
        moves_up = term.is_positive == (direction == "query_up")
        edge = 1.0
        moved = 1.0
        for name, power in term.key:
            value = _require_positive_value(name, values)
            b = float(primary[name])
            c = float(secondary[name])
            if moves_up:
                edge *= (value + c) ** power
                moved *= (value + c + b) ** power
            else:
                low = value - c
                lower = value - c - b
                # allow solver-tolerance overshoot of the b+c <= V constraint
                if lower < -1e-5 * value:
                    raise InvalidQueryError(
                        f"window+filter exceed the value for {name!r}: "
                        f"V={value}, c={c}, b={b}"
                    )
                edge *= max(low, 0.0) ** power
                moved *= max(lower, 0.0) ** power
        if moves_up:
            total += abs(term.weight) * (moved - edge)
        else:
            total += abs(term.weight) * (edge - moved)
    return total


def mixed_worst_deviation(
    terms: Iterable[QueryTerm],
    values: Mapping[str, float],
    primary: Mapping[str, float],
    secondary: Mapping[str, float],
    direction: str = "both",
) -> float:
    """Numeric worst-case query movement with dual windows (unexpanded) —
    the oracle the expansion and the signomial planner are validated
    against.

    ``direction="both"`` (the sound default) returns the maximum of the
    query-up case (the paper's Eq. 4) and the query-down mirror case.
    Requires ``V - c - b >= 0`` for every down-moving item (enforced by
    the planner's window constraints).
    """
    term_list = list(terms)
    if direction == "both":
        return max(
            _directional_deviation(term_list, values, primary, secondary,
                                   "query_up"),
            _directional_deviation(term_list, values, primary, secondary,
                                   "query_down"),
        )
    if direction not in ("query_up", "query_down"):
        raise InvalidQueryError(
            f"direction must be 'both', 'query_up' or 'query_down', "
            f"got {direction!r}")
    return _directional_deviation(term_list, values, primary, secondary,
                                  direction)
