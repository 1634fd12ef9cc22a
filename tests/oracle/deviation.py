"""The paper's QAB conditions and cost terms as posynomials (test oracle).

The object forms of what the package compiles: the worst-case deviation
expansion (paper Eqs. 1 and 2, generalised by the multinomial theorem),
the dual-DAB condition, and the refresh/recompute-rate monomials of the
cost model.  :class:`repro.queries.compiled.CompiledDeviation` and the
planners' array assemblers are held to these bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.dynamics.models import (
    DataDynamicsModel,
    refresh_rate_coefficient,
    refresh_rate_exponent,
)
from repro.exceptions import FilterError, InvalidQueryError
from repro.queries.deviation import (
    _PRIMARY_PREFIX,
    _require_positive_value,
    primary_variable,
    secondary_variable,
)
from repro.queries.terms import QueryTerm
from tests.oracle.monomial import Monomial
from tests.oracle.posynomial import Posynomial


def _factor_expansion(value: float, power: int, b_var: str,
                      c_var: Optional[str]) -> Posynomial:
    """Binomial/trinomial expansion of one factor.

    Without a secondary variable: ``(V + b)^p = sum_k C(p,k) V^{p-k} b^k``.
    With one: ``(V + c + b)^p = sum_{j+k<=p} p!/(j!k!(p-j-k)!) V^{p-j-k} c^j b^k``.
    All coefficients are positive because ``V > 0``.
    """
    monomials: List[Monomial] = []
    if c_var is None:
        for k in range(power + 1):
            coefficient = math.comb(power, k) * value ** (power - k)
            monomials.append(Monomial(coefficient, {b_var: k} if k else {}))
    else:
        for j in range(power + 1):
            for k in range(power - j + 1):
                coefficient = (
                    math.comb(power, j) * math.comb(power - j, k)
                    * value ** (power - j - k)
                )
                exponents: Dict[str, int] = {}
                if j:
                    exponents[c_var] = j
                if k:
                    exponents[b_var] = k
                monomials.append(Monomial(coefficient, exponents))
    return Posynomial(monomials)


def _has_primary_variable(monomial: Monomial) -> bool:
    return any(name.startswith(_PRIMARY_PREFIX) for name in monomial.variables)


def deviation_posynomial(
    terms: Iterable[QueryTerm],
    values: Mapping[str, float],
    include_secondary: bool = False,
) -> Posynomial:
    """The worst-case query deviation as a posynomial in the DAB variables.

    Parameters
    ----------
    terms:
        Query terms; weights enter through their absolute value (each term's
        worst case is independent, which is exact for PPQs and the safe
        triangle bound for mixed signs).
    values:
        Current item values ``V_i`` (strictly positive).
    include_secondary:
        When true, produce the dual-DAB form in ``(b__*, c__*)``; otherwise
        the single-DAB form in ``b__*`` only.

    Returns
    -------
    Posynomial
        Every term contains at least one primary-DAB variable; the constant
        (pure ``V``/pure ``c``) part is already subtracted out.
    """
    collected: List[Monomial] = []
    for term in terms:
        product = Posynomial([Monomial.constant(abs(term.weight))])
        for name, power in term.key:
            value = _require_positive_value(name, values)
            factor = _factor_expansion(
                value, power, primary_variable(name),
                secondary_variable(name) if include_secondary else None,
            )
            product = product * factor
        collected.extend(m for m in product.terms if _has_primary_variable(m))
    if not collected:
        raise InvalidQueryError("deviation expansion produced no DAB-bearing terms")
    return Posynomial(collected)


def dual_dab_condition(terms: Iterable[QueryTerm], values: Mapping[str, float],
                       qab: float) -> Posynomial:
    """Paper Eq. 2 generalised: the posynomial ``g(b, c)`` with the QAB
    condition ``g <= qab``, normalised to ``g/qab`` (ready for ``<= 1``)."""
    if not (qab > 0.0):
        raise InvalidQueryError(f"QAB must be positive, got {qab!r}")
    return deviation_posynomial(terms, values, include_secondary=True) / qab


def refresh_rate_monomial(model: DataDynamicsModel, rate_of_change: float,
                          dab_variable: str) -> Monomial:
    """The refresh-rate estimate as a GP monomial in the DAB variable.

    ``λ / b`` for the monotonic model, ``λ² / b²`` for the random walk —
    exactly the objective terms of the paper's two formulations.
    """
    return Monomial(refresh_rate_coefficient(model, rate_of_change),
                    {dab_variable: refresh_rate_exponent(model)})


def refresh_objective(cost_model, items: Sequence[str]) -> Posynomial:
    """``sum_i λ_i / b_i`` (monotonic) or ``sum_i λ_i² / b_i²`` (random
    walk) over the given items — the refresh part of every objective."""
    if not items:
        raise FilterError("refresh objective needs at least one item")
    return Posynomial([
        refresh_rate_monomial(cost_model.ddm, cost_model.rate_of(name),
                              primary_variable(name))
        for name in items
    ])


def recompute_rate_monomial(cost_model, item: str) -> Monomial:
    """The per-item contribution to the recomputation rate ``R``:
    ``λ_i / c_i`` (monotonic) or ``λ_i² / c_i²`` (random walk); the GP
    constrains each to be ``<= R``."""
    return refresh_rate_monomial(cost_model.ddm, cost_model.rate_of(item),
                                 secondary_variable(item))
