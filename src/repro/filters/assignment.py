"""DAB assignments and their validity predicates.

A :class:`DABAssignment` is the output of every planner: primary DABs
(shipped to the sources as push filters) plus, for dual-DAB planners, the
secondary DABs that define the validity window of the primaries at the
coordinator.  ``secondary=None`` encodes single-DAB semantics — the
assignment must be recomputed on *every* refresh (Optimal Refresh and the
baselines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.exceptions import InvalidAssignmentError
from repro.queries.deviation import max_query_deviation
from repro.queries.polynomial import PolynomialQuery


def _validate_bounds(bounds: Mapping[str, float], label: str) -> Dict[str, float]:
    cleaned = {}
    for name, value in bounds.items():
        bound = float(value)
        if not (bound > 0.0) or math.isinf(bound):
            raise InvalidAssignmentError(
                f"{label} DAB for {name!r} must be positive and finite, got {value!r}"
            )
        cleaned[name] = bound
    if not cleaned:
        raise InvalidAssignmentError(f"{label} DAB map is empty")
    return cleaned


@dataclass
class DABAssignment:
    """Primary (and optionally secondary) DABs for one query plan.

    Attributes
    ----------
    primary:
        ``item -> b`` — the filter widths the sources enforce.
    secondary:
        ``item -> c`` with ``c >= b``, or ``None`` for single-DAB plans.
    reference_values:
        The item values the plan was computed at (centre of the validity
        window).
    recompute_rate:
        The GP's ``R`` — estimated recomputations per unit time (0 for
        single-DAB plans, where every refresh recomputes).
    objective:
        The solver's objective value (estimated refreshes + μ·R), useful for
        comparing plans.
    """

    primary: Dict[str, float]
    secondary: Optional[Dict[str, float]] = None
    reference_values: Dict[str, float] = field(default_factory=dict)
    recompute_rate: float = 0.0
    objective: float = float("nan")

    def __post_init__(self) -> None:
        self.primary = _validate_bounds(self.primary, "primary")
        if self.secondary is not None:
            self.secondary = _validate_bounds(self.secondary, "secondary")
            missing = set(self.primary) - set(self.secondary)
            if missing:
                raise InvalidAssignmentError(
                    f"secondary DABs missing for items: {sorted(missing)}"
                )
            for name, b in self.primary.items():
                c = self.secondary[name]
                if c < b * (1.0 - 1e-9):
                    raise InvalidAssignmentError(
                        f"secondary DAB must dominate primary for {name!r}: c={c} < b={b}"
                    )
        self.reference_values = {k: float(v) for k, v in self.reference_values.items()}

    # -- semantics ---------------------------------------------------------------

    @property
    def is_dual(self) -> bool:
        return self.secondary is not None

    @property
    def items(self) -> Tuple[str, ...]:
        return tuple(sorted(self.primary))

    def primary_of(self, item: str) -> float:
        """The primary DAB of ``item`` (KeyError if unassigned)."""
        try:
            return self.primary[item]
        except KeyError:
            raise KeyError(f"no primary DAB for item {item!r}") from None

    def window_contains(self, values: Mapping[str, float]) -> bool:
        """Are all items inside their secondary window ``V_ref ± c``?

        Single-DAB assignments have no window: any change of the inputs
        means the plan must be recomputed, so this returns ``False``
        whenever a value differs from its reference.
        """
        if self.secondary is None:
            return all(
                math.isclose(float(values[name]), self.reference_values.get(name, float("nan")),
                             rel_tol=0.0, abs_tol=0.0)
                for name in self.primary
                if name in values
            )
        for name in self.primary:
            if name not in values:
                continue
            reference = self.reference_values.get(name)
            if reference is None:
                return False
            if abs(float(values[name]) - reference) > self.secondary[name] + 1e-12:
                return False
        return True

    def violated_items(self, values: Mapping[str, float]) -> List[str]:
        """Items outside their secondary window (all items for single-DAB
        plans once anything moved)."""
        if self.secondary is None:
            return [
                name for name in self.primary
                if name in values
                and float(values[name]) != self.reference_values.get(name)
            ]
        out = []
        for name in self.primary:
            if name not in values:
                continue
            reference = self.reference_values.get(name)
            if reference is None or abs(float(values[name]) - reference) > self.secondary[name] + 1e-12:
                out.append(name)
        return out

    def guarantees_qab(self, query: PolynomialQuery, values: Mapping[str, float],
                       tol: float = 1e-7) -> bool:
        """Condition 1 check at given values: with every item free to move
        by its primary DAB, can the query leave its QAB?"""
        deviation = max_query_deviation(query.terms, values, self.primary)
        return deviation <= query.qab * (1.0 + tol)

    def guarantees_qab_over_window(self, query: PolynomialQuery,
                                   tol: float = 1e-7) -> bool:
        """The dual-DAB guarantee: the primary DABs keep the QAB at the
        *worst point of the secondary window* (``V + c``), hence everywhere
        inside it (deviation is monotone in the base values)."""
        if self.secondary is None:
            return self.guarantees_qab(query, self.reference_values, tol)
        edge = {
            name: self.reference_values[name] + self.secondary[name]
            for name in self.primary
            if name in self.reference_values
        }
        deviation = max_query_deviation(query.terms, edge, self.primary)
        return deviation <= query.qab * (1.0 + tol)

    def restricted_to(self, items: Iterable[str]) -> "DABAssignment":
        """A copy covering only the listed items (unknown names ignored)."""
        names = [n for n in items if n in self.primary]
        return DABAssignment(
            primary={n: self.primary[n] for n in names},
            secondary=None if self.secondary is None else {n: self.secondary[n] for n in names},
            reference_values={n: self.reference_values[n] for n in names
                              if n in self.reference_values},
            recompute_rate=self.recompute_rate,
            objective=self.objective,
        )


def merge_primary(assignments: Iterable[Union[DABAssignment, Mapping[str, float]]]
                  ) -> Dict[str, float]:
    """Per item, the minimum primary DAB across assignments (or bound maps).

    This is how both EQI and the per-query planners combine plans: the
    source must satisfy the most demanding query (Section IV: "for each
    data item, we then assign the minimum primary DAB across all queries").
    """
    merged: Dict[str, float] = {}
    for assignment in assignments:
        bounds = (assignment.primary if isinstance(assignment, DABAssignment)
                  else assignment)
        for name, bound in bounds.items():
            current = merged.get(name)
            if current is None or bound < current:
                merged[name] = bound
    if not merged:
        raise InvalidAssignmentError("cannot merge zero assignments")
    return merged


@dataclass
class MultiQueryAssignment:
    """The coordinator-level plan for a set of queries.

    ``per_query`` keeps each query's own assignment (needed for the
    per-query secondary windows and recompute accounting), ``coordinator``
    holds the merged min-primary map actually shipped to sources.
    """

    per_query: Dict[str, DABAssignment]
    coordinator: Dict[str, float]

    @classmethod
    def from_assignments(cls, assignments: Mapping[str, DABAssignment]) -> "MultiQueryAssignment":
        return cls(
            per_query=dict(assignments),
            coordinator=merge_primary(assignments.values()),
        )

    @property
    def items(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coordinator))

    def primary_of(self, item: str) -> float:
        return self.coordinator[item]
