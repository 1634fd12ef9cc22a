"""Heuristics for general (mixed-sign) polynomial queries — Section III-B.

No known optimisation technique yields the optimum once a polynomial has
negative coefficients (the constraints stop being posynomials).  The paper's
key observation: any polynomial splits as ``P = P1 - P2`` with both halves
positive-coefficient, enabling two heuristics:

* **Half and Half** — solve ``P1 : B/2`` and ``P2 : B/2`` separately and
  take, per item, the minimum DAB.  Correct because a change of ``P`` by
  more than ``B`` forces one half to change by more than ``B/2``.
* **Different Sum** — solve the single PPQ ``P1 + P2 : B``.  Correct by
  Claim 1 (the mixed-sign QAB condition is term-wise dominated by the
  all-positive one) and provably near-optimal when the halves are
  independent and the optimal DABs are small relative to the data
  (Claim 2).

Both delegate the PPQ solves to a base planner (Dual-DAB by default, or
Optimal Refresh for refresh-only studies).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import FilterError, InvalidQueryError
from repro.filters.assignment import DABAssignment
from repro.filters.cost_model import CostModel
from repro.filters.dual_dab import DualDABPlanner
from repro.queries.polynomial import PolynomialQuery
from repro.queries.terms import QueryTerm


def _merge_half_plans(a1: DABAssignment, a2: DABAssignment) -> DABAssignment:
    """Per item the minimum of both halves' bounds.

    For primary DABs this is the paper's rule ("the DAB for coordinator C
    is the minimum amongst the primary DABs calculated for P1 and P2");
    secondaries merge the same way so the combined validity window is the
    intersection of both windows.
    """
    primary: Dict[str, float] = dict(a1.primary)
    for name, bound in a2.primary.items():
        primary[name] = min(primary.get(name, bound), bound)

    secondary: Optional[Dict[str, float]] = None
    if a1.secondary is not None and a2.secondary is not None:
        secondary = dict(a1.secondary)
        for name, bound in a2.secondary.items():
            secondary[name] = min(secondary.get(name, bound), bound)
        # An item may appear in only one half with c < other half's b after
        # the min; re-impose dominance against the merged primary.
        for name in primary:
            if name in secondary and secondary[name] < primary[name]:
                secondary[name] = primary[name]
    references = dict(a1.reference_values)
    references.update(a2.reference_values)
    return DABAssignment(
        primary=primary,
        secondary=secondary,
        reference_values=references,
        # Either half's window breaking invalidates the merged plan; the
        # union-bound rate is the sum.
        recompute_rate=a1.recompute_rate + a2.recompute_rate,
        objective=a1.objective + a2.objective,
    )


class HalfAndHalfPlanner:
    """Heuristic 1: solve ``P1 : r·B`` and ``P2 : (1-r)·B`` independently.

    ``split_ratio`` is the fraction of the QAB given to the positive half;
    the paper fixes it at 0.5 ("dividing the bound equally ... may not be
    optimal") and our ablation bench sweeps it.
    """

    def __init__(self, cost_model: CostModel, base_planner: Optional[object] = None,
                 split_ratio: float = 0.5):
        if not (0.0 < split_ratio < 1.0):
            raise FilterError(f"split ratio must be in (0, 1), got {split_ratio!r}")
        self.cost_model = cost_model
        self.base = base_planner if base_planner is not None else DualDABPlanner(cost_model)
        self.split_ratio = split_ratio

    def plan(self, query: PolynomialQuery, values: Mapping[str, float],
             recompute_scale: float = 1.0) -> DABAssignment:
        """Each half is planned at ``query``'s recompute price."""
        p1, p2 = query.split()
        if not p2:
            return self.base.plan(query, values, recompute_scale)
        if not p1:
            # Entirely negative query: -P2 moves exactly as much as P2.
            mirror = PolynomialQuery(p2, query.qab, f"{query.name}__neg")
            return self.base.plan(mirror, values, recompute_scale)
        q1 = PolynomialQuery(p1, query.qab * self.split_ratio, f"{query.name}__p1")
        q2 = PolynomialQuery(p2, query.qab * (1.0 - self.split_ratio), f"{query.name}__p2")
        a1 = self.base.plan(q1, values, recompute_scale)
        a2 = self.base.plan(q2, values, recompute_scale)
        return _merge_half_plans(a1, a2)

    def clear_warm_starts(self) -> None:
        """Drop the base planner's cached solver starts (fault resync)."""
        clear = getattr(self.base, "clear_warm_starts", None)
        if clear is not None:
            clear()

    def forget_query(self, name: str) -> None:
        """Forget *name* (and the ``__p1``/``__p2``/``__neg`` splits it
        plans through) in the base planner's per-name caches."""
        forget = getattr(self.base, "forget_query", None)
        if forget is not None:
            forget(name)


class DifferentSumPlanner:
    """Heuristic 2: solve the positive mirror ``P1 + P2 : B`` as one PPQ."""

    def __init__(self, cost_model: CostModel, base_planner: Optional[object] = None):
        self.cost_model = cost_model
        self.base = base_planner if base_planner is not None else DualDABPlanner(cost_model)

    def plan(self, query: PolynomialQuery, values: Mapping[str, float],
             recompute_scale: float = 1.0) -> DABAssignment:
        """The mirror is planned at ``query``'s recompute price."""
        if query.is_positive_coefficient:
            return self.base.plan(query, values, recompute_scale)
        mirror = query.positive_mirror()
        return self.base.plan(mirror, values, recompute_scale)

    def clear_warm_starts(self) -> None:
        """Drop the base planner's cached solver starts (fault resync)."""
        clear = getattr(self.base, "clear_warm_starts", None)
        if clear is not None:
            clear()

    def forget_query(self, name: str) -> None:
        forget = getattr(self.base, "forget_query", None)
        if forget is not None:
            forget(name)


def dispatch_planner(cost_model: CostModel, *, dual: bool = True,
                     heuristic: str = "different_sum") -> object:
    """Build the planner stack the experiments use: Dual-DAB (or Optimal
    Refresh with ``dual=False``) for PPQs, wrapped by the chosen general-PQ
    heuristic."""
    from repro.filters.optimal_refresh import OptimalRefreshPlanner

    base = DualDABPlanner(cost_model) if dual else OptimalRefreshPlanner(cost_model)
    if heuristic == "different_sum":
        return DifferentSumPlanner(cost_model, base)
    if heuristic == "half_and_half":
        return HalfAndHalfPlanner(cost_model, base)
    raise FilterError(f"unknown heuristic {heuristic!r}; "
                      "expected 'different_sum' or 'half_and_half'")
