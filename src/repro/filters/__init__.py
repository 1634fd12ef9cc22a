"""DAB assignment — the paper's core contribution.

Given polynomial queries with QABs and current item values, the planners in
this subpackage compute data accuracy bounds (filters) for the sources:

* :class:`~repro.filters.optimal_refresh.OptimalRefreshPlanner` —
  Section III-A.1: refresh-optimal single DABs (recomputed on every refresh),
* :class:`~repro.filters.dual_dab.DualDABPlanner` — Section III-A.2/4: the
  novel primary+secondary DAB formulation trading a few extra refreshes for
  far fewer recomputations,
* :class:`~repro.filters.heuristics.HalfAndHalfPlanner` /
  :class:`~repro.filters.heuristics.DifferentSumPlanner` — Section III-B:
  general (mixed-sign) polynomial queries,
* :class:`~repro.filters.multi_query.EQIPlanner` /
  :class:`~repro.filters.multi_query.AAOPlanner` — Section IV: multiple
  queries, independently or all-at-once,
* :mod:`~repro.filters.baselines` — the uniform-allocation and
  Sharfman-style per-item baselines the paper compares against,
* :mod:`~repro.filters.laq` — closed-form optimal DABs for linear aggregate
  queries (the technical-report companion's result).
"""

from repro.filters.assignment import DABAssignment, MultiQueryAssignment, merge_primary
from repro.filters.cost_model import CostModel
from repro.filters.optimal_refresh import OptimalRefreshPlanner
from repro.filters.dual_dab import DualDABPlanner
from repro.filters.heuristics import DifferentSumPlanner, HalfAndHalfPlanner
from repro.filters.multi_query import AAOPlanner, EQIPlanner
from repro.filters.baselines import SharfmanStyleBaseline, UniformAllocationBaseline
from repro.filters.laq import assign_laq
from repro.filters.threshold import ThresholdMonitor, ThresholdQuery
from repro.filters.signomial import SignomialPlanner

__all__ = [
    "DABAssignment",
    "MultiQueryAssignment",
    "merge_primary",
    "CostModel",
    "OptimalRefreshPlanner",
    "DualDABPlanner",
    "HalfAndHalfPlanner",
    "DifferentSumPlanner",
    "EQIPlanner",
    "AAOPlanner",
    "SharfmanStyleBaseline",
    "UniformAllocationBaseline",
    "assign_laq",
    "ThresholdMonitor",
    "ThresholdQuery",
    "SignomialPlanner",
]
