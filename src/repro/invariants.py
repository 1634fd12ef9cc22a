"""The served-value contract, written once (ROADMAP north star §3).

*Every served query value is within its QAB of the truth, or the query is
flagged degraded and is within its widened bound.*
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

#: Float noise allowed on top of a bound: a served value and the truth are
#: the same polynomial summed in different orders.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12

Violations = List[Dict[str, Any]]


def check_served(truth: Mapping[str, float], served: Mapping[str, float],
                 degraded: Mapping[str, float], queries: Iterable[Any],
                 ) -> Tuple[Violations, Violations, Violations]:
    """Judge ``served`` (query → value) against ``truth`` (item → value).

    Returns ``(unexcused, excused, exceeded)``: the queries off by more
    than their QAB and not in ``degraded`` (query → widened bound) — the
    contract broken; those off by more than their QAB but flagged; and, of
    these, the ones outside even the widened bound.  Entries are
    ``{"query", "error", "qab"}``, the last list's ``{"query", "error",
    "widened_bound"}``.  A query ``served`` does not carry is not judged.
    """
    unexcused: Violations = []
    excused: Violations = []
    exceeded: Violations = []
    for query in queries:
        name = query.name
        if name not in served:
            continue
        error = abs(served[name] - query.evaluate(truth))
        if error <= query.qab * (1.0 + _REL_SLACK) + _ABS_SLACK:
            continue
        entry = {"query": name, "error": error, "qab": query.qab}
        if name not in degraded:
            unexcused.append(entry)
            continue
        excused.append(entry)
        if error > degraded[name] * (1.0 + _REL_SLACK) + _ABS_SLACK:
            exceeded.append({"query": name, "error": error,
                             "widened_bound": degraded[name]})
    return unexcused, excused, exceeded
