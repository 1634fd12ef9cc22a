"""The QUERY_SUB handler that plans before it replies, kept as an oracle.

``CoordinatorServer._on_query_sub`` registers a subscriber's new
definitions unplanned, writes the SNAPSHOT reply and only then plans them
(DESIGN.md §9.3).  Before that it planned each new definition as it
registered it — ``core.add_query(query)``, ``plan=True`` — and answered
after the last solve.  :func:`plan_first` puts that handler, verbatim, on
a built server, so a test can drive two servers with the same messages
and hold the shipped order to this one: the same plans, user values,
recomputations, reply values and journal records.  One difference is by
design: of a QUERY_SUB with several new definitions the shipped handler
journals every ``qadd`` before the first ``plan``, where this one
interleaves them (:func:`registration_first` maps one order to the
other).
"""

from __future__ import annotations

import types
from typing import Any, Dict, List, Mapping, Sequence, Set

from repro.queries.polynomial import PolynomialQuery
from repro.service import protocol
from repro.service.frontend import Peer
from repro.service.protocol import MessageType, ProtocolError


def _register_definitions(self, definitions: List[Any]) -> Set[str]:
    decoded = [protocol.query_from_wire(data) for data in definitions]
    staged: Dict[str, PolynomialQuery] = {}
    for query in decoded:
        existing = (self.core.query_named(query.name)
                    or staged.get(query.name))
        if existing is not None and existing != query:
            raise ProtocolError(
                f"query {query.name!r} is already registered with a "
                "different definition")
        if existing is None:
            unknown = [v for v in query.variables
                       if v not in self.core.cache]
            if unknown:
                raise ProtocolError(
                    f"query {query.name!r} references unknown items: "
                    f"{sorted(unknown)}")
            staged[query.name] = query
    registered: Set[str] = set()
    for query in decoded:
        if query.name in staged:
            self.core.add_query(query)
            self._dynamic_refs[query.name] = 1
            registered.add(query.name)
            del staged[query.name]
        elif (query.name in self._dynamic_refs
              and query.name not in registered):
            self._dynamic_refs[query.name] += 1
            registered.add(query.name)
    return registered


async def _on_query_sub(self, peer: Peer, message: Dict[str, Any]) -> None:
    registered: Set[str] = set()
    definitions = message.get("definitions")
    if definitions:
        registered = _register_definitions(self, definitions)
    sub = self._add_subscriber(peer, message, self.core.query_names)
    if sub.queries is not None:
        sub.queries |= {data["name"] for data in definitions or []}
    sub.registered = registered
    await self._safe_send(peer.stream, self._snapshot_response(sub))
    if registered:
        await self._fanout_bound_changes()


def plan_first(server):
    """Make ``server`` answer QUERY_SUB plan-first; returns it."""
    server.handlers[MessageType.QUERY_SUB] = types.MethodType(
        _on_query_sub, server)
    return server


def registration_first(records: Sequence[Mapping[str, Any]]
                       ) -> List[Mapping[str, Any]]:
    """The records one QUERY_SUB journals under the plan-first handler,
    in the shipped handler's order: the leading ``qadd``/``plan`` pairs
    regrouped so every ``qadd`` comes first, each group in its order;
    what follows (the DAB fan-out's ``bounds``) stays where it is."""
    pairs = 0
    while (2 * pairs + 1 < len(records)
           and records[2 * pairs]["t"] == "qadd"
           and records[2 * pairs + 1]["t"] == "plan"):
        pairs += 1
    head = list(records[:2 * pairs])
    return head[0::2] + head[1::2] + list(records[2 * pairs:])
