"""A QUERY_SUB's reply and plans against the plan-first handler.

``CoordinatorServer._on_query_sub`` registers a subscriber's new
definitions, writes the SNAPSHOT reply and only then plans them
(DESIGN.md §9.3).  :func:`tests.oracle.plan_first.plan_first` keeps the
handler that planned each definition before it replied.  Two journaled
servers, one of each, take the same messages over byte loopbacks:
QUERY_SUBs with new, duplicate and refused definitions, some followed by
a REFRESH in the same read or in a source's read of the same loop turn;
REFRESHes in later reads; and subscribers hanging up.  After every step
they must agree on the plans (bit for bit), ``last_user_values``, the
recomputation count, the reply (values, degraded map, or the refusal's
reason) and the journal bytes — up to the one order that differs by
design: of a QUERY_SUB with several new definitions the shipped handler
journals every ``qadd`` before the first ``plan``
(:func:`~tests.oracle.plan_first.registration_first`).

Budget: the default ``ci`` profile keeps this in tier-1 seconds; set
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the >=200-example sweep (wired
into the nightly-properties CI job).
"""

import asyncio
import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.queries import PolynomialQuery, QueryTerm
from repro.service import protocol
from repro.service.journal import Journal, encode_record
from repro.service.protocol import MessageType
from repro.service.server import build_scenario_server
from repro.service.transports import loopback_pair
from tests.oracle.plan_first import plan_first, registration_first
from tests.service.nodes import connect
from tests.service.test_bank_subscribe import (
    _dynamic_bank,
    _idle,
    _round_trip,
    _tightening_definition,
    _wire_plans,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

#: How far a REFRESH moves its item: not at all, inside any window, and
#: out of some (a recompute, a DAB fan-out).
FACTORS = (1.0, 1.0 + 1e-9, 1.02, 1.3, 0.6)

#: The definitions a QUERY_SUB picks from: five that register (four
#: generated, one that tightens source bounds) and two that are refused.
POOL_SIZE = 5
REFUSALS = ("conflict", "unknown")


def _build(directory):
    server, _, item_to_source = build_scenario_server(
        query_count=4, item_count=20, source_count=2, trace_length=41,
        seed=1, journal=Journal(directory))
    server.restore()
    return server, item_to_source


def _hex(values):
    return {name: float(value).hex() for name, value in values.items()}


def _reply_view(reply):
    if reply["type"] == MessageType.SNAPSHOT.value:
        return (reply["type"], _hex(reply["values"]), reply.get("degraded"))
    return reply["type"], reply.get("reason")


class SubscribeOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.dirs = [tempfile.mkdtemp(), tempfile.mkdtemp()]
        self.shipped, item_to_source = _build(self.dirs[0])
        self.oracle = plan_first(_build(self.dirs[1])[0])
        self.item_to_source = item_to_source
        core = self.shipped.core
        _, source_id, _, tight = _tightening_definition(
            [self.shipped], item_to_source)
        items = sorted(core.cache)
        self.items = items
        self.pool = _dynamic_bank(core, count=POOL_SIZE - 1,
                                  distinct=POOL_SIZE - 1) + [tight]
        self.refused = {
            "conflict": PolynomialQuery(
                [QueryTerm.product(1.0, items[0], items[1])], qab=1.0,
                name=core.queries[0].name),
            "unknown": PolynomialQuery(
                [QueryTerm.product(1.0, items[0], "ghost")], qab=1.0,
                name="ghost"),
        }
        owned = sorted(name for name, owner in item_to_source.items()
                       if owner == source_id)
        self.sources = self._both(self._attach_source, source_id, owned)
        #: open subscriber ends, one ``(shipped, oracle)`` pair each.
        self.subscribers = []
        self.seqs = {item: 0 for item in items}
        #: the oracle's journal, in the shipped handler's order.
        self.expected = []
        self.seen = 0

    def teardown(self):
        for server in (self.shipped, self.oracle):
            self.loop.run_until_complete(server.close())
        self.loop.close()
        asyncio.set_event_loop(None)
        for directory in self.dirs:
            shutil.rmtree(directory, ignore_errors=True)

    # -- driving both servers alike -----------------------------------------------

    def _both(self, step, *args):
        return tuple(self.loop.run_until_complete(step(server, *args))
                     for server in (self.shipped, self.oracle))

    async def _attach_source(self, server, source_id, owned):
        stream = connect(server, loopback_pair)
        await stream.send(protocol.register_source(source_id, owned))
        await stream.receive()
        return stream

    def _refresh(self, pick):
        index, factor = pick
        item = self.items[index % len(self.items)]
        self.seqs[item] += 1
        value = self.shipped.core.cache[item] * FACTORS[factor]
        return protocol.refresh(self.item_to_source[item], [item], [value],
                                [self.seqs[item]])

    async def _subscribe(self, server, message, frame, carrier):
        stream = connect(server, loopback_pair)
        source = self.sources[server is self.oracle]
        # No yield between the two: the REFRESH is in the QUERY_SUB's
        # read (``read``) or in the source's, ready in the same loop turn
        # (``turn``).
        stream.send_nowait(message)
        if frame is not None:
            (stream if carrier == "read" else source).send_nowait(frame)
        reply = await asyncio.wait_for(stream.receive(), timeout=5)
        if reply["type"] == MessageType.SNAPSHOT.value:
            await _round_trip(stream)
        else:
            # Refused: the node hangs up, unread what followed in its read.
            await _idle(server, 1 + len(self.subscribers))
            stream.close()
            stream = None
        await _round_trip(source)
        return stream, reply

    async def _send_refresh(self, server, frame):
        stream = self.sources[server is self.oracle]
        stream.send_nowait(frame)
        await _round_trip(stream)

    async def _drop(self, server, stream):
        stream.close()
        await _idle(server, 1 + len(self.subscribers))

    # -- rules --------------------------------------------------------------------

    @rule(picks=st.lists(st.integers(0, POOL_SIZE - 1), max_size=3),
          refusal=st.sampled_from((None,) + REFUSALS),
          refresh=st.none() | st.tuples(st.integers(0, 10 ** 6),
                                        st.integers(0, len(FACTORS) - 1)),
          carrier=st.sampled_from(("read", "turn")))
    def subscribe(self, picks, refusal, refresh, carrier):
        definitions = [self.pool[pick] for pick in picks]
        if refusal is not None:
            definitions.append(self.refused[refusal])
        message = protocol.query_sub([], definitions)
        frame = self._refresh(refresh) if refresh is not None else None
        (shipped, reply), (oracle, oracle_reply) = self._both(
            self._subscribe, message, frame, carrier)
        assert _reply_view(reply) == _reply_view(oracle_reply)
        if shipped is not None:
            self.subscribers.append((shipped, oracle))
        self._check(registration=True)

    @rule(pick=st.tuples(st.integers(0, 10 ** 6),
                         st.integers(0, len(FACTORS) - 1)))
    def refresh_later(self, pick):
        self._both(self._send_refresh, self._refresh(pick))
        self._check()

    @precondition(lambda self: self.subscribers)
    @rule(index=st.integers(0, 10 ** 6))
    def drop(self, index):
        shipped, oracle = self.subscribers.pop(index % len(self.subscribers))
        self.loop.run_until_complete(self._drop(self.shipped, shipped))
        self.loop.run_until_complete(self._drop(self.oracle, oracle))
        self._check()

    # -- the comparison -----------------------------------------------------------

    def _check(self, registration=False):
        shipped, oracle = self.shipped, self.oracle
        assert _wire_plans(shipped.core) == _wire_plans(oracle.core)
        assert (_hex(shipped.core.last_user_values)
                == _hex(oracle.core.last_user_values))
        assert (shipped.metrics.recomputations
                == oracle.metrics.recomputations)
        records = list(oracle.journal.records())
        assert oracle.journal.wal_path.read_bytes() == b"".join(
            map(encode_record, records))
        fresh = records[self.seen:]
        self.seen = len(records)
        self.expected += registration_first(fresh) if registration else fresh
        assert shipped.journal.wal_path.read_bytes() == b"".join(
            map(encode_record, self.expected))


SubscribeOracle.TestCase.settings = settings(stateful_step_count=8)
TestSubscribeOracle = SubscribeOracle.TestCase
