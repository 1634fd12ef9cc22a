"""A reaction's notifications against the union-path reaction it replaced.

``CoordinatorCore._notify_movers`` used to read the queries reading any
item of the batch — each item's ``bank.affected`` scattered into a mask,
``flatnonzero`` for the positions, one ``values_vector`` over them — and
compare those.  A batch of several items now reads every live query and
compares them in one masked pass, keeping the movers that read an item
of the batch (DESIGN.md §8.5); a batch of one still reads
``affected(item)``, in registration order.  :func:`union_notify_movers`
below is the union path, verbatim, kept here as the oracle.

Two cores take the same columns — one reacts with the shipped path, one
with the oracle — and after every step they must agree on the
notifications (in order, bit for bit), ``last_user_values``, the
``_last_user_arr`` bits, the recompute decisions (in order) and the
journal bytes.  The steps mix batches of one to five entries (an item
twice among them), writes no reaction follows (``adopt_item``, a replayed
``refresh`` record), ``add_query``/``remove_query`` (swap-removes, so
registration order and bank order part), planner failures and a
snapshot restore, under the cost rule and with each of the bank's read
kernels forced.

Budget: the default ``ci`` profile keeps this in tier-1 seconds; set
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the >=200-example sweep (wired
into the nightly-properties CI job).
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.queries import compiled
from repro.service import protocol
from repro.service.core import CoordinatorCore
from repro.service.journal import encode_record

from tests.service.test_window_screen import (
    INITIAL,
    ITEMS,
    POOL,
    STATIC,
    RecordingMetrics,
    WindowPlanner,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))


def union_notify_movers(self, items):
    """The oracle: the union-path ``_notify_movers``, as it shipped."""
    bank = self._bank
    if len(items) == 1:
        idx = bank.affected(items[0])
    else:
        union = np.zeros(len(self.queries), dtype=bool)
        union[np.concatenate([bank.affected(item)
                              for item in items])] = True
        idx = np.flatnonzero(union)
    sub = bank.values_vector(self._power_vector, idx)
    moved = (np.abs(sub - self._last_user_arr.take(idx))
             > self._qab_arr.take(idx))
    if not moved.any():
        return []
    queries = self.queries
    notifications = [(queries[position].name, value) for position, value
                     in zip(idx[moved].tolist(), sub[moved].tolist())]
    self._set_user_values(notifications)
    self.metrics.record_user_notification(len(notifications))
    return notifications


class UnionPathCore(CoordinatorCore):
    _notify_movers = union_notify_movers


class JournalTap:
    """Stands in for the write-ahead journal: keeps each record's bytes."""

    def __init__(self):
        self.lines = []

    def append(self, record):
        self.lines.append(encode_record(record))


#: Forcing the cost rule's answer (the seam ``whole_read`` is).
KERNELS = {"whole": lambda live, dirty: True,
           "delta": lambda live, dirty: False,
           "rule": compiled.whole_read}


def _hex(pairs):
    return [(name, float(value).hex()) for name, value in pairs]


class Pair:
    """The shipped core and the oracle core, stepped together."""

    def __init__(self):
        #: One solver-free planner serves both cores (it keeps no state
        #: but its ``fail`` switch).
        self.planner = WindowPlanner()
        self.cores = [self._core(CoordinatorCore), self._core(UnionPathCore)]
        for core in self.cores:
            core.bootstrap()
        self.check(None)

    def _core(self, kind):
        core = kind(queries=STATIC, planner=self.planner,
                    metrics=RecordingMetrics(), initial_values=INITIAL,
                    item_to_source={name: 0 for name in ITEMS})
        core.journal = JournalTap()
        return core

    def step(self, op):
        kind = op[0]
        shipped = self.cores[0]
        if kind == "batch":
            items = [item for item, _ in op[1]]
            values = []
            cache = dict(shipped.cache)
            for item, factor in op[1]:
                cache[item] *= factor
                values.append(cache[item])
            return self.check([self._react(core, items, values)
                               for core in self.cores])
        if kind == "adopt":
            value = shipped.cache[op[1]] * op[2]
            for core in self.cores:
                core.adopt_item(op[1], value)
        elif kind == "replay":
            record = {"t": "refresh", "item": op[1],
                      "value": shipped.cache[op[1]] * op[2]}
            for core in self.cores:
                core.replay(record)
        elif kind == "add":
            if POOL[op[1]].name not in shipped.query_names:
                for core in self.cores:
                    core.add_query(POOL[op[1]])
        elif kind == "remove":
            if POOL[op[1]].name in shipped.query_names:
                for core in self.cores:
                    core.remove_query(POOL[op[1]].name)
        elif kind == "fail":
            self.planner.fail = op[1]
        elif kind == "restore":
            self.cores = [self._restored(core) for core in self.cores]
        return self.check(None)

    @staticmethod
    def _react(core, items, values):
        core.apply_refresh(items, values)
        notifications, recomputed = core.react_to_refresh(items)
        return _hex(notifications), recomputed

    def _restored(self, core):
        """Cut a snapshot of ``core`` through the journal's codec and carry
        on from a freshly built core of its kind restored from it."""
        state = protocol.decode_body(
            protocol.encode_body(core.recovery_state()))
        fresh = self._core(type(core))
        fresh.restore_recovery_state(state)
        fresh.journal = core.journal
        return fresh

    def check(self, reactions):
        shipped, oracle = self.cores
        if reactions is not None:
            assert reactions[0] == reactions[1]
        live = len(oracle.queries)
        assert len(shipped.queries) == live
        assert [q.name for q in shipped.queries] == \
            [q.name for q in oracle.queries]
        assert shipped.metrics.recompute_order == \
            oracle.metrics.recompute_order
        assert _hex(sorted(shipped.last_user_values.items())) == \
            _hex(sorted(oracle.last_user_values.items()))
        assert shipped._last_user_arr[:live].tobytes() == \
            oracle._last_user_arr[:live].tobytes()
        assert shipped.journal.lines == oracle.journal.lines
        return reactions


FACTORS = (0.9, 0.94, 0.97, 0.985, 1.0, 1.005, 1.015, 1.03, 1.06, 1.1)
batches = st.tuples(
    st.just("batch"),
    st.lists(st.tuples(st.sampled_from(ITEMS), st.sampled_from(FACTORS)),
             min_size=1, max_size=5))
others = st.one_of(
    st.tuples(st.sampled_from(("adopt", "replay")), st.sampled_from(ITEMS),
              st.sampled_from((0.5, 0.8, 1.25, 2.0))),
    st.tuples(st.sampled_from(("add", "remove")),
              st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("fail"), st.booleans()),
    st.tuples(st.just("restore")))
steps = st.lists(st.one_of(batches, batches, batches, others), max_size=30)

#: ``c`` is read by q0, q1 and q3 only: doubled with no reaction, it moves
#: q3 (c·e, QAB 20) beyond its QAB, and a batch over ``a`` and ``b`` —
#: which q3 does not read — must leave q3's notification to the next
#: refresh of ``c`` or ``e``.
ADOPT_THEN_UNRELATED = [("adopt", "c", 2.0),
                        ("batch", [("a", 1.0), ("b", 1.0)]),
                        ("batch", [("e", 1.0)])]
#: dyn0, dyn1 (e·f) and dyn2 (b·c + d·f) are added in that order;
#: removing dyn0 swap-moves dyn2 ahead of dyn1, so bank order (q1, q2,
#: dyn2, dyn1) parts from ``f``'s registration order (q1, q2, dyn1,
#: dyn2).  A one-item batch doubling ``f`` moves all four and must
#: notify them in registration order.
SWAP_THEN_ONE_ITEM = [("add", 0), ("add", 1), ("add", 2), ("remove", 0),
                      ("batch", [("f", 2.0)]),
                      ("batch", [("e", 0.5), ("f", 0.5)])]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestReactionMatchesUnionPath:
    @given(ops=steps)
    @example(ops=ADOPT_THEN_UNRELATED)
    @example(ops=SWAP_THEN_ONE_ITEM)
    @example(ops=[("replay", "d", 1.25),
                  ("batch", [("a", 1.06), ("a", 0.94), ("e", 1.1)]),
                  ("restore",), ("batch", [("f", 1.1), ("c", 0.9)])])
    def test_same_notifications_state_and_journal(self, kernel, ops):
        with mock.patch.object(compiled, "whole_read", KERNELS[kernel]):
            pair = Pair()
            for op in ops:
                pair.step(op)

    def test_the_adopt_case_notifies_at_the_related_refresh(self, kernel):
        """The filter is not vacuous: the unrelated batch notifies nothing
        of q3, the refresh of ``e`` does."""
        with mock.patch.object(compiled, "whole_read", KERNELS[kernel]):
            pair = Pair()
            notes = [pair.step(op) for op in ADOPT_THEN_UNRELATED]
        assert "q3" not in dict(notes[1][0][0])
        assert "q3" in dict(notes[2][0][0])

    def test_one_item_batch_keeps_registration_order(self, kernel):
        """The order is not vacuous: four movers of one item, whose bank
        order differs from their registration order."""
        with mock.patch.object(compiled, "whole_read", KERNELS[kernel]):
            pair = Pair()
            notes = [pair.step(op) for op in SWAP_THEN_ONE_ITEM]
        shipped = pair.cores[0]
        names = [name for name, _ in notes[4][0][0]]
        assert names == ["q1", "q2", "dyn1", "dyn2"]
        assert sorted(names, key=shipped._position.__getitem__) != names
