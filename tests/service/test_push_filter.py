"""The push rule against the two copies it replaced.

:class:`repro.service.source_plane.PushTable` holds the source side of
the paper once: which items cross their window, and the seq bump and
recentre a push, a crash resync and a probe answer each make.
``tests/oracle/push_filter.py`` keeps the copies ``SourceNode`` and
``SourceAgent`` each carried before.  Hypothesis drives each adapter and
its copy with the same value sequences, partial updates, stale,
duplicate, epoch-less and unknown-item DAB updates, seq floors, probes
and resyncs, and holds the refreshes, seqs, centres and counters equal
after every step.  Values and bounds sit on a half-unit grid, so a drift
exactly equal to its bound (which must not push) comes up often.

The copies disagreed on an item with no DAB (the node stayed silent, the
agent forwarded it); the table forwards it, and that case has its own
test.
"""

import asyncio
import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import Trace, TraceSet
from repro.service.agent import SourceAgent
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.faults import CrashWindow, FaultConfig, FaultModel
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import ZeroDelayModel
from repro.simulation.source import SourceNode
from tests.oracle.push_filter import AgentFilter, NodeFilter

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

MINE = ("a", "b", "c")
#: Items the source does not hold: updates for them are misrouted.
OTHER = ("zz",)
VALUES = {"a": 10.0, "b": 10.5, "c": 9.5}
TICKS = 12

value = st.integers(-3, 3).map(lambda k: 10.0 + 0.5 * k)
bound = st.sampled_from([0.0, 0.5, 1.0, 1.5, math.inf])
bounds = st.dictionaries(st.sampled_from(MINE + OTHER), bound)
#: An epoch map that may lack some bounded items (they apply unguarded).
epochs = st.dictionaries(st.sampled_from(MINE + OTHER), st.integers(0, 4))


def recorded(node):
    """``node`` with its network replaced by a list of what it sent."""
    sent = []
    node._send = lambda time, kind, payload: sent.append((time, kind, payload))
    return sent


def counters(metrics):
    return (metrics.misrouted_bounds, metrics.duplicate_rejects,
            metrics.recovery_resyncs, metrics.heartbeats,
            metrics.messages_dropped)


def nodes(series, crashes=()):
    """The shipped node and its copy over ``series`` (ticks × items)."""
    slab = np.array(series, dtype=float)
    traces = TraceSet([Trace(name, slab[:, i]) for i, name in enumerate(MINE)])
    faults = (FaultModel(FaultConfig(
        crash_windows=tuple(CrashWindow(0, float(start), float(start + span))
                            for start, span in crashes),
        heartbeat_interval=3.0)) if crashes else None)
    node = SourceNode(0, MINE, traces, EventQueue(),
                      MetricsCollector(recompute_cost=1.0), ZeroDelayModel(),
                      fault_model=faults)
    old = NodeFilter(0, MINE, slab, MetricsCollector(recompute_cost=1.0),
                     fault_model=faults)
    return node, recorded(node), old


node_step = st.tuples(
    st.one_of(st.none(), st.tuples(bounds, st.one_of(st.none(), epochs))),
    st.one_of(st.none(), st.sampled_from(MINE + OTHER)))


@given(series=st.lists(st.tuples(value, value, value), min_size=TICKS + 1,
                       max_size=TICKS + 1),
       seed_bound=bound,
       steps=st.lists(node_step, min_size=TICKS, max_size=TICKS),
       crashes=st.lists(st.tuples(st.integers(1, TICKS), st.integers(1, 4)),
                        max_size=2))
def test_a_node_pushes_what_its_old_rule_pushed(series, seed_bound, steps,
                                                crashes):
    node, sent, old = nodes(series, crashes)
    # The bootstrap bounds every item before the first tick (the
    # copies agree on bounded items only).
    node.set_bounds(dict.fromkeys(MINE, seed_bound))
    old.set_bounds(dict.fromkeys(MINE, seed_bound))
    for tick, (update, probe) in enumerate(steps, start=1):
        if update is not None:
            node.set_bounds(*update)
            old.set_bounds(*update)
        if probe is not None:
            event = Event(tick - 0.5, EventKind.VALUE_PROBE_ARRIVAL,
                          {"item": probe, "source_id": 0})
            node.on_value_probe(event)
            old.on_value_probe(event)
        node.on_tick(tick)
        old.on_tick(tick)
        assert sent == old.sent
        assert node.push.seq == old.seq
        assert node.push.centres == [old.last_pushed[name]
                                              for name in MINE]
        assert node.push.bounds == old.bounds
        assert node.push.epochs == old.epochs
        assert counters(node.metrics) == counters(old.metrics)


class _Recording:
    """A stream that keeps what is sent on it."""

    def __init__(self):
        self.frames = []

    async def send(self, message):
        self.frames.append(message)


#: One step: maybe a DAB update (with maybe seq floors), maybe a resync
#: mark, a partial tick, then maybe a probe.
agent_step = st.tuples(
    st.one_of(st.none(), st.tuples(bounds, epochs, st.one_of(
        st.none(), st.dictionaries(st.sampled_from(MINE + OTHER),
                                   st.integers(0, 9))))),
    st.booleans(),
    st.dictionaries(st.sampled_from(MINE + OTHER), value),
    st.lists(st.sampled_from(MINE + OTHER), max_size=3))


def probe_answer(agent, items):
    """The refreshes ``agent`` answers a probe of ``items`` with."""
    stream = _Recording()
    asyncio.run(agent._answer_probe(items, stream))
    if not stream.frames:
        return []
    (frame,) = stream.frames
    assert frame["resync"] is True
    return list(zip(frame["items"], frame["values"], frame["seqs"]))


@given(seed_bound=st.one_of(st.none(), bound),
       steps=st.lists(agent_step, max_size=12))
def test_an_agent_pushes_what_its_old_rule_pushed(seed_bound, steps):
    agent, old = SourceAgent(0, MINE, VALUES), AgentFilter(MINE, VALUES)
    if seed_bound is not None:
        # A registration reply: every item bounded under epoch 0.
        agent.apply_dab_update(dict.fromkeys(MINE, seed_bound),
                               dict.fromkeys(MINE, 0))
        old.apply_dab_update(dict.fromkeys(MINE, seed_bound),
                             dict.fromkeys(MINE, 0))
    for update, resync, tick, probe in steps:
        if update is not None:
            agent.apply_dab_update(*update)
            old.apply_dab_update(*update)
        if resync:
            agent.push.resync_all()
            old.resync_all()
        assert agent.pending_refreshes(tick) == old.pending_refreshes(tick)
        if probe:
            assert probe_answer(agent, probe) == [
                (item, value, seq)
                for item, value, seq, _ in old.answer_probe(probe)]
        assert agent.values == old.values
        assert agent.push.seq == old.seq
        assert agent.push.centres == [old.sent_values[name]
                                      for name in agent.items]
        assert agent.push.bounds == old.bounds
        assert agent.push.epochs == old.epochs
        for counter, count in old.stats.items():
            assert agent.stats[counter] == count


def test_an_item_without_a_bound_is_forwarded_by_every_source():
    """The one DAB-less rule is the agent's fail-safe: an item with no
    bound yet is pushed on every change, by the node too (whose copy
    stayed silent) — never silently suppressed."""
    series = [[10.0, 10.5, 9.5], [10.5, 10.5, 9.5], [11.0, 10.5, 9.5]]
    node, sent, old = nodes(series)
    node.set_bounds({"b": 1.0, "c": 1.0})
    old.set_bounds({"b": 1.0, "c": 1.0})
    agent, old_agent = SourceAgent(0, MINE, VALUES), AgentFilter(MINE, VALUES)
    agent.apply_dab_update({"b": 1.0, "c": 1.0}, {"b": 1, "c": 1})
    old_agent.apply_dab_update({"b": 1.0, "c": 1.0}, {"b": 1, "c": 1})
    for tick in (1, 2):
        node.on_tick(tick)
        old.on_tick(tick)
        updates = dict(zip(MINE, series[tick]))
        assert [refresh.item for refresh in agent.pending_refreshes(updates)] \
            == [refresh.item for refresh in old_agent.pending_refreshes(updates)] \
            == ["a"]
    assert [(payload["item"], payload["value"], payload["seq"])
            for _, _, payload in sent] == [("a", 10.5, 1), ("a", 11.0, 2)]
    assert old.sent == []
