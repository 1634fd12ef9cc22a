"""The DAB plane against the five copies it replaced.

:mod:`repro.service.source_plane` holds the sender rule (a
:class:`DabSendTable`) and the receiver rule (:func:`admit_newest`)
once; ``tests/oracle/dab_plane.py`` keeps the copies the coordinator
core, the cluster router, the Fig. 8(c) root relay, ``SourceNode`` and
``SourceAgent`` each carried before.  Hypothesis drives each shipped node
and its copy with the same sequence and holds them equal after every
step:

* senders — several voters, withdrawals and re-joins, bootstrap seeding,
  moves inside and beyond the 1e-9 relative tolerance, replayed
  ``bounds`` records (core), stale-vote drops (router): equal changed
  bounds and epochs, per-source updates in the same order, the same
  held state, journal records, registration replies and counters;
* receivers — reordered, duplicated, epoch-less and misrouted updates,
  seq floors: equal bounds, epochs and counters.

The relay's per-child port had no epoch rule to keep; it is held to the
rule itself: whatever order a child's changes arrive in, the root ends
on each item's newest one.
"""

import os
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import Trace, TraceSet
from repro.filters.assignment import DABAssignment
from repro.queries import parse_query
from repro.service.agent import SourceAgent
from repro.service.cluster.router import ClusterCoordinator
from repro.service.core import CoordinatorCore
from repro.simulation.dissemination import RootRelay, _RootPort
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import ZeroDelayModel
from repro.simulation.source import SourceNode
from tests.oracle.dab_plane import (
    AgentBounds,
    CoreBounds,
    RelayBounds,
    RouterBounds,
    SourceBounds,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

ITEMS = ("a", "b", "c", "d", "e")
VALUES = {"a": 10.0, "b": 20.0, "c": 5.0, "d": 8.0, "e": 12.0}
#: ``e`` has no source: a sender records it and ships it to nobody.
OWNER = {"a": 0, "b": 0, "c": 1, "d": 1}
QUERIES = (parse_query("1*a + 1*b + 1*c : 1", name="q0"),
           parse_query("1*c + 1*d + 1*e : 1", name="q1"),
           parse_query("1*a + 1*e : 1", name="q2"))

#: Bounds around three bases, each also nudged inside (5e-10) and beyond
#: (2e-9) the material-change tolerance, both ways.
bound = st.builds(lambda base, nudge: base * (1.0 + nudge),
                  st.sampled_from([0.25, 0.5, 1.0]),
                  st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, 2e-9, -2e-9]))


def ordered(update_map):
    """A ``{source: (bounds, epochs)}`` map, or a list of such pairs,
    with every order in it spelt out."""
    pairs = (update_map.items() if isinstance(update_map, dict)
             else update_map)
    return [(source, list(bounds.items()), list(epochs.items()))
            for source, (bounds, epochs) in pairs]


# -- the core ---------------------------------------------------------------------


class _Planner:
    """Plans each query with the primaries it is handed."""

    def __init__(self, primaries):
        self.primaries = primaries

    def plan(self, query, values, recompute_scale=1.0):
        return DABAssignment(primary={name: self.primaries[query.name][name]
                                      for name in query.variables})


class _Journal:
    def __init__(self):
        self.records = []

    def append(self, record):
        if record["t"] == "bounds":
            self.records.append(record)


core_step = st.one_of(
    st.tuples(st.just("vote"), st.integers(0, 2),
              st.fixed_dictionaries({name: bound for name in ITEMS})),
    st.tuples(st.just("withdraw"), st.integers(0, 2)),
    st.tuples(st.just("replay"),
              st.dictionaries(st.sampled_from(ITEMS + ("zz",)), bound),
              st.integers(0, 6)))


@given(seed=st.fixed_dictionaries({name: bound for name in ITEMS}),
       steps=st.lists(core_step, max_size=12))
def test_the_core_ships_what_its_old_diff_shipped(seed, steps):
    primaries = {query.name: {name: seed[name] for name in query.variables}
                 for query in QUERIES}
    core = CoordinatorCore(
        queries=list(QUERIES), planner=_Planner(primaries),
        metrics=MetricsCollector(recompute_cost=1.0), initial_values=VALUES,
        item_to_source=OWNER)
    old = CoreBounds(OWNER)
    assert core.bootstrap() == old.bootstrap(core.plans.values())
    core.journal = _Journal()
    for step in steps:
        if step[0] == "replay":
            _, bounds, epoch = step
            record = {"t": "bounds", "bounds": bounds,
                      "epochs": {name: epoch for name in bounds}}
            core.replay(record)
            old.replay_bounds(record, core.cache)
        else:
            query = QUERIES[step[1]]
            if step[0] == "vote":
                if query.name not in core.query_names:
                    core.add_query(query, plan=False)
                core.install_plan(query.name, DABAssignment(primary={
                    name: step[2][name] for name in query.variables}))
            elif len(core.queries) > 1 and query.name in core.query_names:
                core.remove_query(query.name)
            want = old.changed_bound_updates(core.plans.values())
            assert ordered(core.changed_bound_updates()) == ordered(want)
        assert list(core.dab_sent.sent.items()) == list(
            old._last_sent_bounds.items())
        assert list(core.dab_sent.epochs.items()) == list(old.epochs.items())
        assert core.journal.records == old.records
        assert core.metrics.dab_change_messages == old.dab_change_messages
        for source_id in (0, 1):
            assert ordered([(source_id, core.current_bounds_for(source_id))]) \
                == ordered([(source_id, old.current_bounds_for(source_id))])


# -- the router -------------------------------------------------------------------


def make_router():
    return ClusterCoordinator(
        shards={}, decomposition=types.SimpleNamespace(
            decompositions={}, items_needed={}),
        shard_map=None, item_to_source=OWNER)


router_step = st.one_of(
    st.tuples(st.just("vote"), st.integers(0, 2),
              st.dictionaries(st.sampled_from(ITEMS), bound),
              st.dictionaries(st.sampled_from(ITEMS), st.integers(0, 9))),
    st.tuples(st.just("drop"), st.sampled_from(ITEMS),
              st.sets(st.integers(0, 2))),
    st.tuples(st.just("register"), st.integers(0, 1)))


@given(steps=st.lists(router_step, max_size=16))
def test_the_router_ships_what_its_old_merge_shipped(steps):
    cluster, old = make_router(), RouterBounds(OWNER)
    for step in steps:
        if step[0] == "vote":
            _, sid, bounds, seqs = step
            message = {"bounds": bounds, "seqs": seqs}
            got = cluster._merge_shard_bounds(sid, message)
            want = old.push_changed_bounds(old.merge_shard_bounds(sid, message))
            assert ordered(got) == ordered(want)
        elif step[0] == "drop":
            _, item, keep = step
            cluster._item_shards[item] = tuple(sorted(keep))
            cluster.drop_stale_votes(item)
            old.drop_stale_votes(item, keep)
        else:
            source_id = step[1]
            owned = [name for name in ITEMS if OWNER.get(name) == source_id]
            assert ordered([(source_id, cluster.dab_sent.held(owned))]) == \
                ordered([(source_id, old.registration(source_id, ITEMS))])
        assert list(cluster.dab_sent.sent.items()) == list(
            old._effective_bounds.items())
        assert list(cluster.dab_sent.epochs.items()) == list(
            old.epochs.items())
        assert cluster._shard_bounds == old._shard_bounds
        assert cluster._floors.last_seq == old.last_seq


# -- the Fig. 8(c) root relay -----------------------------------------------------

RELAY_OWNER = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}


class _Seeded:
    def __init__(self, source_id, seeds):
        self.source_id = source_id
        self.seeds = seeds

    def set_bounds(self, bounds):
        self.seeds.append((self.source_id, dict(bounds)))


child_vote = st.tuples(st.integers(0, 2),
                       st.dictionaries(st.sampled_from(ITEMS), bound))


@given(before=st.lists(child_vote, min_size=1, max_size=4).filter(
           lambda votes: any(bounds for _, bounds in votes)),
       after=st.lists(child_vote, max_size=12))
def test_the_relay_ships_what_its_old_diff_shipped(before, after):
    queue, metrics = EventQueue(), MetricsCollector(recompute_cost=1.0)
    relay = RootRelay(queue, metrics, ZeroDelayModel(), VALUES, RELAY_OWNER)
    seeds = []
    relay.attach_sources([_Seeded(0, seeds), _Seeded(1, seeds)])
    old = RelayBounds(RELAY_OWNER, (0, 1))
    for child, bounds in before:
        relay.update_child_bounds(child, bounds)
        old.update_child_bounds(child, bounds)
    relay.bootstrap()
    old.bootstrap()
    assert seeds == old.seeds
    for time, (child, bounds) in enumerate(after):
        relay.update_child_bounds(child, bounds, time=float(time))
        old.update_child_bounds(child, bounds)
    sent = []
    while queue:
        payload = queue.pop().payload
        sent.append((payload["source_id"], list(payload["bounds"].items()),
                     list(payload["epochs"].items())))
    assert sent == [(source, list(bounds.items()), list(epochs.items()))
                    for source, bounds, epochs in old.messages]
    assert metrics.dab_change_messages == len(old.messages)
    assert relay.dab_sent.sent == old._last_sent
    assert relay.dab_sent.epochs == old.epochs


# -- receivers --------------------------------------------------------------------

MINE = ("a", "b", "c")
#: Epochs from 0: a registration reply programs a never-changed bound
#: under epoch 0.
update = st.tuples(
    st.dictionaries(st.sampled_from(MINE + ("zz",)), bound),
    st.dictionaries(st.sampled_from(MINE + ("zz",)), st.integers(0, 4)))


def make_source():
    traces = TraceSet([Trace(name, np.array([VALUES[name]] * 3))
                       for name in MINE])
    return SourceNode(0, MINE, traces, EventQueue(),
                      MetricsCollector(recompute_cost=1.0), ZeroDelayModel())


@given(updates=st.lists(st.tuples(update, st.booleans()), max_size=12))
def test_a_source_applies_what_its_old_rule_applied(updates):
    node, old = make_source(), SourceBounds(MINE)
    for (bounds, epochs), bootstrap in updates:
        # A bound the epochs map lacks, and a whole update without one
        # (the bootstrap path), apply unconditionally.
        node.set_bounds(bounds, None if bootstrap else epochs)
        old.set_bounds(bounds, None if bootstrap else epochs)
        assert node.push.bounds == old.bounds
        assert node.push.epochs == old.epochs
        assert node.push.limits == [
            old.bounds.get(name, -float("inf")) for name in MINE]
        assert node.metrics.duplicate_rejects == old.duplicate_rejects
        assert node.metrics.misrouted_bounds == old.misrouted_bounds


@given(updates=st.lists(st.tuples(
           st.dictionaries(st.sampled_from(MINE + ("zz",)), bound),
           st.integers(0, 4),
           st.dictionaries(st.sampled_from(MINE + ("zz",)),
                           st.integers(0, 9))), max_size=12))
def test_an_agent_applies_what_its_old_rule_applied(updates):
    # Every sender writes an epoch for each bound it ships.
    agent = SourceAgent(0, MINE, VALUES)
    old = AgentBounds(MINE)
    for bounds, epoch, seqs in updates:
        epochs = {name: epoch for name in bounds}
        agent.apply_dab_update(bounds, epochs, seqs)
        old.apply_dab_update(bounds, epochs, seqs)
        assert agent.push.bounds == old.bounds
        assert agent.push.epochs == old.epochs
        assert agent.push.seq == old.seq
        for counter, count in old.stats.items():
            assert agent.stats[counter] == count


def test_an_agent_applies_a_bound_that_carries_no_epoch():
    """The one rule for every receiver: a bound without an epoch applies
    (the agent's copy read it as epoch 0; no sender omits one)."""
    agent = SourceAgent(0, MINE, VALUES)
    agent.apply_dab_update({"a": 1.0}, {"a": 3})
    agent.apply_dab_update({"a": 0.5}, {})
    assert agent.push.bounds == {"a": 0.5}
    assert agent.push.epochs == {"a": 3}


@given(changes=st.lists(st.dictionaries(st.sampled_from(ITEMS), bound,
                                        min_size=1), min_size=1, max_size=6),
       order=st.randoms(use_true_random=False),
       repeats=st.lists(st.integers(0, 5), max_size=4))
def test_the_root_port_ends_on_each_items_newest_bound(changes, order,
                                                       repeats):
    relay = RootRelay(EventQueue(), MetricsCollector(recompute_cost=1.0),
                      ZeroDelayModel(), VALUES, RELAY_OWNER)
    port = _RootPort(relay, 0)
    port.set_bounds(dict.fromkeys(ITEMS, 2.0))
    relay.bootstrap()
    # The child's changes, epoch k for the k-th, delivered shuffled and
    # with some delivered twice.
    deliveries = list(range(len(changes))) + [
        k for k in repeats if k < len(changes)]
    order.shuffle(deliveries)
    for k in deliveries:
        port.on_dab_change(Event(1.0, EventKind.DAB_CHANGE_ARRIVAL, {
            "source_id": port.source_id, "bounds": changes[k],
            "epochs": dict.fromkeys(changes[k], k + 1)}))
    newest = dict.fromkeys(ITEMS, 2.0)
    for bounds in changes:
        newest.update(bounds)
    assert relay.filters[0].bounds == newest
