"""The router's served-value table as a state machine.

The cluster router keeps two dicts per query — ``_home`` (its home shard)
and ``_served`` (the value subscribers were last pushed) — under two
rules: a NOTIFY or seed SNAPSHOT from shard ``s`` writes a query iff
``s`` is its home, and a query whose home changed loses its entry until
``announce_rehomed`` installs the new home's.  All of it is dict work, so
the machine below drives ``_on_shard_notify``, the trunk's seed path,
``apply_cutover`` and ``announce_rehomed`` directly — no event loop, no
shard servers — through arbitrary interleavings, and after every rule the
table must say exactly this: *the served value of a query is the last
value its current home sent or announced, or absent — never an
ex-home's.*  Every value in a run is distinct, so an ex-home's value
cannot pass for the home's.

Mutation-checked: admitting a non-home write (dropping the ``_home``
test in ``_on_shard_notify`` or in the seed path) and skipping the
cutover's delete each fail it.
"""

import itertools
import os
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.filters.shard_budget import (  # noqa: E402
    QueryDecomposition,
    decompose_bank,
)
from repro.queries import parse_query  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.cluster.router import (  # noqa: E402
    ClusterCoordinator,
    _ShardTrunk,
)
from repro.service.cluster.routing import ShardMap  # noqa: E402
from repro.service.transports import inprocess_pair  # noqa: E402

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

SHARDS = 3
QUERIES = [parse_query("x0*x1 + x2 : 2", name="a"),
           parse_query("x3*x4 : 3", name="b"),
           parse_query("x1*x5 + x6*x7 : 4", name="c")]
NAMES = [query.name for query in QUERIES]

names = st.sampled_from(NAMES)
shards = st.integers(min_value=0, max_value=SHARDS - 1)


class ServedTable(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        shard_map = ShardMap(SHARDS)
        # A shard only has to hand its trunk a link: nothing is sent.
        idle = SimpleNamespace(connect_loopback=lambda: inprocess_pair()[0])
        self.cluster = ClusterCoordinator(
            shards={sid: idle for sid in range(SHARDS)},
            decomposition=decompose_bank(QUERIES, shard_map.shard_of),
            shard_map=shard_map, item_to_source={}, queries=QUERIES)
        self.trunks = {sid: _ShardTrunk(self.cluster, sid)
                       for sid in range(SHARDS)}
        self.fresh = map(float, itertools.count(1))
        #: the model: query -> home, and query -> the last value that
        #: home sent or announced since it became the home.
        self.home = {name: dec.home for name, dec
                     in self.cluster.decomposition.decompositions.items()}
        self.served = {}

    def _stamps(self, sid):
        # A current-epoch frame from ``sid`` (stale ones are fenced
        # before they reach the table — test_client.py's TestTrunkAdmission).
        return dict(shard=sid, map_epoch=self.cluster.map_epoch or None)

    def _notify(self, sid, name):
        value = next(self.fresh)
        self.cluster._on_shard_notify(sid, protocol.notify(
            [{"query": name, "value": value}], **self._stamps(sid)))
        return value

    @rule(name=names)
    def notify_from_the_home(self, name):
        self.served[name] = self._notify(self.home[name], name)

    @rule(name=names, offset=st.integers(min_value=1, max_value=SHARDS - 1))
    def notify_from_a_non_home(self, name, offset):
        self._notify((self.home[name] + offset) % SHARDS, name)

    @rule(sid=shards, subset=st.sets(names))
    def seed_snapshot(self, sid, subset):
        values = {name: next(self.fresh) for name in sorted(subset)}
        self.trunks[sid]._on_snapshot(protocol.snapshot(
            values=values, **self._stamps(sid)))
        for name, value in values.items():
            if self.home[name] == sid:
                self.served[name] = value

    def _cutover(self, name, home):
        dec = self.cluster.decomposition.decompositions[name]
        self.cluster.apply_cutover(
            self.cluster.shard_map.rebalance({}),
            {name: QueryDecomposition(dec.query, home, dec.mirrored)})

    @rule(name=names)
    def cutover_that_keeps_the_home(self, name):
        self._cutover(name, self.home[name])

    @rule(name=names, offset=st.integers(min_value=1, max_value=SHARDS - 1))
    def cutover_that_rehomes(self, name, offset):
        self.home[name] = (self.home[name] + offset) % SHARDS
        self.served.pop(name, None)
        self._cutover(name, self.home[name])

    @rule(subset=st.sets(names, min_size=1))
    def announce(self, subset):
        values = {name: next(self.fresh) for name in sorted(subset)}
        self.cluster.announce_rehomed(values)
        self.served.update(values)

    @invariant()
    def only_the_current_home_speaks(self):
        assert self.cluster._home == self.home
        assert self.cluster._served == self.served
        assert {name: dec.home for name, dec in
                self.cluster.decomposition.decompositions.items()} == self.home


TestServedTable = ServedTable.TestCase
