"""Query placement as properties: one home per query, wherever the map goes.

``repro.filters.shard_budget`` places every query whole on one *home
shard* — rendezvous hashing of the query's name over the shards that own
its items — and mirrors the rest of its items there.  These suites
generate banks, shard counts 1–8 and override histories (a map
mid-life, as :meth:`ShardMap.rebalance` leaves it) and check the
contract the router, the migrator and offline tools all lean on:

* **shape** — exactly one home, inside the query's spread, running the
  *original object* (so the budget is the full ``B``); the home is
  routed every item the query reads, and what is mirrored there is
  exactly what the home does not own;
* **purity** — the home depends on ``(query, map)`` only: not on bank
  order, and not on ``PYTHONHASHSEED`` (checked across interpreters);
* **minimal movement** — moving one item changes a home only for
  queries whose spread gained or lost a shard, and then only towards
  the gained or away from the lost one;
* **balance** — sequentially named queries land within ±25 % of the
  mean per shard (three standard deviations for small banks).  This is
  the property that rules out CRC32 as the rendezvous hash: CRC is
  linear, so short runs of sequential names collapse onto one shard.

Budget: the default ``ci`` profile keeps this in tier-1 seconds; set
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the >=200-example sweep (wired
into the nightly-properties CI job).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.filters.shard_budget import (  # noqa: E402
    decompose_bank,
    decompose_query,
)
from repro.queries import PolynomialQuery, QueryTerm  # noqa: E402
from repro.service.cluster.routing import ShardMap  # noqa: E402

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

SRC = str(Path(__file__).resolve().parents[3] / "src")

_names = st.text(alphabet="abcdefghij0123456789", min_size=0,
                 max_size=7).map(lambda tail: "n" + tail)


@st.composite
def banks_and_maps(draw):
    """``(queries, map)``: a uniquely named bank over generated items and
    a shard map with an arbitrary override history behind it."""
    shards = draw(st.integers(min_value=1, max_value=8))
    items = draw(st.lists(_names, min_size=1, max_size=24, unique=True))
    query_names = draw(st.lists(_names, min_size=1, max_size=12, unique=True))
    queries = []
    for name in query_names:
        terms = draw(st.lists(
            st.lists(st.sampled_from(items), min_size=1, max_size=3),
            min_size=1, max_size=4))
        queries.append(PolynomialQuery(
            [QueryTerm.product(1.0 + index, *variables)
             for index, variables in enumerate(terms)],
            qab=draw(st.floats(min_value=0.5, max_value=100.0)), name=name))
    overrides = draw(st.dictionaries(
        st.sampled_from(items), st.integers(min_value=0, max_value=shards - 1)))
    return queries, items, ShardMap(shards, overrides=overrides)


def _spread(query, shard_map):
    return {shard_map.shard_of(item) for item in query.variables}


class TestPlacementShape:
    @given(banks_and_maps())
    def test_one_home_in_the_spread_running_the_original_at_full_budget(
            self, drawn):
        queries, _, shard_map = drawn
        bank = decompose_bank(queries, shard_map.shard_of)
        assert set(bank.decompositions) == {q.name for q in queries}
        for query in queries:
            dec = bank.decompositions[query.name]
            home = dec.home
            assert home in _spread(query, shard_map)
            assert dec.query is query
            assert set(bank.items_needed[home]) >= set(query.variables)
            assert query in bank.sub_queries_for[home]
            foreign = tuple(item for item in query.variables
                            if shard_map.shard_of(item) != home)
            assert dec.mirrored == foreign
        assert sum(bank.queries_per_shard.values()) == len(queries)
        assert set(bank.queries_per_shard) == set(bank.active_shards)

    @given(banks_and_maps(), st.randoms(use_true_random=False))
    def test_placement_ignores_bank_order(self, drawn, random):
        queries, _, shard_map = drawn
        shuffled = list(queries)
        random.shuffle(shuffled)
        one = decompose_bank(queries, shard_map.shard_of)
        other = decompose_bank(shuffled, shard_map.shard_of)
        for query in queries:
            assert (one.decompositions[query.name].home
                    == other.decompositions[query.name].home)
            assert (decompose_query(query, shard_map.shard_of).home
                    == one.decompositions[query.name].home)
        assert one.items_needed == other.items_needed

    def test_placement_ignores_pythonhashseed(self):
        script = (
            "import json\n"
            "from repro.filters.shard_budget import decompose_bank\n"
            "from repro.service.cluster.routing import ShardMap\n"
            "from repro.workloads import scaled_scenario\n"
            "bank = scaled_scenario(query_count=40, item_count=24,\n"
            "    trace_length=3, source_count=4, query_kind='portfolio',\n"
            "    seed=5).queries\n"
            "print(json.dumps({k: {n: d.home for n, d in\n"
            "    decompose_bank(bank, ShardMap(k).shard_of)\n"
            "    .decompositions.items()} for k in (2, 3, 5)},\n"
            "    sort_keys=True))\n")
        seen = set()
        for hashseed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 check=True, capture_output=True, text=True,
                                 timeout=120).stdout
            assert json.loads(out)
            seen.add(out)
        assert len(seen) == 1


class TestMinimalMovement:
    @given(banks_and_maps(), st.data())
    def test_a_move_rehomes_only_through_the_spread(self, drawn, data):
        queries, items, base = drawn
        item = data.draw(st.sampled_from(items))
        target = data.draw(st.integers(min_value=0, max_value=base.shards - 1))
        moved = base.rebalance({item: target})
        for query in queries:
            old_home = decompose_query(query, base.shard_of).home
            new_home = decompose_query(query, moved.shard_of).home
            old_spread = _spread(query, base)
            new_spread = _spread(query, moved)
            if item not in query.variables:
                assert new_spread == old_spread
            if new_spread == old_spread:
                assert new_home == old_home
            elif new_home != old_home:
                gained, lost = new_spread - old_spread, old_spread - new_spread
                # Towards the entering shard, or away from the leaving one.
                assert new_home in gained or old_home in lost
                assert gained <= {target}
                assert lost <= {base.shard_of(item)}


class TestBalance:
    # 1 000 names over 4 shards is the headline; the small banks are
    # where a linear hash shows — CRC32 rendezvous puts 20 sequential
    # names 0/20 and 100 names 20/80 over two shards (and 10/40/40/10
    # over four) yet splits 1 000 names 250/250/250/250.
    @pytest.mark.parametrize("count, shards", [(20, 2), (100, 2), (100, 4),
                                               (1000, 4)])
    def test_sequential_names_spread_evenly(self, count, shards):
        # One item per shard, every query reads them all: the spread is
        # the whole cluster, so the name hash alone decides.
        shard_map = ShardMap(shards)
        per_shard = {}
        for index in range(200):
            per_shard.setdefault(shard_map.shard_of(f"x{index}"), f"x{index}")
        variables = [per_shard[sid] for sid in range(shards)]
        queries = [PolynomialQuery([QueryTerm.product(1.0, *variables)],
                                   qab=1.0, name=f"portfolio{index}")
                   for index in range(count)]
        counts = decompose_bank(queries, shard_map.shard_of).queries_per_shard
        mean = count / shards
        # ±25 % of the mean, or three binomial standard deviations where
        # the bank is too small for 25 % to mean anything.
        tolerance = max(0.25 * mean, 3.0 * (mean * (1 - 1 / shards)) ** 0.5)
        assert sum(counts.values()) == count
        for sid in range(shards):
            assert abs(counts.get(sid, 0) - mean) <= tolerance, counts
