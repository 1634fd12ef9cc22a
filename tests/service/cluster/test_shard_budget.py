"""Query placement (one home per query): soundness and identity cases."""

from hashlib import blake2b

import pytest

from repro.exceptions import SimulationError
from repro.filters.shard_budget import (
    decompose_bank,
    decompose_query,
    recombine,
)
from repro.queries import PolynomialQuery, parse_query
from repro.service.cluster.routing import ShardMap


def shard_of_2(item):
    return ShardMap(2).shard_of(item)


def shard_of_4(item):
    return ShardMap(4).shard_of(item)


def expected_home(query, shard_of):
    """The placement rule, spelled out: rendezvous over the spread by
    BLAKE2b of ``name NUL shard`` (placement hashes the *name*, so every
    query whose home is asserted is parsed with an explicit one)."""
    spread = sorted({shard_of(v) for v in query.variables})
    return max(spread, key=lambda s: blake2b(
        f"{query.name}\0{s}".encode(), digest_size=8).digest())


class TestDecomposeQuery:
    def test_single_home_shard_keeps_original_object(self):
        # x0..x3 all co-hash to shard 1 at two shards: the query lives
        # there with nothing mirrored, and what the shard runs is the
        # original object verbatim (same terms, same full budget B) — the
        # bit-identity guarantee.
        query = parse_query("x0*x1 + 2 x2*x3 : 5")
        dec = decompose_query(query, shard_of_2)
        assert dec.home == 1
        assert dec.query is query
        assert dec.mirrored == ()

    def test_cross_shard_split_budgets_sum_to_qab(self):
        # A query whose items span several shards still gets ONE home,
        # inside its spread, running the original object — so its budget
        # there is B, undivided.
        query = parse_query("x0*x1 + x2*x3 + x15*x1 : 6", name="spanning")
        spread = {shard_of_4(v) for v in query.variables}
        assert len(spread) > 1
        dec = decompose_query(query, shard_of_4)
        assert dec.home in spread
        assert dec.home == expected_home(query, shard_of_4)
        assert dec.query is query
        assert dec.query.qab == 6.0

    def test_sub_queries_keep_the_original_name(self):
        query = parse_query("x0*x1 + x2*x3 + x15*x1 : 6")
        bank = decompose_bank([query], shard_of_4)
        home = bank.decompositions[query.name].home
        assert bank.sub_queries_for == {home: (query,)}
        assert [sub.name for sub in bank.sub_queries_for[home]] == [query.name]

    def test_sub_query_evaluations_sum_to_original(self):
        query = parse_query("3 x0*x1 - 2 x2*x3 + x15 : 6")
        values = {"x0": 2.0, "x1": 3.0, "x2": 1.5, "x3": 4.0, "x15": 7.0}
        dec = decompose_query(query, shard_of_4)
        parts = {dec.home: dec.query.evaluate(values)}
        assert recombine(parts) == query.evaluate(values)

    def test_mirrored_items_are_foreign_reads(self):
        # x0 lives on shard 1 of 4 and x1 on shard 3: whichever of the
        # two the name picks as home must mirror the other's item.
        query = parse_query("x0*x1 : 2", name="pair")
        owners = {"x0": shard_of_4("x0"), "x1": shard_of_4("x1")}
        assert owners == {"x0": 1, "x1": 3}
        dec = decompose_query(query, shard_of_4)
        home = expected_home(query, shard_of_4)
        assert dec.home == home
        assert dec.mirrored == tuple(
            v for v in ("x0", "x1") if owners[v] != home)


class TestDecomposeBank:
    def test_items_needed_covers_owned_and_mirrored(self):
        queries = [parse_query("x0*x1 : 2", name="pair"),
                   parse_query("x2*x3 : 3")]
        bank = decompose_bank(queries, shard_of_4)
        for query in queries:
            dec = bank.decompositions[query.name]
            assert set(query.variables) <= set(bank.items_needed[dec.home])
        # "pair" reads x0 (shard 1) and x1 (shard 3): one is mirrored at
        # its home, and the bank's per-shard view says so.
        pair = bank.decompositions["pair"]
        assert len(pair.mirrored) == 1
        assert set(pair.mirrored) <= set(bank.mirrored_items[pair.home])

    def test_empty_shards_are_absent(self):
        bank = decompose_bank([parse_query("x0*x2 : 2")], shard_of_4)
        # both items hash to shard 1 → only shard 1 is active.
        assert bank.active_shards == (1,)
        assert 0 not in bank.sub_queries_for

    def test_duplicate_names_rejected(self):
        one = parse_query("x0*x1 : 2")
        clash = parse_query("x2*x3 : 2")
        clash = PolynomialQuery(clash.terms, clash.qab, name=one.name)
        with pytest.raises(SimulationError):
            decompose_bank([one, clash], shard_of_4)


class TestRecombine:
    def test_single_partial_is_verbatim(self):
        value = 0.1 + 0.2                 # a float with representation error
        assert recombine({3: value}) == value

    def test_sums_in_sorted_shard_order(self):
        parts = {2: 0.1, 0: 0.2, 1: 0.3}
        assert recombine(parts) == (0.2 + 0.3 + 0.1)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            recombine({})
