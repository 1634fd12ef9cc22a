"""Query placement for the coordinator cluster: one home shard per query.

A cluster of coordinator shards partitions the item space, but a query
``P : B`` may read items owned by several shards.  The paper's answer
for many queries on separate planners is EQI (Section IV): plan every
query on its own at its *full* QAB and give each item the minimum
primary DAB over the queries that read it.  This module applies that at
the shard boundary: **placement decides where a whole query lives, and
items follow it.**  Every query has exactly one *home shard*, which runs
the original query object at its full budget ``B`` — so an N=1 cluster
and every co-hashing query are bit-identical to the single-coordinator
path — and every item the query reads that the home does not own is
*mirrored* there: the router forwards that item's refreshes to every
shard whose bank reads it, and each such shard runs its own DAB
filtering on the mirror.  The router's min-merge of the shards' primary
DABs then *is* EQI's per-item minimum, so sources are programmed with
the bounds one coordinator would have programmed, and the home's served
value satisfies ``|v - P(x)| <= B`` with nothing to add up.

The home is a pure function of ``(query, shard map)`` — like the map
itself — so router, supervisor, migrator and offline tools agree without
exchanging state: **rendezvous hashing over the query's spread.**  The
spread is the set of shards owning at least one of the query's items;
the home is the spread member with the largest BLAKE2b digest of
``name NUL shard``.  Restricting to the spread keeps a query whose items
co-hash where they live (zero mirrors — locality is used wherever it
exists); hashing the *name* balances load whatever the hub items do
(owner-plurality gives 27/73 on the benchmark bank because the hubs vote
identically in every query); rendezvous rather than ``hash % len`` gives
minimal movement — a migration changes a query's home only if it adds a
shard to, or removes one from, that query's spread, and then only
towards the entering or away from the leaving shard.  ``zlib.crc32``
must not replace BLAKE2b here: CRC is linear, so sequentially numbered
names collapse onto one shard (20/80 at 100 queries, 0/20 at 20).

Until PR 18 this module split a query's *terms* by the owner of each
term's first variable and planned every group at ``B/k`` (Half-and-Half,
Section III-B.1, at the shard boundary).  Nothing forced that split —
every foreign item of a term was already mirrored — and it cost 1.4x the
single coordinator's messages at two shards and more at four, so it was
removed rather than kept as a fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.queries.polynomial import PolynomialQuery

ShardOf = Callable[[str], int]


def home_shard(query: PolynomialQuery, shard_of: ShardOf) -> int:
    """The shard *query* lives on: rendezvous over its spread by name."""
    spread = sorted({shard_of(item) for item in query.variables})
    return max(spread, key=lambda shard: blake2b(
        f"{query.name}\0{shard}".encode(), digest_size=8).digest())


@dataclass(frozen=True)
class QueryDecomposition:
    """One query's placement: its home shard and what is mirrored there."""

    query: PolynomialQuery
    #: the shard that runs the query — the original object, at its full
    #: budget ``B``.
    home: int
    #: items the query reads but the home does not own.
    mirrored: Tuple[str, ...]


def decompose_query(query: PolynomialQuery, shard_of: ShardOf) -> QueryDecomposition:
    """Place *query* whole on its home shard; list what must be mirrored."""
    home = home_shard(query, shard_of)
    return QueryDecomposition(
        query=query, home=home,
        mirrored=tuple(item for item in query.variables
                       if shard_of(item) != home))


@dataclass(frozen=True)
class BankDecomposition:
    """A whole query bank's shard assignment.

    ``sub_queries_for[s]`` is the bank shard ``s`` runs — the queries
    homed there, each the original object.  ``items_needed[s]`` is every
    item shard ``s`` must receive refreshes for — owned or mirrored;
    shards absent from the mapping home no query and are never built (a
    coordinator core needs at least one query).  ``queries_per_shard[s]``
    counts shard ``s``'s queries and ``mirrored_items[s]`` lists, sorted,
    the foreign items mirrored to it (union over its queries).  A
    decomposition is never edited — :meth:`replace` builds a new one — so
    :meth:`of` computes all four tables once.
    """

    decompositions: Dict[str, QueryDecomposition]
    sub_queries_for: Dict[int, Tuple[PolynomialQuery, ...]]
    items_needed: Dict[int, Tuple[str, ...]]
    queries_per_shard: Dict[int, int]
    mirrored_items: Dict[int, Tuple[str, ...]]

    @classmethod
    def of(cls, decompositions: Dict[str, QueryDecomposition]
           ) -> "BankDecomposition":
        """Index *decompositions* by shard (plain dict work, no solves)."""
        per_shard: Dict[int, List[PolynomialQuery]] = {}
        needed: Dict[int, set] = {}
        mirrored: Dict[int, set] = {}
        for dec in decompositions.values():
            per_shard.setdefault(dec.home, []).append(dec.query)
            needed.setdefault(dec.home, set()).update(dec.query.variables)
            if dec.mirrored:
                mirrored.setdefault(dec.home, set()).update(dec.mirrored)
        return cls(
            decompositions=decompositions,
            sub_queries_for={shard: tuple(bank)
                             for shard, bank in sorted(per_shard.items())},
            items_needed={shard: tuple(sorted(items))
                          for shard, items in sorted(needed.items())},
            queries_per_shard={shard: len(bank)
                               for shard, bank in sorted(per_shard.items())},
            mirrored_items={shard: tuple(sorted(items))
                            for shard, items in sorted(mirrored.items())},
        )

    @property
    def active_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self.sub_queries_for))

    def queries_reading(self, item: str) -> Tuple[str, ...]:
        """Names of every query whose variables include *item*."""
        return tuple(sorted(
            name for name, dec in self.decompositions.items()
            if item in dec.query.variables
        ))

    def replace(self, updated: Mapping[str, QueryDecomposition]
                ) -> "BankDecomposition":
        """A new bank decomposition with *updated* queries swapped in.

        The live-resharding cutover path: after an item moves, only the
        queries reading it are placed again under the new map — every
        other query's decomposition object is carried over untouched
        (minimal movement at the bank level, mirroring
        :meth:`ShardMap.rebalance` at the item level).
        """
        unknown = sorted(set(updated) - set(self.decompositions))
        if unknown:
            raise SimulationError(
                f"cannot replace unknown queries: {unknown}")
        return BankDecomposition.of({**self.decompositions, **updated})


def decompose_bank(queries: Sequence[PolynomialQuery],
                   shard_of: ShardOf) -> BankDecomposition:
    """Place every query of a bank; queries must have unique names."""
    decompositions: Dict[str, QueryDecomposition] = {}
    for query in queries:
        if query.name in decompositions:
            raise SimulationError(
                f"duplicate query name {query.name!r}: placement and the "
                "router's served-value table are keyed on query names"
            )
        decompositions[query.name] = decompose_query(query, shard_of)
    return BankDecomposition.of(decompositions)


def recombine(partials: Mapping[int, float]) -> float:
    """A query's served value from a ``{shard: value}`` table.

    Residue of the ``B/k`` split, kept because ``benchmarks/perf`` times
    the router's notify path under this name: with one home per query the
    router hands it the home's single entry, which passes through
    verbatim (bit-identically).  Several entries sum in sorted shard
    order (deterministic floating point).
    """
    if not partials:
        raise SimulationError("cannot recombine an empty partial set")
    if len(partials) == 1:
        return float(next(iter(partials.values())))
    return float(sum(partials[shard] for shard in sorted(partials)))
