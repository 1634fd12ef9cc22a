"""The flat bank's term-product table as a state machine, bit for bit.

:class:`~repro.queries.compiled.CompiledQueryBank` keeps every term
product between evaluations and re-multiplies only the terms that read a
written item.  That is exact only while the table sees every write and
every membership edit, so this suite drives generated banks through
generated op sequences — writes followed by the per-item read (a refresh),
writes followed by *nothing* (a hand-off, a replayed value), adds (new
items, new exponent slots, more terms than any query before), removes
(first, middle, last: swap-remove), per-item and whole-bank reads — and
compares every value the bank returns with ``query.evaluate`` on
``float.hex()``: the equivalence contract of DESIGN.md §8.2, including a
query of more than eight terms (where a pairwise sum would part from the
sequential one) and a first term product of ``-0.0`` (where a sum that
does not start from ``+0.0`` would).

The last class replays two sweeps of the ``steady_fanout`` benchmark
workload's filtered refresh stream through a live core and checks each
refresh's values against the evaluator the table replaced (one stacked
gather / reduce / scatter over *all* terms of the queries reading the
item), kept here as the oracle.

Budget: the default ``ci`` profile keeps this in tier-1 seconds; set
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the >=200-example sweep (wired
into the nightly-properties CI job).
"""

import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.queries import PolynomialQuery, QueryTerm
from repro.queries.compiled import (
    CompiledPolynomial,
    CompiledQueryBank,
    PowerTable,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

#: The initial bank reads ``x0``–``x4`` at exponents 1–2 only; ``x5``–``x7``
#: and exponent 3 are what an added query can bring that is new.
ITEMS = tuple(f"x{i}" for i in range(8))
OLD_ITEMS = ITEMS[:5]


def _terms(items, max_exponent, max_terms):
    term = st.tuples(
        st.floats(0.25, 4.0).flatmap(
            lambda w: st.sampled_from([w, -w])),
        st.dictionaries(st.sampled_from(items),
                        st.integers(1, max_exponent),
                        min_size=1, max_size=3))
    return st.lists(term, min_size=1, max_size=max_terms,
                    unique_by=lambda t: tuple(sorted(t[1].items())))


INITIAL_BANKS = st.lists(_terms(OLD_ITEMS, 2, 6), min_size=1, max_size=5)

#: Finite, signed, and exactly zero now and then: a zero factor under a
#: negative weight is the ``-0.0`` product.
VALUES = st.one_of(st.floats(0.1, 50.0), st.floats(-50.0, -0.1),
                   st.just(0.0))

OPS = st.one_of(
    # A refresh: the write, then the per-item read that reacts to it.
    st.tuples(st.just("refresh"), st.sampled_from(ITEMS), VALUES),
    # A write nothing reads afterwards (adopt_item, restore_cache_value).
    st.tuples(st.just("write"), st.sampled_from(ITEMS), VALUES),
    st.tuples(st.just("add"), _terms(ITEMS, 3, 12)),
    st.tuples(st.just("remove"), st.sampled_from(["first", "middle", "last"])),
    st.tuples(st.just("read"), st.sampled_from(ITEMS)),
    st.tuples(st.just("read_all")),
)


def _hex(values):
    return [float(value).hex() for value in values]


class Machine:
    """A bank, and beside it the plain model it must agree with: the live
    queries in bank order (swap-remove) and an ``{item: value}`` dict."""

    def __init__(self, bank_terms):
        self.values = {name: 2.0 + 1.5 * i for i, name in enumerate(ITEMS)}
        self.table = PowerTable()
        self.queries = []
        self.compiled = []
        for terms in bank_terms:
            self._compile(terms)
        self.pvec = self.table.vector(self.values)
        self.bank = CompiledQueryBank(self.compiled)

    def _compile(self, terms):
        query = PolynomialQuery(
            [QueryTerm(weight, exponents) for weight, exponents in terms],
            qab=1.0)
        self.queries.append(query)
        self.compiled.append(CompiledPolynomial(query, self.table))
        return self.compiled[-1]

    def _grow_vector(self):
        """``CoordinatorCore._sync_power_vector``: a new, longer array
        whenever a compilation registered slots."""
        old = self.pvec
        if old.shape[0] == len(self.table):
            return
        grown = np.empty(len(self.table))
        grown[: old.shape[0]] = old
        for i in range(old.shape[0] - 1, len(self.table.pairs)):
            name, exponent = self.table.pairs[i]
            grown[i + 1] = self.values[name] ** exponent
        self.pvec = grown

    # -- ops ---------------------------------------------------------------------

    def write(self, item, value):
        self.values[item] = value
        self.bank.write(self.pvec, item, value)

    def add(self, terms):
        one = self._compile(terms)
        self._grow_vector()
        self.bank.add_query(one, self.pvec)

    def remove(self, which):
        if len(self.queries) == 1:
            return
        last = len(self.queries) - 1
        position = {"first": 0, "middle": last // 2, "last": last}[which]
        self.bank.remove_query(position)
        for column in (self.queries, self.compiled):
            column[position] = column[last]
            column.pop()

    # -- checks ------------------------------------------------------------------

    def expected(self):
        return [query.evaluate(self.values) for query in self.queries]

    def check_item(self, item):
        expected = self.expected()
        positions = self.bank.affected(item).tolist()
        assert sorted(positions) == [
            i for i, query in enumerate(self.queries)
            if item in query.variables]
        got = self.bank.values_vector(self.pvec, item)
        assert _hex(got) == _hex(expected[i] for i in positions), item

    def check_all(self):
        assert len(self.bank) == len(self.queries)
        assert _hex(self.bank.values_vector(self.pvec)) == \
            _hex(self.expected())

    def check_everything(self, all_first):
        if all_first:
            self.check_all()
        for item in ITEMS:
            self.check_item(item)
        self.check_all()

    def run(self, ops, all_first=False):
        for op in ops:
            kind = op[0]
            if kind == "write":
                # Deliberately unchecked: the next op meets a table that
                # has not multiplied this write in yet.
                self.write(op[1], op[2])
                continue
            if kind == "refresh":
                self.write(op[1], op[2])
                self.check_item(op[1])
            elif kind == "add":
                self.add(op[1])
            elif kind == "remove":
                self.remove(op[1])
            elif kind == "read":
                self.check_item(op[1])
            else:
                self.check_all()
            self.check_everything(all_first)
        self.check_everything(all_first)


#: Ten distinct terms (like terms would be combined away).
TEN_TERMS = [(0.1 * (k + 1) * (-1) ** k,
              {f"x{k % 5}": 1 + k // 5, f"x{(k + 2) % 5}": 2})
             for k in range(10)]


class TestTableStateMachine:
    @given(bank=INITIAL_BANKS, ops=st.lists(OPS, max_size=16),
           all_first=st.booleans())
    # Unpaired writes, then a membership edit, before anything is read.
    @example(bank=[[(1.0, {"x0": 1, "x1": 1})], [(2.0, {"x1": 2})]],
             ops=[("write", "x1", 7.5), ("write", "x0", 3.25),
                  ("add", [(1.5, {"x1": 1, "x5": 3})]),
                  ("write", "x5", 9.0), ("remove", "first"),
                  ("write", "x1", 0.5)],
             all_first=True)
    # Ten terms into a bank whose deepest query had one (a new column per
    # term, and a sum a pairwise reduction would get wrong).
    @example(bank=[[(1.0, {"x0": 1})]],
             ops=[("add", TEN_TERMS), ("refresh", "x2", 17.125),
                  ("remove", "first"), ("refresh", "x0", 0.3)],
             all_first=False)
    # Every product of the deepest query is ``-0.0`` (no pad cell adds a
    # ``+0.0`` behind them); its value is ``+0.0``.
    @example(bank=[[(-2.0, {"x3": 1}), (-1.0, {"x3": 2})], [(3.0, {"x4": 1})]],
             ops=[("refresh", "x3", 0.0), ("write", "x3", -0.0),
                  ("read_all",)],
             all_first=False)
    def test_every_read_is_bitwise_the_scalar_value(self, bank, ops,
                                                    all_first):
        Machine(bank).run(ops, all_first)

    def test_more_than_eight_terms_sum_sequentially(self):
        """The case only a >= 9-term query can catch: its sequential sum
        differs from numpy's pairwise one, so the test is not vacuous."""
        machine = Machine([TEN_TERMS])
        rng = np.random.default_rng(5)
        differed = False
        for _ in range(40):
            item = ITEMS[int(rng.integers(5))]
            machine.write(item, float(rng.uniform(0.1, 50.0)))
            machine.check_item(item)
            products = np.array(machine.bank.products(machine.pvec)[0])
            differed |= (float(np.sum(products))
                         != machine.expected()[0])
        assert differed

    def test_negative_zero_product_sums_to_positive_zero(self):
        machine = Machine([[(-2.0, {"x3": 1})]])
        machine.write("x3", 0.0)
        assert machine.bank.products(machine.pvec)[0][0].hex() == "-0x0.0p+0"
        machine.check_item("x3")
        assert machine.bank.values_vector(machine.pvec).tolist()[0].hex() \
            == "0x0.0p+0"

    def test_foreign_vector_is_not_trusted(self):
        """A read from a vector the table was not multiplied from
        recomputes everything; a grown copy of it is adopted."""
        machine = Machine([[(1.0, {"x0": 1, "x1": 2})], [(3.0, {"x1": 1})]])
        machine.check_all()
        machine.values["x1"] = 11.0
        machine.pvec = machine.table.vector(machine.values)
        machine.check_everything(all_first=False)
        # Written behind the bank's back, into a *copy*: still caught.
        machine.values["x0"] = 0.75
        machine.pvec = machine.pvec.copy()
        machine.table.update(machine.pvec, "x0", 0.75)
        machine.check_everything(all_first=True)


class _StackedBank:
    """The evaluator the table replaced, verbatim in what it computes: all
    term rows of the given queries stacked, one gather, one
    ``multiply.reduce``, a scatter into a (query, position) matrix and a
    column-by-column sum.  The core kept one per item, over the queries
    reading the item."""

    def __init__(self, compiled):
        width = max(one._gather.shape[1] for one in compiled)
        rows = sum(one._gather.shape[0] for one in compiled)
        self._gather = np.zeros((rows, width), dtype=np.intp)
        self._factors = np.ones((rows, width + 1))
        self._scatter_rows = np.zeros(rows, dtype=np.intp)
        self._scatter_cols = np.zeros(rows, dtype=np.intp)
        start = depth = 0
        for q, one in enumerate(compiled):
            n, w = one._gather.shape
            self._gather[start:start + n, :w] = one._gather
            self._factors[start:start + n, 0] = one._factors[:, 0]
            self._scatter_rows[start:start + n] = q
            self._scatter_cols[start:start + n] = np.arange(n)
            start += n
            depth = max(depth, n)
        self._matrix = np.zeros((len(compiled), depth))

    def values_vector(self, pvec):
        self._factors[:, 1:] = pvec[self._gather]
        products = np.multiply.reduce(self._factors, axis=1)
        self._matrix[self._scatter_rows, self._scatter_cols] = products
        totals = np.zeros(self._matrix.shape[0])
        for j in range(self._matrix.shape[1]):
            totals += self._matrix[:, j]
        return totals


class TestSteadyFanoutReplay:
    def test_two_sweeps_match_the_replaced_evaluator(self):
        """``benchmarks/perf``'s ``steady_fanout``: 100 portfolio queries
        over 40 items (seed 0), a ping-pong walk over 101 trace steps,
        each source filtering with the DABs the server last sent it."""
        from repro.service.server import build_scenario_server

        period = 101
        server, scenario, item_to_source = build_scenario_server(
            query_count=100, item_count=40, source_count=4,
            trace_length=period + 1, seed=0, workload="portfolio")
        core = server.core
        oracle = {
            item: _StackedBank([core.compiled_query(q) for q in readers])
            for item, readers in core.item_index.items()}
        bounds = {}
        for source_id in set(item_to_source.values()):
            bounds.update(core.current_bounds_for(source_id)[0])
        pushed = dict(core.cache)
        cycle = 2 * period - 2
        refreshes = hub_refreshes = 0
        for tick in range(2 * cycle):
            step = tick % cycle
            index = step if step < period else cycle - step
            for item in sorted(item_to_source):
                value = float(scenario.traces[item].values[index])
                if abs(value - pushed[item]) <= bounds[item]:
                    continue
                pushed[item] = value
                core.apply_refresh(item, value)
                expected = oracle[item].values_vector(core._power_vector)
                got = core._bank.values_vector(core._power_vector, item)
                assert _hex(got) == _hex(expected), (tick, item)
                assert core._bank.affected(item).tolist() == [
                    core._position[q.name] for q in core.item_index[item]]
                _, recomputed = core.react_to_refresh(item)
                if recomputed:
                    for _, (changed, _) in \
                            core.changed_bound_updates().items():
                        bounds.update(changed)
                refreshes += 1
                hub_refreshes += item in {f"x{k}" for k in range(8)}
        # The stream the benchmark measures: ~4k refreshes per two sweeps,
        # a quarter of them on the eight hub items nearly every query reads.
        assert refreshes > 3000
        assert 0.2 < hub_refreshes / refreshes < 0.35
        assert _hex(core.query_values()) == _hex(
            query.evaluate(core.cache) for query in core.queries)
