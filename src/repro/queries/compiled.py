"""Precompiled array evaluators for polynomial queries and deviations.

The simulator's two hottest loops — fidelity sampling and the coordinator's
per-refresh query checks — both evaluate :class:`PolynomialQuery` objects
term by term, dict lookup by dict lookup.  This module compiles a query
once into gather-index/weight arrays so each evaluation is one fancy-index
gather plus one ``multiply.reduce`` over a shared *power table*, and
compiles the worst-case deviation expansion of
:func:`repro.queries.deviation.deviation_posynomial` into a coefficient
program so GP recomputations refresh log-coefficients instead of rebuilding
posynomials.

Bit-exactness contract
----------------------
Every compiled evaluator here is **bitwise identical** to the reference
evaluator it compiles (:meth:`PolynomialQuery.evaluate`,
:func:`deviation_posynomial`), which is what lets the simulation
reproduce the golden metrics exactly.  Three empirical facts shape the
design:

* ``numpy`` *array* ``**`` uses a SIMD pow path that differs from libm in
  the last ulp for exponents >= 2, while Python's scalar ``**`` (and
  ``np.float64 ** np.float64``) is exactly libm ``pow``.  Therefore every
  power is computed with Python-level ``**`` — either once into a power
  slab/vector, or incrementally when a cached value changes — and numpy is
  used only for gather, ``multiply.reduce`` and comparisons, which are
  IEEE-exact.
* ``np.multiply.reduce(..., axis=1)`` multiplies strictly left-to-right,
  so a row ``[w, p1, p2, ...]`` reproduces the scalar chain
  ``((w * p1) * p2) ...``; padding with exact ``1.0`` factors is a bitwise
  no-op.
* ``np.sum`` uses pairwise summation which diverges from the sequential
  ``sum()`` of the reference evaluator from 8 terms on; final sums are
  therefore sequential — a Python loop, a column-by-column ``+=``, or
  ``np.add.accumulate``, whose ``r[i] = r[i-1] + a[i]`` is the scalar
  chain by definition.

:class:`CompiledQueryBank` adds a fourth rule on top of the three: it
*keeps* its term products between evaluations and re-multiplies only the
terms that read a written item, so it is exact only while every write to
the power vector goes through it (``write`` marks, every read flushes).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.gp.monomial import _normalise_exponents
from repro.queries.deviation import (
    _require_positive_value,
    primary_variable,
    secondary_variable,
)
from repro.queries.polynomial import PolynomialQuery
from repro.queries.terms import QueryTerm

_PRIMARY_PREFIX = "b__"


class PowerTable:
    """Registry of ``(item, exponent)`` power slots shared by evaluators.

    Slot 0 is a sentinel that always holds exactly ``1.0``; gather matrices
    pad with it, making ragged term widths a bitwise no-op.  Real slots
    start at index 1 so the sentinel survives later registrations.
    """

    __slots__ = ("_index", "pairs", "_by_item")

    def __init__(self) -> None:
        self._index: Dict[Tuple[str, int], int] = {}
        #: Registered ``(item, exponent)`` pairs; slot ``i`` is ``pairs[i-1]``.
        self.pairs: List[Tuple[str, int]] = []
        self._by_item: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        return len(self.pairs) + 1

    def slot(self, name: str, exponent: int) -> int:
        """Slot index of ``name ** exponent``, registering it if new."""
        key = (name, exponent)
        index = self._index.get(key)
        if index is None:
            index = len(self.pairs) + 1
            self._index[key] = index
            self.pairs.append(key)
            self._by_item.setdefault(name, []).append(index)
        return index

    def slots_of(self, name: str) -> Sequence[int]:
        """Slots that depend on ``name`` (for incremental updates)."""
        return self._by_item.get(name, ())

    def vector(self, values: Mapping[str, float]) -> np.ndarray:
        """The full power vector at the given item values."""
        vec = np.empty(len(self.pairs) + 1)
        vec[0] = 1.0
        for i, (name, exponent) in enumerate(self.pairs):
            vec[i + 1] = float(values[name]) ** exponent
        return vec

    def update(self, vector: np.ndarray, name: str, value: float) -> None:
        """Refresh the slots of ``name`` after its cached value changed."""
        for index in self._by_item.get(name, ()):
            vector[index] = value ** self.pairs[index - 1][1]

    def slab(self, traces: "object") -> np.ndarray:
        """``(ticks, slots)`` power slab over a whole
        :class:`~repro.dynamics.traces.TraceSet` — row ``t`` is
        :meth:`vector` at tick ``t``, precomputed once with Python pow."""
        length = traces.duration + 1
        slab = np.empty((length, len(self.pairs) + 1))
        slab[:, 0] = 1.0
        for i, (name, exponent) in enumerate(self.pairs):
            column = traces[name].values.tolist()
            slab[:, i + 1] = [value ** exponent for value in column]
        return slab


class CompiledPolynomial:
    """A query lowered to gather indices + a weight column.

    ``evaluate_vector(pvec)`` equals ``query.evaluate(values)`` bitwise when
    ``pvec`` holds the Python-pow powers of the same values.
    """

    __slots__ = ("query", "table", "_gather", "_factors")

    def __init__(self, query: PolynomialQuery, table: Optional[PowerTable] = None):
        self.query = query
        self.table = table if table is not None else PowerTable()
        terms = query.terms
        width = max(len(term.key) for term in terms)
        self._gather = np.zeros((len(terms), width), dtype=np.intp)
        self._factors = np.ones((len(terms), width + 1))
        for i, term in enumerate(terms):
            self._factors[i, 0] = term.weight
            for j, (name, exponent) in enumerate(term.key):
                self._gather[i, j] = self.table.slot(name, exponent)

    def products(self, pvec: np.ndarray) -> np.ndarray:
        """The term products, in term order, from a power vector of this
        object's table."""
        self._factors[:, 1:] = pvec[self._gather]
        return np.multiply.reduce(self._factors, axis=1)

    def evaluate_vector(self, pvec: np.ndarray) -> float:
        """Query value from a power vector of this object's table."""
        total = 0.0
        for value in self.products(pvec).tolist():
            total += value
        return total

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Dict-based evaluation (test/reference path)."""
        return self.evaluate_vector(self.table.vector(values))

    def evaluate_slab(self, slab: np.ndarray) -> np.ndarray:
        """Query value at every row of a power slab at once.

        Row ``t`` equals ``evaluate_vector(slab[t])`` bitwise:
        ``multiply.reduce`` along the last axis multiplies strictly
        left-to-right per row, and the column-wise accumulation below adds
        the per-term products in the same ``((0.0 + p0) + p1) ...``
        sequence as the scalar sum.
        """
        factors = np.ones((slab.shape[0],) + self._factors.shape)
        factors[:, :, 0] = self._factors[:, 0]
        factors[:, :, 1:] = slab[:, self._gather]
        products = np.multiply.reduce(factors, axis=2)
        totals = np.zeros(slab.shape[0])
        for j in range(products.shape[1]):
            totals += products[:, j]
        return totals


class CompiledQueryBank:
    """The flat evaluator: every query's term products, kept.

    A refresh moves one item, and a hub item sits in one of a query's six
    or seven terms; re-multiplying every term of every query that reads
    it does six times the work the refresh caused.  The bank therefore
    *materialises* the first-order views — the per-term products — in a
    persistent ``(query, 1 + term position)`` table and lets a write
    touch only the cells that read the written item (the DBToaster
    discipline, PAPERS.md):

    * **The table.**  Cell ``[q, 1 + k]`` holds the product of query
      ``q``'s ``k``-th term, computed by the same left-to-right
      ``multiply.reduce`` over ``[weight, power, power, ..., 1.0, ...]``
      as :meth:`CompiledPolynomial.evaluate_vector`, so it is bitwise
      that term's scalar product.  Column 0 and every cell past a query's
      last term hold ``+0.0`` forever.  The gather slots and weights
      behind the cells are stacked in the same ``(query, position)``
      layout, padded with the sentinel slot and weight ``0.0``.
    * **The item index.**  ``item -> (gather slots, factor buffer, table
      cells, bank positions)`` over exactly the terms that contain the
      item, derived from the gather slots on the item's first use and
      again after a membership edit that touched it.  Readers are kept in
      registration order, which is the order
      ``CoordinatorCore.item_index`` lists them in and notifications are
      raised in.
    * **Writes mark, reads flush.**  A materialised product is valid only
      while the bank sees every write to the power vector it was
      multiplied from: :meth:`write` is the one way to move an item, and
      it only *marks* the item; every read — :meth:`values_vector` for
      one item or for the whole bank — first re-multiplies the cells of
      the marked items.  A read from a different vector object recomputes
      the whole table unless the vector is a grown copy of the last one
      (new slots appended, old ones unchanged — what registering a query
      with a new ``(item, exponent)`` pair produces).
    * **Sums.**  A query's value is the strictly sequential row sum
      ``np.add.accumulate(row)[-1]``: from the zero column it runs the
      scalar chain ``((0.0 + p0) + p1) ...`` (so a ``-0.0`` first product
      still sums to ``+0.0``), and the trailing pad cells add ``+0.0`` —
      a bitwise no-op, since a running IEEE sum that starts at ``+0.0``
      can never become ``-0.0``.  Never ``np.sum``/``np.add.reduce``:
      pairwise from 8 addends.
    * **Membership.**  :meth:`add_query` fills the next row (growing the
      arrays by doubling, and by a column for a query with more terms
      than any before); :meth:`remove_query` moves the last query's row
      into the hole, mirroring ``CoordinatorCore.queries``' swap-remove.
      Both touch the index entries of that query's items only.
    """

    __slots__ = ("table", "_members", "_position", "_gather", "_weights",
                 "_matrix", "_readers", "_entries", "_dirty", "_seen")

    def __init__(self, compiled: Sequence[CompiledPolynomial]):
        if not compiled:
            raise ValueError("a query bank needs at least one compiled query")
        self.table = compiled[0].table
        #: Bank position -> member, and back.
        self._members: List[CompiledPolynomial] = []
        self._position: Dict[CompiledPolynomial, int] = {}
        self._gather = np.zeros((0, 0, 0), dtype=np.intp)
        self._weights = np.zeros((0, 0))
        self._matrix = np.zeros((0, 1))
        #: item -> the members reading it, in registration order (a dict
        #: for its O(1) removal).
        self._readers: Dict[str, Dict[CompiledPolynomial, None]] = {}
        #: item -> compiled index entry (see :meth:`_entry`).
        self._entries: Dict[str, Tuple[np.ndarray, ...]] = {}
        #: Items written since their cells were last multiplied.
        self._dirty: set = set()
        #: The power vector the table was multiplied from.
        self._seen: Optional[np.ndarray] = None
        self._reserve(len(compiled),
                      max(one._gather.shape[0] for one in compiled),
                      max(one._gather.shape[1] for one in compiled))
        for one in compiled:
            self._append(one)

    def __len__(self) -> int:
        return len(self._members)

    # -- membership --------------------------------------------------------------

    def _reserve(self, size: int, depth: int, width: int) -> None:
        """Room for ``size`` queries of ``depth`` terms of ``width``
        factors; fresh cells are padding (sentinel slot, ``0.0``)."""
        capacity, deep, wide = self._gather.shape
        if size <= capacity and depth <= deep and width <= wide:
            return
        if size > capacity:
            capacity = max(size, 2 * capacity)
        deep, wide = max(deep, depth), max(wide, width)
        live = len(self._members)
        for attr, shape in (("_gather", (capacity, deep, wide)),
                            ("_weights", (capacity, deep)),
                            ("_matrix", (capacity, deep + 1))):
            old = getattr(self, attr)
            grown = np.zeros(shape, dtype=old.dtype)
            grown[(slice(live),) + tuple(slice(n) for n in old.shape[1:])] = \
                old[:live]
            setattr(self, attr, grown)
        # Index entries address table cells by flat offset.
        self._entries.clear()

    def _append(self, one: CompiledPolynomial) -> int:
        if one.table is not self.table:
            raise ValueError("bank queries must share one power table")
        position = len(self._members)
        depth, width = one._gather.shape
        self._reserve(position + 1, depth, width)
        self._gather[position, :depth, :width] = one._gather
        self._weights[position, :depth] = one._factors[:, 0]
        self._members.append(one)
        self._position[one] = position
        for name in one.query.variables:
            self._readers.setdefault(name, {})[one] = None
            self._entries.pop(name, None)
        return position

    def add_query(self, one: CompiledPolynomial, pvec: np.ndarray) -> None:
        """Append ``one`` at position ``len(bank)``; ``pvec`` must already
        cover the slots its compilation registered."""
        self._flush(pvec)
        position = self._append(one)
        self._matrix[position, 1:1 + len(one.query.terms)] = \
            one.products(pvec)

    def remove_query(self, position: int) -> None:
        """Swap-remove: the last query takes ``position``."""
        last = len(self._members) - 1
        gone = self._members[position]
        moved = self._members[last]
        touched = set(gone.query.variables)
        for name in gone.query.variables:
            readers = self._readers[name]
            del readers[gone]
            if not readers:
                del self._readers[name]
        del self._position[gone]
        if position != last:
            self._members[position] = moved
            self._position[moved] = position
            touched.update(moved.query.variables)
            for array in (self._gather, self._weights, self._matrix):
                array[position] = array[last]
        self._members.pop()
        for array in (self._gather, self._weights, self._matrix):
            array[last] = 0
        for name in touched:
            self._entries.pop(name, None)

    # -- the item index ----------------------------------------------------------

    def _entry(self, item: str) -> Tuple[np.ndarray, ...]:
        """``item``'s index entry ``(gather, powers, factors, cells,
        positions)`` over the terms containing it, one *column* per term:
        their gather slots; the factor buffer, weights in row 0 and
        ``powers`` the view of the rows below it (so
        ``multiply.reduce(axis=0)`` runs each column's ``((w * p1) * p2)
        ...`` chain); the flat offsets of the table cells those terms own;
        and the bank positions of the queries reading the item."""
        entry = self._entries.get(item)
        if entry is None:
            position = self._position
            positions = np.array(
                [position[one] for one in self._readers.get(item, ())],
                dtype=np.intp)
            # Which (reader, term) cells gather one of the item's slots.
            reads = np.isin(self._gather[positions],
                            self.table.slots_of(item)).any(axis=2)
            which, terms = np.nonzero(reads)
            rows = positions[which]
            gather = np.ascontiguousarray(self._gather[rows, terms].T)
            factors = np.ones((gather.shape[0] + 1, gather.shape[1]))
            factors[0] = self._weights[rows, terms]
            cells = rows * self._matrix.shape[1] + terms + 1
            entry = self._entries[item] = (gather, factors[1:], factors,
                                           cells, positions)
        return entry

    def affected(self, item: str) -> np.ndarray:
        """Bank positions of the queries reading ``item``, in registration
        order — what ``values_vector(pvec, item)`` is aligned with."""
        return self._entry(item)[4]

    # -- writes and reads --------------------------------------------------------

    def write(self, pvec: np.ndarray, item: str, value: float) -> None:
        """Move ``item`` to ``value`` in ``pvec``.  O(its slots): the cells
        reading it are only marked, and multiplied at the next read."""
        self.table.update(pvec, item, value)
        self._dirty.add(item)

    def _multiply_all(self, pvec: np.ndarray) -> np.ndarray:
        """Every cell's product, multiplied afresh: ``(query, position)``.
        A pad cell comes out ``0.0 * 1.0 * ... = +0.0``."""
        live = len(self._members)
        gather = self._gather[:live]
        factors = np.empty(gather.shape[:2] + (gather.shape[2] + 1,))
        factors[:, :, 0] = self._weights[:live]
        factors[:, :, 1:] = pvec[gather]
        return np.multiply.reduce(factors, axis=2)

    def _flush(self, pvec: np.ndarray) -> None:
        """Make the table the products of ``pvec``."""
        if pvec is not self._seen:
            seen, self._seen = self._seen, pvec
            if seen is None or not np.array_equal(pvec[:seen.shape[0]], seen):
                self._matrix[:len(self._members), 1:] = \
                    self._multiply_all(pvec)
                self._dirty.clear()
                return
        if self._dirty:
            matrix = self._matrix
            for item in self._dirty:
                gather, powers, factors, cells, _ = self._entry(item)
                # ``take``/``put`` rather than fancy indexing: a third of
                # the per-call cost, which is what a 40-term flush is made
                # of.  ``clip`` only skips ``take``'s defensive copy — every
                # slot was range-checked against this vector when the
                # table was multiplied from it or the query was added.
                pvec.take(gather, out=powers, mode="clip")
                matrix.put(cells, np.multiply.reduce(factors, axis=0))
            self._dirty.clear()

    def values_vector(self, pvec: np.ndarray,
                      item: Optional[str] = None) -> np.ndarray:
        """Query values at ``pvec``, bitwise ``query.evaluate``: of every
        query in bank order, or — given ``item`` — of the queries reading
        it, aligned with :meth:`affected`.  Multiplies only what was
        written since the last read."""
        self._flush(pvec)
        if item is None:
            cells = self._matrix[:len(self._members)]
        else:
            cells = self._matrix.take(self._entry(item)[4], axis=0)
        return np.add.accumulate(cells, axis=1)[:, -1]

    # -- the stateless reference (tests compare the table against it) ------------

    def products(self, pvec: np.ndarray) -> List[List[float]]:
        """All queries' term products, multiplied afresh from ``pvec``
        (input to :meth:`value_of`); the table is neither read nor
        written."""
        return self._multiply_all(pvec).tolist()

    def value_of(self, index: int, products: List[List[float]]) -> float:
        """Query ``index``'s value from a :meth:`products` result."""
        total = 0.0
        for value in products[index][:len(self._members[index].query.terms)]:
            total += value
        return total

    def values(self, pvec: np.ndarray) -> List[float]:
        """Every query's value at the given power vector."""
        products = self.products(pvec)
        return [self.value_of(i, products) for i in range(len(products))]


# ---------------------------------------------------------------------------
# Compiled deviation expansion
# ---------------------------------------------------------------------------
#
# The coefficient of each monomial of ``deviation_posynomial`` is an exact
# arithmetic program over the current item values: products of binomial/
# multinomial integers and Python pows folded left-to-right, with like-term
# sums folded in collection order.  ``CompiledDeviation`` runs the scalar
# expansion once *symbolically* — replicating the exact monomial signature
# merging, canonical sorting and like-term combining of the Posynomial
# algebra — and records one expression per output row.  Re-evaluating the
# expressions at new values reproduces the scalar coefficients bitwise
# without rebuilding any Posynomial.

class _Coef:
    __slots__ = ()


class _Const(_Coef):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class _Mul(_Coef):
    """``left * (comb * value ** exponent)`` — one factor of the chain."""

    __slots__ = ("left", "comb", "name", "exponent")

    def __init__(self, left: _Coef, comb: int, name: str, exponent: int):
        self.left = left
        self.comb = comb
        self.name = name
        self.exponent = exponent


class _Sum(_Coef):
    """``0.0 + part_1 + part_2 + ...`` in collection order."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[_Coef]):
        self.parts = parts


def _evaluate_coef(expr: _Coef, values: Mapping[str, float],
                   powers: Dict[Tuple[str, int], float]) -> float:
    if isinstance(expr, _Const):
        return expr.value
    if isinstance(expr, _Mul):
        key = (expr.name, expr.exponent)
        power = powers.get(key)
        if power is None:
            power = _require_positive_value(expr.name, values) ** expr.exponent
            powers[key] = power
        return _evaluate_coef(expr.left, values, powers) * (expr.comb * power)
    total = 0.0
    for part in expr.parts:
        total = total + _evaluate_coef(part, values, powers)
    return total


def _combine(parts: List[_Coef]) -> _Coef:
    # Posynomial construction folds like terms as ``0.0 + c1 + c2 + ...``;
    # for a single contribution ``0.0 + c == c`` bitwise, so skip the sum.
    return parts[0] if len(parts) == 1 else _Sum(parts)


def _merge_signatures(a: Tuple[Tuple[str, float], ...],
                      b: Tuple[Tuple[str, float], ...]) -> Tuple[Tuple[str, float], ...]:
    """Replicates ``Monomial.__mul__`` exponent merging + normalisation."""
    merged: Dict[str, float] = dict(a)
    for name, exponent in b:
        merged[name] = merged.get(name, 0.0) + exponent
    return _normalise_exponents(merged)


Signature = Tuple[Tuple[str, float], ...]


def signature_matrix(signatures: Sequence[Signature],
                     order: Sequence[str]) -> np.ndarray:
    """The exponent matrix ``A`` over ``order`` of monomials given by their
    canonical signatures, one row each — what
    ``Posynomial.exponent_matrix`` returns for the same terms."""
    index = {name: j for j, name in enumerate(order)}
    A = np.zeros((len(signatures), len(order)))
    for i, signature in enumerate(signatures):
        for name, exponent in signature:
            A[i, index[name]] = exponent
    return A


class CompiledDeviation:
    """Structure-compiled :func:`deviation_posynomial` for one term set.

    ``coefficients(values)`` returns, bitwise, the coefficient of each term
    of ``deviation_posynomial(terms, values, include_secondary)`` in its
    canonical (sorted-signature) order; the signatures themselves are
    value-independent and exposed for building static exponent matrices.
    """

    def __init__(self, terms: Iterable[QueryTerm], include_secondary: bool = False):
        self.include_secondary = include_secondary
        collected: List[Tuple[Tuple[Tuple[str, float], ...], _Coef]] = []
        for term in terms:
            product: List[Tuple[Tuple[Tuple[str, float], ...], _Coef]] = [
                ((), _Const(abs(float(term.weight))))
            ]
            for name, power in term.key:
                factor = self._factor_monomials(name, power, include_secondary)
                grouped: Dict[Tuple[Tuple[str, float], ...], List[_Coef]] = {}
                for sig_a, expr_a in product:
                    for sig_f, comb, vexp in factor:
                        sig = _merge_signatures(sig_a, sig_f)
                        grouped.setdefault(sig, []).append(
                            _Mul(expr_a, comb, name, vexp))
                product = [(sig, _combine(parts))
                           for sig, parts in sorted(grouped.items())]
            collected.extend(
                (sig, expr) for sig, expr in product
                if any(v.startswith(_PRIMARY_PREFIX) for v, _ in sig)
            )
        grouped_rows: Dict[Tuple[Tuple[str, float], ...], List[_Coef]] = {}
        for sig, expr in collected:
            grouped_rows.setdefault(sig, []).append(expr)
        self._rows: List[Tuple[Tuple[Tuple[str, float], ...], _Coef]] = [
            (sig, _combine(parts)) for sig, parts in sorted(grouped_rows.items())
        ]

    @staticmethod
    def _factor_monomials(name: str, power: int, include_secondary: bool):
        """Sorted-signature monomials of one ``_factor_expansion`` factor:
        ``(signature, comb, value_exponent)`` triples."""
        b_var = primary_variable(name)
        monomials = []
        if include_secondary:
            c_var = secondary_variable(name)
            for j in range(power + 1):
                for k in range(power - j + 1):
                    comb = math.comb(power, j) * math.comb(power - j, k)
                    exponents: Dict[str, int] = {}
                    if j:
                        exponents[c_var] = j
                    if k:
                        exponents[b_var] = k
                    monomials.append(
                        (_normalise_exponents(exponents), comb, power - j - k))
        else:
            for k in range(power + 1):
                exponents = {b_var: k} if k else {}
                monomials.append(
                    (_normalise_exponents(exponents), math.comb(power, k),
                     power - k))
        monomials.sort(key=lambda m: m[0])
        return monomials

    # -- structure ---------------------------------------------------------------

    @property
    def signatures(self) -> Tuple[Tuple[Tuple[str, float], ...], ...]:
        """Canonical exponent signature of each row, in output order."""
        return tuple(sig for sig, _ in self._rows)

    @property
    def variables(self) -> Tuple[str, ...]:
        names = set()
        for sig, _ in self._rows:
            names.update(name for name, _ in sig)
        return tuple(sorted(names))

    def exponent_matrix(self, order: Sequence[str]) -> np.ndarray:
        """Static ``A`` matrix over ``order`` (matches
        ``Posynomial.exponent_matrix`` for the scalar expansion)."""
        return signature_matrix(self.signatures, order)

    # -- evaluation --------------------------------------------------------------

    def coefficients(self, values: Mapping[str, float],
                     qab: Optional[float] = None) -> List[float]:
        """Row coefficients at ``values`` (divided by ``qab`` when given),
        bitwise equal to the scalar ``deviation_posynomial`` (and to
        ``dual_dab_condition``/``condition / qab`` with ``qab``)."""
        powers: Dict[Tuple[str, int], float] = {}
        out = []
        for _, expr in self._rows:
            coefficient = _evaluate_coef(expr, values, powers)
            if qab is not None:
                coefficient = coefficient / float(qab)
            out.append(coefficient)
        return out

    def log_coefficients(self, values: Mapping[str, float],
                         qab: Optional[float] = None) -> np.ndarray:
        return np.array([math.log(c) for c in self.coefficients(values, qab)])

    def substituted(self, fixed_names: Iterable[str]) -> "CompiledSubstitution":
        """Structure of ``substitute(posy, fixed)`` with the named variables
        folded into the coefficients (the widening pass fixes every ``b``)."""
        return CompiledSubstitution(self, fixed_names)


class CompiledSubstitution:
    """Compiled ``repro.gp.posynomial.substitute`` over a compiled deviation.

    Row structure (residual signatures, like-term regrouping) is
    value-independent; ``coefficients`` folds the fixed variables into the
    parent's coefficients exactly as the scalar ``substitute`` does.
    """

    def __init__(self, parent: CompiledDeviation, fixed_names: Iterable[str]):
        self.parent = parent
        fixed = set(fixed_names)
        grouped: Dict[Tuple[Tuple[str, float], ...],
                      List[Tuple[int, List[Tuple[str, float]]]]] = {}
        for index, sig in enumerate(parent.signatures):
            multipliers = [(name, exp) for name, exp in sig if name in fixed]
            residual = tuple((name, exp) for name, exp in sig
                             if name not in fixed)
            grouped.setdefault(residual, []).append((index, multipliers))
        self._rows = sorted(grouped.items())

    @property
    def signatures(self) -> Tuple[Tuple[Tuple[str, float], ...], ...]:
        return tuple(sig for sig, _ in self._rows)

    @property
    def variables(self) -> Tuple[str, ...]:
        names = set()
        for sig, _ in self._rows:
            names.update(name for name, _ in sig)
        return tuple(sorted(names))

    @property
    def is_constant(self) -> bool:
        """True when every fixed-variable fold leaves no free variable."""
        return all(not sig for sig, _ in self._rows)

    def exponent_matrix(self, order: Sequence[str]) -> np.ndarray:
        return signature_matrix(self.signatures, order)

    def coefficients(self, parent_coefficients: Sequence[float],
                     fixed: Mapping[str, float]) -> List[float]:
        """Residual-row coefficients, bitwise equal to
        ``substitute(parent_posynomial, fixed).terms`` coefficients."""
        out = []
        for _, contributions in self._rows:
            total = 0.0
            for index, multipliers in contributions:
                coefficient = parent_coefficients[index]
                for name, exponent in multipliers:
                    coefficient *= float(fixed[name]) ** exponent
                total = total + coefficient
            out.append(total)
        return out
