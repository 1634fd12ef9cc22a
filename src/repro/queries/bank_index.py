"""Shared-structure query-bank index (the 10^5-10^6-query tier).

The 80-20 workload means most of a large query bank shares *monomial
structure* over a small hot-item set: thousands of ``w1*x*y + w2*u*v``
queries differ only in their weights and QABs.  The flat
:class:`~repro.queries.compiled.CompiledQueryBank` still pays one gather
row per term per query, so its per-refresh cost grows with bank size.
This module dedupes the bank by structure instead:

* :func:`template_key` canonicalizes a query's monomial structure —
  the sorted ``(item, exponent)`` signature of every term, weights
  excluded (``PolynomialQuery`` already combines and sorts like terms,
  so the key is a pure function of the structure);
* each distinct key compiles to **one** :class:`_Template`: a single
  ``(terms, width)`` gather into the shared
  :class:`~repro.queries.compiled.PowerTable` plus a per-query
  coefficient matrix ``W`` stacked on top — one tiny gather+reduce
  yields the unweighted term products ``P`` and one BLAS matvec
  ``W @ P`` evaluates every member query at once;
* an item → template inverted index (plus member positions per
  template) means a refresh touches only the affected template rows.

Per-tick cost is kept *sublinear in bank size* by slack screening: a
member only needs re-evaluation when its value might have crossed its
QAB since the user last saw it.  ``|w·ΔP| <= ||w||_1 · ||ΔP||_inf``
(Hölder) bounds each member's possible movement by a per-template
scalar, so each template keeps its members' notification thresholds
``(QAB - |v_sync - last_user|) / ||w||_1`` in a sorted array: one
``searchsorted`` against ``||P_now - P_sync||_inf`` finds the (usually
tiny) set of members that must actually be evaluated.  Screening is
conservative — it may evaluate a member that did not move, never the
reverse — so the *notification decisions* match the flat path's exact
per-tick evaluation (up to float association of ``W @ P`` versus the
flat path's sequential sums; the shared path makes no bit-identity
claim, which is why ``--bank-index flat`` remains the golden-pinned
default).
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.queries.compiled import PowerTable
from repro.queries.polynomial import PolynomialQuery

#: Bank-index modes accepted by the ``--bank-index`` flag.
BANK_INDEX_MODES = ("flat", "shared")

#: One query's structure: the per-term sorted ``(item, exponent)``
#: signatures, in the query's canonical term order.
TemplateKey = Tuple[Tuple[Tuple[str, int], ...], ...]

#: Index-update latency samples kept (bounds memory on long services).
_MAX_LATENCY_SAMPLES = 100_000

#: Screening thresholds are shrunk by this factor so float rounding in
#: the slack arithmetic can only make screening *more* conservative
#: (evaluate a safe member), never skip a member that truly moved.
_SCREEN_SAFETY = 1.0 - 1e-9

#: A template resyncs (full member re-evaluation + threshold rebuild)
#: when a tick touches at least this fraction of its members.
_RESYNC_FRACTION = 0.5


def template_key(query: PolynomialQuery) -> TemplateKey:
    """The query's hashable monomial-structure key (weights excluded)."""
    return tuple(term.key for term in query.terms)


class _Template:
    """One distinct structure: a shared gather plus stacked coefficients.

    Member arrays are capacity-doubled; ``count`` rows are live.  The
    screening state (``sync_P``/``v_sync``/``thr``) is lazily built on
    first refresh and invalidated by membership changes.
    """

    __slots__ = ("tid", "key", "gather", "items", "names", "count",
                 "capacity", "positions", "weights", "norms", "version",
                 "sync_P", "v_sync", "thr", "thr_sorted", "thr_order",
                 "dirty")

    def __init__(self, tid: int, key: TemplateKey, table: PowerTable):
        self.tid = tid
        self.key = key
        width = max(len(sig) for sig in key)
        self.gather = np.zeros((len(key), width), dtype=np.intp)
        items = set()
        for i, sig in enumerate(key):
            for j, (name, exponent) in enumerate(sig):
                self.gather[i, j] = table.slot(name, exponent)
                items.add(name)
        self.items: Tuple[str, ...] = tuple(sorted(items))
        self.names: List[str] = []
        self.count = 0
        self.capacity = 4
        self.positions = np.zeros(self.capacity, dtype=np.intp)
        self.weights = np.zeros((self.capacity, len(key)))
        self.norms = np.zeros(self.capacity)
        #: Bumped on every membership change, so a consumer holding
        #: derived per-member state can tell its row layout is stale.
        self.version = 0
        self.sync_P: Optional[np.ndarray] = None
        self.v_sync = np.zeros(self.capacity)
        self.thr = np.zeros(self.capacity)
        self.thr_sorted: Optional[np.ndarray] = None
        self.thr_order: Optional[np.ndarray] = None
        self.dirty = False

    def _grow(self) -> None:
        self.capacity *= 2
        for attr in ("positions", "weights", "norms", "v_sync", "thr"):
            old = getattr(self, attr)
            shape = (self.capacity,) + old.shape[1:]
            new = np.zeros(shape, dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, attr, new)

    def add_member(self, name: str, position: int,
                   weights: Sequence[float]) -> int:
        if self.count == self.capacity:
            self._grow()
        row = self.count
        self.names.append(name)
        self.positions[row] = position
        self.weights[row] = weights
        self.norms[row] = float(np.sum(np.abs(self.weights[row])))
        self.count += 1
        self.version += 1
        self.sync_P = None
        return row

    def remove_member(self, row: int) -> Optional[str]:
        """Swap-remove ``row``; returns the member name that moved into
        it (``None`` when the last row was removed)."""
        last = self.count - 1
        moved: Optional[str] = None
        if row != last:
            self.names[row] = self.names[last]
            self.positions[row] = self.positions[last]
            self.weights[row] = self.weights[last]
            self.norms[row] = self.norms[last]
            moved = self.names[row]
        self.names.pop()
        self.count = last
        self.version += 1
        self.sync_P = None
        return moved

    def products(self, pvec: np.ndarray) -> np.ndarray:
        """Unweighted term products ``P`` at the given power vector."""
        return np.multiply.reduce(pvec[self.gather], axis=1)

    @property
    def nbytes(self) -> int:
        total = self.gather.nbytes
        for attr in ("positions", "weights", "norms", "v_sync", "thr"):
            total += getattr(self, attr).nbytes
        return total


class SharedStructureBank:
    """Structure-deduplicating index over a query bank.

    Positions are caller-owned bank indices (the coordinator's
    ``queries`` order); the bank maps ``name -> (template, row)`` and
    keeps each template's member positions so evaluations scatter
    straight into caller arrays.  ``add_query``/``remove_query``/
    ``set_position`` are all O(affected template), never O(bank) — the
    property the live QUERY_SUB path and its bounded-work test rely on.
    """

    def __init__(self, table: PowerTable):
        self.table = table
        self._entries: List[_Template] = []
        self._by_key: Dict[TemplateKey, int] = {}
        self._members: Dict[str, Tuple[int, int]] = {}
        self._item_templates: Dict[str, List[int]] = {}
        # -- stats plane -------------------------------------------------
        self.appends = 0
        self.removals = 0
        self.structure_hits = 0
        self.screen_evaluated = 0
        self.screen_skipped = 0
        self.template_syncs = 0
        self._update_seconds: List[float] = []

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    # -- membership ------------------------------------------------------

    def add_query(self, query: PolynomialQuery, position: int) -> int:
        """Register ``query`` at caller position; returns its template id."""
        if query.name in self._members:
            raise ValueError(f"query {query.name!r} already indexed")
        started = _time.perf_counter()
        key = template_key(query)
        tid = self._by_key.get(key)
        if tid is None:
            tid = len(self._entries)
            entry = _Template(tid, key, self.table)
            self._entries.append(entry)
            self._by_key[key] = tid
            for item in entry.items:
                self._item_templates.setdefault(item, []).append(tid)
        else:
            self.structure_hits += 1
            entry = self._entries[tid]
        row = entry.add_member(query.name, position,
                               [term.weight for term in query.terms])
        self._members[query.name] = (tid, row)
        self.appends += 1
        if len(self._update_seconds) < _MAX_LATENCY_SAMPLES:
            self._update_seconds.append(_time.perf_counter() - started)
        return tid

    def remove_query(self, name: str) -> None:
        started = _time.perf_counter()
        tid, row = self._members.pop(name)
        entry = self._entries[tid]
        moved = entry.remove_member(row)
        if moved is not None:
            self._members[moved] = (tid, row)
        self.removals += 1
        if len(self._update_seconds) < _MAX_LATENCY_SAMPLES:
            self._update_seconds.append(_time.perf_counter() - started)

    def set_position(self, name: str, position: int) -> None:
        """The caller moved ``name`` to a new bank position (swap-remove)."""
        tid, row = self._members[name]
        self._entries[tid].positions[row] = position

    # -- structure lookups ----------------------------------------------

    def templates_of_item(self, item: str) -> Sequence[int]:
        return self._item_templates.get(item, ())

    def template_items(self, tid: int) -> Tuple[str, ...]:
        return self._entries[tid].items

    def template_positions(self, tid: int) -> np.ndarray:
        entry = self._entries[tid]
        return entry.positions[: entry.count]

    def template_version(self, tid: int) -> int:
        return self._entries[tid].version

    # -- evaluation ------------------------------------------------------

    def values_all(self, pvec: np.ndarray, size: int) -> np.ndarray:
        """Every member's exact value, scattered by caller position."""
        out = np.zeros(size)
        for entry in self._entries:
            m = entry.count
            if not m:
                continue
            P = entry.products(pvec)
            out[entry.positions[:m]] = entry.weights[:m] @ P
        return out

    def value_of(self, pvec: np.ndarray, name: str) -> float:
        tid, row = self._members[name]
        entry = self._entries[tid]
        return float(entry.weights[row] @ entry.products(pvec))

    def invalidate(self) -> None:
        """Drop all screening sync state (cache restored out of band)."""
        for entry in self._entries:
            entry.sync_P = None

    def refresh_movers(
        self, item: str, pvec: np.ndarray,
        last_user: np.ndarray, qab: np.ndarray,
    ) -> Tuple[List[int], List[float]]:
        """Members of ``item``'s templates whose value moved beyond the
        QAB since the user last saw it — ``(positions, values)``.

        Contract: the caller notifies each returned member and writes
        the returned value back into ``last_user`` at its position (the
        updated thresholds already assume it).  Members screened out by
        the slack bound are *guaranteed* non-movers.
        """
        positions: List[int] = []
        values: List[float] = []
        for tid in self._item_templates.get(item, ()):
            entry = self._entries[tid]
            m = entry.count
            if not m:
                continue
            P = entry.products(pvec)
            if entry.sync_P is None:
                self._sync(entry, P, last_user, qab, positions, values)
                continue
            delta = float(np.max(np.abs(P - entry.sync_P)))
            if entry.dirty:
                order = np.argsort(entry.thr[:m], kind="stable")
                entry.thr_order = order
                entry.thr_sorted = entry.thr[:m][order]
                entry.dirty = False
            k = int(np.searchsorted(entry.thr_sorted, delta, side="right"))
            if k >= max(8, int(m * _RESYNC_FRACTION)):
                self._sync(entry, P, last_user, qab, positions, values)
                continue
            self.screen_skipped += m - k
            if not k:
                continue
            rows = entry.thr_order[:k]
            self.screen_evaluated += k
            v = entry.weights[rows] @ P
            pos = entry.positions[rows]
            moved = np.abs(v - last_user[pos]) > qab[pos]
            if moved.any():
                for j in np.nonzero(moved)[0].tolist():
                    row = int(rows[j])
                    value = float(v[j])
                    position = int(pos[j])
                    slack = qab[position] - abs(entry.v_sync[row] - value)
                    entry.thr[row] = (max(slack, 0.0) * _SCREEN_SAFETY
                                      / entry.norms[row])
                    positions.append(position)
                    values.append(value)
                entry.dirty = True
        return positions, values

    def _sync(self, entry: _Template, P: np.ndarray, last_user: np.ndarray,
              qab: np.ndarray, positions: List[int],
              values: List[float]) -> None:
        """Full member re-evaluation: re-anchor the screening state and
        append this tick's movers."""
        self.template_syncs += 1
        m = entry.count
        self.screen_evaluated += m
        v = entry.weights[:m] @ P
        pos = entry.positions[:m]
        previous = last_user[pos]
        moved = np.abs(v - previous) > qab[pos]
        entry.sync_P = P
        entry.v_sync[:m] = v
        slack = qab[pos] - np.abs(v - np.where(moved, v, previous))
        entry.thr[:m] = (np.maximum(slack, 0.0) * _SCREEN_SAFETY
                         / entry.norms[:m])
        order = np.argsort(entry.thr[:m], kind="stable")
        entry.thr_order = order
        entry.thr_sorted = entry.thr[:m][order]
        entry.dirty = False
        for row in np.nonzero(moved)[0].tolist():
            positions.append(int(pos[row]))
            values.append(float(v[row]))

    # -- stats plane -----------------------------------------------------

    @property
    def nbytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries)

    def stats(self) -> Dict[str, object]:
        """The ``bank_index`` stats section (server_stats / CLI / bench)."""
        counts = [entry.count for entry in self._entries if entry.count]
        total = sum(counts)
        distinct = len(counts)
        out: Dict[str, object] = {
            "mode": "shared",
            "queries": total,
            "distinct_structures": distinct,
            "dedup_ratio": round(total / distinct, 4) if distinct else 0.0,
            "min_template_queries": min(counts, default=0),
            "max_template_queries": max(counts, default=0),
            "mean_template_queries": (round(total / distinct, 2)
                                      if distinct else 0.0),
            "appends": self.appends,
            "removals": self.removals,
            "structure_hits": self.structure_hits,
            "screen_evaluated": self.screen_evaluated,
            "screen_skipped": self.screen_skipped,
            "template_syncs": self.template_syncs,
            "nbytes": int(self.nbytes),
        }
        if self._update_seconds:
            arr = np.asarray(self._update_seconds) * 1e6
            out["update_latency_us"] = {
                "samples": int(arr.size),
                "p50": round(float(np.percentile(arr, 50)), 3),
                "p95": round(float(np.percentile(arr, 95)), 3),
                "p99": round(float(np.percentile(arr, 99)), 3),
            }
        return out
