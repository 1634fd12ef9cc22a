"""The protocol-agnostic coordinator core.

Everything a coordinator does that does not touch a transport lives here:
the item-value cache, query evaluation (through the compiled
:class:`~repro.queries.compiled.CompiledQueryBank`), secondary-DAB window
checks, recomputation through the planner stack (with GP-solver failure
degradation), per-item DAB epochs, and the merged-bound diffing that
decides which sources must be told about a plan change.

The bank is one persistent table of term products: a refresh
re-multiplies only the terms that contain the refreshed item, and
``add_query``/``remove_query`` edit one row of it.  It is exact only while
it sees every write to the power vector, so the three writers —
``apply_refresh``, ``adopt_item``, ``restore_cache_value`` — share one
method, :meth:`CoordinatorCore._write_powers`, and every read of the bank
flushes what was written since the last one (DESIGN.md §8.1–8.2).

Two runtimes share this class verbatim:

* the discrete-event simulator's
  :class:`~repro.simulation.coordinator.Coordinator`, which wraps it in an
  event-loop adapter (busy-server modelling, Pareto delays, fault
  injection, staleness leases), and
* the live :class:`~repro.service.server.CoordinatorServer`, which wraps
  it in an asyncio socket server speaking the framed wire protocol of
  :mod:`repro.service.protocol`.

Because both adapters call the exact same code in the exact same order,
the simulator's golden-metric tests double as a correctness pin for the
live service's planning and recomputation behaviour (DESIGN.md §9).

This module must not import :mod:`repro.simulation` — the dependency runs
the other way.
"""

from __future__ import annotations

import enum
import math
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import GPError, SimulationError
from repro.filters.assignment import DABAssignment, merge_primary
from repro.queries.compiled import (
    CompiledPolynomial,
    CompiledQueryBank,
    PowerTable,
)
from repro.queries.polynomial import PolynomialQuery

#: Relative change below which a DAB update is not worth a message.
_DAB_CHANGE_REL_TOL = 1e-9

#: One source's pending update: ``(bounds, epochs)`` keyed by item name.
BoundUpdate = Tuple[Dict[str, float], Dict[str, int]]

#: Relative amount each side of a safe band is pulled inward.  Three
#: roundings separate ``lo <= value <= hi`` from the reference predicate's
#: ``abs(value - ref) > secondary + 1e-12`` (the band edge, the shrink
#: itself, the predicate's subtraction), each at most 2**-53 of
#: ``abs(ref) + secondary``; this margin is ~4500 times that, so a value
#: the band admits can never be one the predicate calls a breach.
_BAND_MARGIN_REL = 1e-12

#: The band that admits nothing: every refresh of the item takes the
#: exact per-query check.
_NO_BAND = (math.inf, -math.inf)


class RecomputeMode(enum.Enum):
    EVERY_REFRESH = "every_refresh"
    ON_WINDOW_VIOLATION = "on_window_violation"
    AAO_PERIODIC = "aao_periodic"


class CoordinatorCore:
    """Transport-free coordinator state machine.

    The adapter owning the core drives it through four entry points:

    * :meth:`bootstrap` — plan every query at the initial values and
      return the merged primary DABs for the sources;
    * :meth:`apply_refresh` — an accepted refresh lands in the cache;
    * :meth:`react_to_refresh` — notify/recompute per the configured
      :class:`RecomputeMode`, returning the user notifications and
      whether any plan changed;
    * :meth:`changed_bound_updates` — the per-source DAB updates (with
      fresh epochs) that the adapter must deliver.

    ``recompute_hook``, when set, is invoked once per recomputation *in
    recomputation order* — the simulator uses it to charge solver time to
    its busy-server clock without the core knowing about clocks.
    """

    def __init__(
        self,
        queries: Sequence[PolynomialQuery],
        planner: object,
        mode: RecomputeMode,
        metrics: object,
        initial_values: Mapping[str, float],
        item_to_source: Mapping[str, int],
        aao_planner: Optional[object] = None,
        aao_period: Optional[int] = None,
        recompute_hook: Optional[Callable[[], None]] = None,
        solver_breaker: Optional[object] = None,
        breaker_shrink: float = 0.9,
    ):
        if not queries:
            raise SimulationError("a coordinator needs at least one query")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise SimulationError("query names must be unique at a coordinator")
        self.query_names = set(names)
        if mode is RecomputeMode.AAO_PERIODIC:
            if aao_planner is None or aao_period is None or aao_period < 1:
                raise SimulationError(
                    "AAO_PERIODIC mode needs an aao_planner and a period >= 1"
                )

        self.queries = list(queries)
        self.planner = planner
        self.mode = mode
        self.metrics = metrics
        self.aao_planner = aao_planner
        self.aao_period = aao_period
        self.item_to_source = dict(item_to_source)
        self.recompute_hook = recompute_hook
        #: Optional circuit breaker around the GP solve (see
        #: :mod:`repro.service.resilience`).  ``None`` — the default, and
        #: what the simulator always passes — leaves every code path
        #: bit-identical to the breaker-less implementation.
        self.solver_breaker = solver_breaker
        if not (0.0 < breaker_shrink <= 1.0):
            raise SimulationError(
                f"breaker_shrink must be in (0, 1], got {breaker_shrink!r}")
        self.breaker_shrink = float(breaker_shrink)
        #: query name -> (source plan, its shrunk stand-in) while the
        #: breaker is open (cached so shrinkage never compounds).
        self._breaker_plans: Dict[str, Tuple[DABAssignment, DABAssignment]] = {}
        #: Optional write-ahead journal (:mod:`repro.service.journal`).
        #: ``None`` — the default, and what the simulator always uses —
        #: leaves every code path identical to the journal-less core.
        #: Attached by :meth:`CoordinatorServer.restore` *after* replay so
        #: recovery itself is never re-journaled.
        self.journal: Optional[object] = None

        self.cache: Dict[str, float] = {
            name: float(initial_values[name])
            for q in self.queries for name in q.variables
        }
        #: Items adopted after construction (live resharding hand-offs):
        #: item -> owning source id (or None).  Persisted in
        #: :meth:`recovery_state` and replayed *before* dynamic queries so
        #: a restored shard can re-register sub-queries over migrated
        #: items it was not built with.
        self._adopted_items: Dict[str, Optional[int]] = {}
        self.plans: Dict[str, DABAssignment] = {}
        self.last_user_values: Dict[str, float] = {}
        self._last_sent_bounds: Dict[str, float] = {}

        # -- compiled evaluation state (bitwise-equal to ``query.evaluate``) --
        self._compiled: Dict[str, CompiledPolynomial] = {}
        self._power_table = PowerTable()
        #: item -> ``(lo, hi)``, the per-item safe band: while the item's
        #: value stays inside, no query reading it has a broken secondary
        #: window, so a refresh needs no per-query check.
        #: Built lazily by :meth:`_safe_band`; an entry is dropped whenever
        #: something it was computed from changes (see :meth:`_drop_bands`).
        self._bands: Dict[str, Tuple[float, float]] = {}
        #: query name -> ``(plan, its _plan_windows)``, so a band rebuild
        #: does not re-derive every reader's intervals; keyed on the plan
        #: object's identity, like the breaker's stand-ins.
        self._windows: Dict[str, Tuple[DABAssignment, Optional[
            Dict[str, Tuple[float, float]]]]] = {}
        #: Refreshes the band answered / sent to the exact per-query check.
        self.window_screen_hits = 0
        self.window_screen_misses = 0
        #: Names added through :meth:`add_query` — persisted in
        #: :meth:`recovery_state` so dynamically-registered queries
        #: survive a snapshot + kill -9 restart.
        self.dynamic_names: set = set()
        #: Names of *static* (construction-time) queries later removed by
        #: :meth:`remove_query`.  A restore rebuilds the original static
        #: bank, so the snapshot must say which of those queries no longer
        #: exist — otherwise a resharded coordinator restores with the
        #: pre-migration sub-query shadowing its re-decomposed replacement.
        self._removed_queries: set = set()

        self.item_index: Dict[str, List[PolynomialQuery]] = {}
        for query in self.queries:
            for name in query.variables:
                self.item_index.setdefault(name, []).append(query)

        self._build_vectorized_state()

        #: Per-item monotone DAB epoch (incremented on every shipped change).
        self.epochs: Dict[str, int] = {}

    def _build_vectorized_state(self) -> None:
        """Compile the evaluation structures — O(bank), at construction
        only: membership changes edit them in place (:meth:`add_query`,
        :meth:`remove_query`) and never re-enter this method."""
        table = self._power_table
        for query in self.queries:
            self._compiled[query.name] = CompiledPolynomial(query, table)
        #: query name -> its position in :attr:`queries`, the bank and the
        #: per-query arrays.
        self._position: Dict[str, int] = {
            query.name: i for i, query in enumerate(self.queries)}
        #: The evaluator: one persistent term-product table, edited in
        #: place by :meth:`add_query` / :meth:`remove_query` and told of
        #: every power-vector write by :meth:`_write_powers`.
        self._bank = CompiledQueryBank(
            [self._compiled[query.name] for query in self.queries])
        self._power_vector = table.vector(self.cache)
        #: Per-query QABs and the last user-visible values mirrored as
        #: arrays (bank order, grown by doubling), so one masked compare
        #: is the notification decision in ``react_to_refresh``.
        self._qab_arr = np.array([q.qab for q in self.queries], dtype=float)
        self._last_user_arr = np.zeros(len(self.queries))

    # -- bootstrap --------------------------------------------------------------------

    def bootstrap(self) -> Dict[str, float]:
        """Plan every query at the initial values; return the merged primary
        DABs the adapter should seed the sources with (time-zero
        configuration is assumed in place when the observation window
        starts)."""
        if self.mode is RecomputeMode.AAO_PERIODIC:
            multi = self.aao_planner.plan_all(self.queries, self.cache)
            self._replace_plans(multi.per_query)
        else:
            for query in self.queries:
                self.install_plan(query.name, self._plan_query(query))
        for index, query in enumerate(self.queries):
            value = self.query_value(query)
            self.last_user_values[query.name] = value
            self._last_user_arr[index] = value
        merged = merge_primary(self.plans.values())
        self._last_sent_bounds = dict(merged)
        return merged

    def owned_bounds(self, merged: Mapping[str, float],
                     source_id: int) -> Dict[str, float]:
        """The subset of ``merged`` owned by ``source_id``."""
        return {name: bound for name, bound in merged.items()
                if self.item_to_source.get(name) == source_id}

    # -- helpers ---------------------------------------------------------------------

    def _values_for(self, query: PolynomialQuery) -> Dict[str, float]:
        return {name: self.cache[name] for name in query.variables}

    @property
    def power_table(self) -> PowerTable:
        """The shared (item, exponent) slot registry."""
        return self._power_table

    def compiled_query(self, query: PolynomialQuery) -> CompiledPolynomial:
        """The compiled evaluator for ``query``."""
        return self._compiled[query.name]

    def query_value(self, query: PolynomialQuery) -> float:
        return self._compiled[query.name].evaluate_vector(self._power_vector)

    def query_values(self) -> List[float]:
        """Every query's value at the current cache, in ``queries`` order —
        one banked evaluation."""
        return self.query_values_array().tolist()

    def query_values_array(self) -> np.ndarray:
        """Array form of :meth:`query_values`."""
        return self._bank.values_vector(self._power_vector)

    def _write_powers(self, item: str) -> None:
        """``item``'s cached value moved: refresh its power slots.  The
        one writer of the power vector after construction — a refresh, a
        hand-off and a replayed value all come through here — because the
        bank's materialised products are only right while it sees every
        write (it marks ``item``; its next read re-multiplies the terms
        containing it)."""
        self._bank.write(self._power_vector, item, self.cache[item])

    def _sync_power_vector(self) -> None:
        """Grow the power vector to cover slots a new template registered
        (values from the current cache — O(new slots), not O(table))."""
        table = self._power_table
        vector = self._power_vector
        if vector.shape[0] == len(table):
            return
        grown = np.empty(len(table))
        grown[: vector.shape[0]] = vector
        for i in range(vector.shape[0] - 1, len(table.pairs)):
            name, exponent = table.pairs[i]
            grown[i + 1] = self.cache[name] ** exponent
        self._power_vector = grown

    def _ensure_query_capacity(self, size: int) -> None:
        """Amortised growth of the per-query arrays (an add is O(1) per
        subscribe, not O(bank))."""
        if self._qab_arr.shape[0] >= size:
            return
        capacity = max(size, 2 * self._qab_arr.shape[0])
        for attr in ("_qab_arr", "_last_user_arr"):
            old = getattr(self, attr)
            grown = np.zeros(capacity)
            grown[: old.shape[0]] = old
            setattr(self, attr, grown)

    def uncertainty_widened_bound(self, query: PolynomialQuery,
                                  drifts: Mapping[str, float]) -> float:
        """The accuracy bound honestly reportable with stale inputs.

        ``drifts`` maps each suspect item to the absolute drift it is
        conservatively assumed to have accumulated since last heard from.
        The query's QAB is widened by its worst-case response to each
        drift (evaluated one item at a time, the simulator's PR-1
        staleness-lease semantics — iteration order is the caller's, so
        the float summation order is exactly what it passes in).
        """
        extra = 0.0
        cache = self.cache
        base = self.query_value(query)
        for name, drift in drifts.items():
            perturbed = dict(cache)
            perturbed[name] = cache[name] + drift
            up = abs(query.evaluate(perturbed) - base)
            perturbed[name] = cache[name] - drift
            down = abs(query.evaluate(perturbed) - base)
            extra += max(up, down)
        return query.qab + extra

    def _window_broken(self, query: PolynomialQuery) -> bool:
        """The reference predicate: ``query`` has no plan, or some item is
        outside its secondary window ``V_ref ± c`` (for a single-DAB plan:
        differs from its reference at all)."""
        plan = self.plans.get(query.name)
        return plan is None or not plan.window_contains(
            self._values_for(query))

    @staticmethod
    def _plan_windows(query: PolynomialQuery, plan: DABAssignment,
                      ) -> Optional[Dict[str, Tuple[float, float]]]:
        """``item -> (lo, hi)``: each secondary window of ``plan`` that the
        reference predicate looks at for ``query``, each side pulled inward
        by ``_BAND_MARGIN_REL``.  ``None`` when the predicate is not a set
        of intervals: a single-DAB plan, or an item without a reference."""
        if plan.secondary is None:
            return None
        windows: Dict[str, Tuple[float, float]] = {}
        for name in query.variables:
            if name not in plan.primary:
                continue
            reference = plan.reference_values.get(name)
            if reference is None:
                return None
            wide = plan.secondary[name] + 1e-12
            margin = _BAND_MARGIN_REL * (abs(reference) + wide)
            windows[name] = (reference - wide + margin,
                             reference + wide - margin)
        return windows

    def _safe_band(self, item: str) -> Tuple[float, float]:
        """``item``'s safe band: the intersection, over every query
        reading it, of that plan's (shrunk) window for ``item``.

        The band answers "does any query reading ``item`` need a
        recomputation?" from ``item``'s value alone, which is only sound
        while every *other* item of those queries sits inside its window;
        so it is empty (:data:`_NO_BAND`) when one does not, as when a
        query has no plan or :meth:`_plan_windows` has no intervals for
        it — the cases :meth:`_window_broken` must see.
        """
        lo, hi = -math.inf, math.inf
        cache = self.cache
        for query in self.item_index[item]:
            plan = self.plans.get(query.name)
            if plan is None:
                return _NO_BAND
            entry = self._windows.get(query.name)
            if entry is None or entry[0] is not plan:
                entry = self._windows[query.name] = (
                    plan, self._plan_windows(query, plan))
            if entry[1] is None:
                return _NO_BAND
            for name, (low, high) in entry[1].items():
                if name == item:
                    if low > lo:
                        lo = low
                    if high < hi:
                        hi = high
                elif not low <= cache[name] <= high:
                    return _NO_BAND
        return lo, hi

    def _drop_bands(self, query: PolynomialQuery) -> None:
        """Forget the bands of ``query``'s items: its plan, its membership
        or one of its items' cached values changed behind them."""
        if self._bands:
            for name in query.variables:
                self._bands.pop(name, None)

    def _drop_bands_around(self, item: str) -> None:
        """``item``'s cached value moved outside a refresh (a hand-off or
        a replay): every band computed with it in its window is void."""
        if self._bands:
            for query in self.item_index.get(item, ()):
                self._drop_bands(query)

    def install_plan(self, name: str, plan: DABAssignment) -> None:
        """The one way a plan enters :attr:`plans` — solve, AAO solve,
        snapshot restore or journal replay."""
        self.plans[name] = plan
        if self._bands:
            self._drop_bands(self.queries[self._position[name]])

    def _replace_plans(self, plans: Mapping[str, DABAssignment]) -> None:
        """Swap the whole plan set (joint AAO solve, snapshot restore)."""
        self.plans = {}
        self._bands.clear()
        self._windows.clear()
        for name, plan in plans.items():
            self.install_plan(name, plan)

    def clear_planner_warm_starts(self) -> None:
        """A recovered source resynced: its items may have drifted
        arbitrarily far while it was down, so solver warm starts anchored
        near the pre-crash optimum are stale — drop them before the replan
        this resync triggers."""
        for planner in (self.planner, self.aao_planner):
            clear = getattr(planner, "clear_warm_starts", None)
            if clear is not None:
                clear()

    def _plan_query(self, query: PolynomialQuery) -> DABAssignment:
        """One guarded GP solve: solver failures degrade, never escape."""
        breaker = self.solver_breaker
        if breaker is not None and not breaker.allow():
            # Breaker open: no solver call at all — serve the last good
            # plan with its primary DABs conservatively shrunk (tighter
            # filters keep Condition 1 while the references go stale).
            return self._breaker_degraded_plan(query)
        try:
            plan = self.planner.plan(query, self._values_for(query))
        except GPError:
            if breaker is not None:
                breaker.record_failure()
            self.metrics.record_solver_fallback()
            previous = self.plans.get(query.name)
            if previous is not None:
                return previous
            # Cold start: no valid plan to keep — fall back to the uniform
            # single-DAB split, which needs no rate information or solver.
            from repro.filters.baselines import UniformAllocationBaseline

            return UniformAllocationBaseline().plan(query, self._values_for(query))
        if breaker is not None:
            breaker.record_success()
        return plan

    def _breaker_degraded_plan(self, query: PolynomialQuery) -> DABAssignment:
        """The last good plan, primary DABs scaled by ``breaker_shrink``.

        Shrinking *primary* bounds is the safe direction (``c >= b`` still
        holds, sources just push a little more); shrinking secondary
        would trigger extra window violations and hence more of exactly
        the solver calls the open breaker is protecting against.
        """
        previous = self.plans.get(query.name)
        if previous is None:
            from repro.filters.baselines import UniformAllocationBaseline

            return UniformAllocationBaseline().plan(query, self._values_for(query))
        cached = self._breaker_plans.get(query.name)
        if cached is not None and (previous is cached[0]
                                   or previous is cached[1]):
            return cached[1]
        shrunk = DABAssignment(
            primary={name: bound * self.breaker_shrink
                     for name, bound in previous.primary.items()},
            secondary=previous.secondary,
            reference_values=previous.reference_values,
            recompute_rate=previous.recompute_rate,
            objective=previous.objective,
        )
        self._breaker_plans[query.name] = (previous, shrunk)
        return shrunk

    def _journal_plan(self, name: str, plan: DABAssignment) -> None:
        if self.journal is None:
            return
        from repro.service.journal import plan_to_wire

        record = {"t": "plan", "q": name, "plan": plan_to_wire(plan)}
        self.journal.append(record)

    def _recompute(self, query: PolynomialQuery) -> None:
        plan = self._plan_query(query)
        self.install_plan(query.name, plan)
        self.metrics.record_recomputation(query.name)
        self._journal_plan(query.name, plan)
        if self.recompute_hook is not None:
            self.recompute_hook()

    # -- refresh processing ------------------------------------------------------------

    def apply_refresh(self, item: str, value: float,
                      seq: Optional[int] = None) -> None:
        """An accepted refresh: the item's cached value moves to ``value``.

        ``seq`` — the accepted per-item sequence number, passed by the
        live server so the journal record carries the dedup high-water
        mark a restarted coordinator must restore.  The simulator never
        passes it (and never journals).
        """
        self.cache[item] = float(value)
        self._write_powers(item)
        if self.journal is not None:
            record = {"t": "refresh", "item": item, "value": self.cache[item]}
            if seq is not None:
                record["seq"] = int(seq)
            self.journal.append(record)
        self.metrics.record_refresh()

    def adopt_item(self, item: str, value: float,
                   source_id: Optional[int] = None,
                   seq: Optional[int] = None) -> None:
        """Take ownership of *item* mid-flight (live resharding hand-off).

        Seeds the cache with the value transferred from the previous
        owner so a subsequent :meth:`add_query` over the item passes its
        unknown-variable check; power-table slots are registered by that
        bank edit, so a fresh item needs no vector surgery here.  ``seq``
        is the previous owner's accepted refresh high-water mark — it
        rides the journal record so a replayed shard restores the same
        dedup floor the live one was handed.
        """
        fresh = item not in self.cache
        self.cache[item] = float(value)
        if not fresh:
            # Already-known items (a mirror of a cross-shard term) may
            # have live power-table slots to refresh.
            self._write_powers(item)
            self._drop_bands_around(item)
        if source_id is not None:
            self.item_to_source[item] = int(source_id)
        self._adopted_items[item] = (int(source_id)
                                     if source_id is not None else None)
        if self.journal is not None:
            record: Dict[str, object] = {"t": "adopt", "item": item,
                                         "value": self.cache[item]}
            if source_id is not None:
                record["source"] = int(source_id)
            if seq is not None:
                record["seq"] = int(seq)
            self.journal.append(record)

    def react_to_refresh(self, item: str) -> Tuple[List[Tuple[str, float]], bool]:
        """Notify users and recompute plans after ``item`` refreshed.

        Returns ``(notifications, recomputed)``: the ``(query name, new
        value)`` pairs whose result moved beyond its QAB since the user
        last saw it, and whether any plan was recomputed (in which case the
        adapter should ship :meth:`changed_bound_updates`)."""
        affected = self.item_index.get(item)
        if not affected:
            return [], False
        # User notification, batched: the cache cannot change again
        # within this event and notifications draw no randomness, so
        # raising them ahead of the recomputations leaves the
        # event-stream state untouched.
        notifications = self._notify_movers(item)
        if self.mode is RecomputeMode.EVERY_REFRESH:
            for query in affected:
                self._recompute(query)
            recomputed = True
        else:
            recomputed = False
            band = self._bands.get(item)
            if band is None:
                band = self._bands[item] = self._safe_band(item)
            if band[0] <= self.cache[item] <= band[1]:
                self.window_screen_hits += 1
            else:
                # Outside the band (or no band): the reference predicate
                # decides, query by query.  Whatever it finds, the band is
                # rebuilt at the item's next refresh — a standing breach
                # may have just healed.
                self.window_screen_misses += 1
                for query in affected:
                    if self._window_broken(query):
                        self._recompute(query)
                        recomputed = True
                self._bands.pop(item, None)
        if notifications and self.journal is not None:
            # last_user_values gates every future notification, so the
            # values the user saw are part of the recovery state.
            self.journal.append({"t": "notify",
                                 "values": dict(notifications)})
        return notifications, recomputed

    def _notify_movers(self, item: str) -> List[Tuple[str, float]]:
        """Raise the user notifications ``item``'s refresh caused: one
        per-item read of the bank gives every affected query's value
        (re-multiplying only the terms that contain ``item``), one masked
        compare the queries whose result moved beyond the QAB since the
        user last saw it."""
        bank = self._bank
        sub = bank.values_vector(self._power_vector, item)
        idx = bank.affected(item)
        moved = (np.abs(sub - self._last_user_arr.take(idx))
                 > self._qab_arr.take(idx))
        notifications: List[Tuple[str, float]] = []
        if not moved.any():
            return notifications
        for position, value in zip(idx[moved].tolist(), sub[moved].tolist()):
            name = self.queries[position].name
            self.last_user_values[name] = value
            self._last_user_arr[position] = value
            self.metrics.record_user_notification()
            notifications.append((name, value))
        return notifications

    # -- dynamic membership (live QUERY_SUB path) --------------------------------------

    def add_query(self, query: PolynomialQuery, plan: bool = True) -> int:
        """Register a query at runtime; returns its bank position.

        O(query): the bank (one row of the term-product table), the power
        vector and the notification arrays all grow in place.
        ``plan=False`` skips the solve (journal replay installs the
        journaled plan instead).
        """
        name = query.name
        if name in self.query_names:
            raise SimulationError(f"query {name!r} already registered")
        unknown = [v for v in query.variables if v not in self.cache]
        if unknown:
            raise SimulationError(
                f"query {name!r} references unknown items: {unknown}")
        position = len(self.queries)
        self.queries.append(query)
        self.query_names.add(name)
        self.dynamic_names.add(name)
        for item in query.variables:
            self.item_index.setdefault(item, []).append(query)
        # One more window over each of these items (and, until a plan is
        # installed, a query without one).
        self._drop_bands(query)
        compiled = self._compiled[name] = CompiledPolynomial(
            query, self._power_table)
        self._position[name] = position
        self._sync_power_vector()
        self._bank.add_query(compiled, self._power_vector)
        self._ensure_query_capacity(position + 1)
        self._qab_arr[position] = query.qab
        if self.journal is not None:
            from repro.service.protocol import query_to_wire

            self.journal.append({"t": "qadd", "query": query_to_wire(query)})
        if plan:
            assignment = self._plan_query(query)
            self.install_plan(name, assignment)
            self._journal_plan(name, assignment)
        value = self.query_value(query)
        self.last_user_values[name] = value
        self._last_user_arr[position] = value
        return position

    def remove_query(self, name: str) -> None:
        """Drop a query (swap-remove: the last query takes its bank
        position; O(query))."""
        if name not in self.query_names:
            raise SimulationError(f"unknown query {name!r}")
        if len(self.queries) == 1:
            raise SimulationError("a coordinator needs at least one query")
        position = self._position.pop(name)
        query = self.queries[position]
        last = len(self.queries) - 1
        moved = self.queries[last]
        self.queries[position] = moved
        self.queries.pop()
        self.query_names.discard(name)
        if name not in self.dynamic_names:
            # Removing a static query must survive a snapshot restore,
            # which rebuilds the original static bank.
            self._removed_queries.add(name)
        self.dynamic_names.discard(name)
        for item in query.variables:
            bucket = self.item_index.get(item)
            if bucket is not None:
                # By identity: ``==`` ignores the name, so ``list.remove``
                # would drop the first structurally equal query instead.
                bucket[:] = [other for other in bucket if other is not query]
                if not bucket:
                    del self.item_index[item]
        self.plans.pop(name, None)
        self._windows.pop(name, None)
        self._drop_bands(query)
        self.last_user_values.pop(name, None)
        self._breaker_plans.pop(name, None)
        # The name may be re-registered later with a different shape or
        # budget (live resharding re-adds a re-decomposed sub-query under
        # the same name) — stale per-name planner caches (compiled
        # templates, warm starts, value-keyed plans) must not survive.
        forget = getattr(self.planner, "forget_query", None)
        if forget is not None:
            forget(name)
        self._compiled.pop(name, None)
        self._bank.remove_query(position)
        if position != last:
            self._position[moved.name] = position
            self._qab_arr[position] = self._qab_arr[last]
            self._last_user_arr[position] = self._last_user_arr[last]
        if self.journal is not None:
            self.journal.append({"t": "qdel", "name": name})

    # -- plan fanout -------------------------------------------------------------------

    def changed_bound_updates(self) -> Dict[int, BoundUpdate]:
        """Diff the merged primary DABs against what each source last saw.

        Bumps the per-item epoch for every materially-changed bound and
        returns ``{source_id: (bounds, epochs)}`` — one entry per source
        that must be told (each counted as one DAB-change message, the
        overhead μ approximates)."""
        merged = merge_primary(self.plans.values())
        changed_by_source: Dict[int, Dict[str, float]] = {}
        changed_bounds: Dict[str, float] = {}
        for name, bound in merged.items():
            previous = self._last_sent_bounds.get(name)
            if previous is not None and abs(bound - previous) <= _DAB_CHANGE_REL_TOL * previous:
                continue
            self._last_sent_bounds[name] = bound
            self.epochs[name] = self.epochs.get(name, 0) + 1
            changed_bounds[name] = bound
            source_id = self.item_to_source.get(name)
            if source_id is not None:
                changed_by_source.setdefault(source_id, {})[name] = bound
        if changed_bounds and self.journal is not None:
            self.journal.append({
                "t": "bounds", "bounds": changed_bounds,
                "epochs": {name: self.epochs[name] for name in changed_bounds},
            })
        updates: Dict[int, BoundUpdate] = {}
        for source_id, bounds in changed_by_source.items():
            epochs = {name: self.epochs[name] for name in bounds}
            self.metrics.record_dab_change_messages(1)
            updates[source_id] = (bounds, epochs)
        return updates

    def current_bounds_for(self, source_id: int) -> BoundUpdate:
        """The latest sent bounds (and epochs) for one source — what a
        newly-connected or resyncing source must be programmed with."""
        bounds = {name: bound for name, bound in self._last_sent_bounds.items()
                  if self.item_to_source.get(name) == source_id}
        epochs = {name: self.epochs.get(name, 0) for name in bounds}
        return bounds, epochs

    # -- AAO periodic ------------------------------------------------------------------

    def aao_replan(self) -> bool:
        """Full joint recomputation on the AAO-T schedule.

        One AAO solve is counted as a single recomputation (it is one
        coordinated DAB change, whose larger fanout is folded into μ, as in
        the paper's accounting for Figure 7).  Returns False when the solver
        failed and the previous joint plan stays in force."""
        try:
            multi = self.aao_planner.plan_all(self.queries, self.cache)
        except GPError:
            # Keep serving on the previous joint plan; try again next period.
            self.metrics.record_solver_fallback()
            return False
        self._replace_plans(multi.per_query)
        self.metrics.record_recomputation("__aao__")
        if self.journal is not None:
            from repro.service.journal import plan_to_wire

            self.journal.append({
                "t": "aao",
                "plans": {name: plan_to_wire(plan)
                          for name, plan in sorted(self.plans.items())},
            })
        return True

    # -- durability (snapshot / replay) ------------------------------------------------

    def recovery_state(self) -> Dict[str, object]:
        """Everything a restarted coordinator must restore to be
        indistinguishable from this one, as a JSON-safe dict: the item
        cache, per-item DAB epochs, the bounds each source last saw, the
        values each user last saw, and every current plan (which is also
        the breaker's last-good plan set)."""
        from repro.service.journal import plan_to_wire

        state: Dict[str, object] = {
            "cache": dict(self.cache),
            "epochs": dict(self.epochs),
            "last_sent_bounds": dict(self._last_sent_bounds),
            "last_user_values": dict(self.last_user_values),
            "plans": {name: plan_to_wire(plan)
                      for name, plan in sorted(self.plans.items())},
        }
        if self.dynamic_names:
            # Only when present — snapshots of a static bank stay
            # byte-identical to the pre-index format.
            from repro.service.protocol import query_to_wire

            state["dynamic_queries"] = [
                query_to_wire(query) for query in
                sorted((q for q in self.queries
                        if q.name in self.dynamic_names),
                       key=lambda q: q.name)]
        if self._adopted_items:
            # Only when a reshard handed this shard new items — static
            # clusters' snapshots stay byte-identical to the old format.
            state["adopted_items"] = {
                item: self._adopted_items[item]
                for item in sorted(self._adopted_items)}
        if self._removed_queries:
            # Static queries removed at runtime (live resharding): the
            # restore path rebuilds the original bank and must drop
            # these again, or a re-added same-named dynamic sub-query
            # is shadowed by its stale pre-migration shape.
            state["removed_queries"] = sorted(self._removed_queries)
        return state

    def restore_recovery_state(self, state: Mapping[str, object]) -> None:
        """Adopt a :meth:`recovery_state` snapshot wholesale."""
        from repro.service.journal import plan_from_wire
        from repro.service.protocol import query_from_wire

        # Adopted items first: dynamic queries registered after a
        # reshard may read migrated items this core was not built with,
        # and add_query refuses unknown variables.  The placeholder 0.0
        # is immediately overwritten by the cache loop below.
        for item, source in (state.get("adopted_items") or {}).items():
            if item not in self.cache:
                self.adopt_item(item, 0.0, source_id=source)
            elif source is not None:
                self.item_to_source[item] = int(source)
        # Dynamic queries next: the plans/user values below may belong
        # to them.  (No journal is attached yet on the restore path, so
        # these re-registrations are not re-journaled.)  Non-colliding
        # names go first so the static removals below can never empty
        # the bank; a dynamic query whose name collides with a static
        # one is its post-migration replacement and is re-added right
        # after the stale static version is dropped.
        dynamic = [query_from_wire(wire)
                   for wire in state.get("dynamic_queries", ())]
        replacements = {q.name: q for q in dynamic}
        for query in dynamic:
            if query.name not in self.query_names:
                self.add_query(query, plan=False)
        for name in state.get("removed_queries", ()):
            name = str(name)
            # Keep the tombstone so the *next* snapshot cut from this
            # core records the removal too.
            self._removed_queries.add(name)
            if name in self.query_names and name not in self.dynamic_names:
                self.remove_query(name)
                replacement = replacements.get(name)
                if replacement is not None:
                    self.add_query(replacement, plan=False)
        for item, value in state["cache"].items():
            self.restore_cache_value(item, float(value))
        self.epochs = {name: int(epoch)
                       for name, epoch in state["epochs"].items()}
        self._last_sent_bounds = {name: float(bound) for name, bound
                                  in state["last_sent_bounds"].items()}
        for name, value in state["last_user_values"].items():
            self.restore_user_value(name, float(value))
        self._replace_plans({name: plan_from_wire(wire)
                             for name, wire in state["plans"].items()})
        # Identity-keyed caches are meaningless across a restart.
        self._breaker_plans.clear()

    def restore_cache_value(self, item: str, value: float) -> None:
        """Set one cached value during replay — no metrics, no journal."""
        if item not in self.cache:
            return
        self.cache[item] = float(value)
        self._write_powers(item)
        self._drop_bands_around(item)

    def restore_user_value(self, name: str, value: float) -> None:
        """Set one last-user-visible value during replay."""
        if name not in self.query_names:
            return
        self.last_user_values[name] = float(value)
        self._last_user_arr[self._position[name]] = float(value)
