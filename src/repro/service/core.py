"""The protocol-agnostic coordinator core.

Everything a coordinator does that does not touch a transport lives here:
the item-value cache, query evaluation (through the compiled
:class:`~repro.queries.compiled.CompiledQueryBank`), secondary-DAB window
checks, recomputation through the planner stack (with GP-solver failure
degradation), and the min-merge of its plans' primary DABs, which a
:class:`~repro.service.source_plane.DabSendTable` diffs into the
per-source DAB changes (with their epochs) a plan change must ship.

The bank is one persistent table of term products: a refresh
re-multiplies only the terms that contain the refreshed item, and
``add_query``/``remove_query`` edit one row of it.  It is exact only while
it sees every write to the power vector, so every writer — a refresh, a
hand-off, a replayed value — goes through one method,
:meth:`CoordinatorCore._set_values`, and every read of the bank flushes
what was written since the last one (DESIGN.md §8.1–8.2).

Durable state has one write path (DESIGN.md §11.1): each journal record
kind has one mutator, which live handling, :meth:`CoordinatorCore.replay`
and snapshot restore all call.

The core also owns the recompute price each plan is solved at (DESIGN.md
§4): a query whose secondary window has never been left prices its μ·R
row at :data:`UNEXITED_PRICE` of μ; from its first window exit on, at μ.

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

import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
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
from repro.service.journal import JournalError, plan_from_wire, plan_to_wire
from repro.service.protocol import query_from_wire, query_to_wire
from repro.service.source_plane import BoundUpdate, DabSendTable

#: How far an open solver breaker shrinks the last good plan's primaries.
BREAKER_SHRINK = 0.9

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

#: The share of μ that prices the μ·R row of a query whose secondary
#: window has never been left.  The ddm predicts an exit every ``c/λ``;
#: a bounded oscillation leaves its window far less often, so until one
#: is seen to, the recompute insurance is bought at half price.
UNEXITED_PRICE = 0.5


def _readers(index: Mapping[str, List[PolynomialQuery]],
             items: Sequence[str]) -> Iterable[PolynomialQuery]:
    """Each query reading one of ``items`` once, in item then ``index``
    order."""
    return {query.name: query
            for item in items for query in index[item]}.values()


class CoordinatorCore:
    """Transport-free coordinator state machine.

    The adapter owning the core drives it through four entry points:

    * :meth:`bootstrap` — plan every query at the initial values and
      return the merged primary DABs for the sources;
    * :meth:`apply_refresh` — a column of accepted refreshes lands in the
      cache;
    * :meth:`react_to_refresh` — notify users and recompute each plan the
      refreshes made stale, returning the user notifications and whether
      any plan changed;
    * :meth:`changed_bound_updates` — the per-source DAB updates (with
      fresh epochs) that the adapter must deliver.

    There is one recompute rule: a plan is stale when
    :meth:`DABAssignment.window_contains` says so.  A dual-DAB plan goes
    stale when an item leaves its secondary window ``V ± c``; a
    single-DAB plan (Optimal Refresh and the baselines) has no window, so
    any move of one of its inputs makes it stale.  With an
    ``aao_planner`` attached, the first plan is one joint AAO solve and
    the adapter may call :meth:`aao_replan` on its own schedule (AAO-T).

    ``recompute_hook``, when set, is invoked once per recomputation *in
    recomputation order* — the simulator uses it to charge solver time to
    its busy-server clock without the core knowing about clocks.
    """

    def __init__(
        self,
        queries: Sequence[PolynomialQuery],
        planner: object,
        metrics: object,
        initial_values: Mapping[str, float],
        item_to_source: Mapping[str, int],
        aao_planner: Optional[object] = None,
        recompute_hook: Optional[Callable[[], None]] = None,
        solver_breaker: Optional[object] = None,
    ):
        if not queries:
            raise SimulationError("a coordinator needs at least one query")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise SimulationError("query names must be unique at a coordinator")
        self.query_names = set(names)
        self.queries = list(queries)
        self.planner = planner
        self.metrics = metrics
        #: With one attached, the first plan is one joint AAO solve and
        #: :meth:`aao_replan` is open to the adapter's schedule (AAO-T).
        self.aao_planner = aao_planner
        self.item_to_source = dict(item_to_source)
        self.recompute_hook = recompute_hook
        #: Optional circuit breaker around the GP solve (see
        #: :mod:`repro.service.resilience`).  ``None`` — the default, and
        #: what the simulator always passes — leaves every code path
        #: bit-identical to the breaker-less implementation.
        self.solver_breaker = solver_breaker
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
        #: The bounds (and epochs) each source was last sent.
        self.dab_sent = DabSendTable()

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
        #: Queries whose secondary window has been left since they were
        #: registered here: planned at the full μ (the ``exit`` record).
        self.exited: set = set()
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
        #: every power-vector write by :meth:`_set_values`.
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
        if self.aao_planner is not None:
            multi = self.aao_planner.plan_all(self.queries, self.cache,
                                              self._recompute_scales())
            self._replace_plans(multi.per_query)
        else:
            for query in self.queries:
                self.install_plan(query.name, self._plan_query(query))
        self._set_user_values([(query.name, self.query_value(query))
                               for query in self.queries])
        merged = merge_primary(self.plans.values())
        self.dab_sent.record(merged, {})
        return merged

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

    def query_named(self, name: str) -> Optional[PolynomialQuery]:
        """The registered query called ``name``, or ``None`` (O(1))."""
        position = self._position.get(name)
        return None if position is None else self.queries[position]

    def query_value(self, query: PolynomialQuery) -> float:
        return self._compiled[query.name].evaluate_vector(self._power_vector)

    def query_values(self) -> List[float]:
        """Every query's value at the current cache, in ``queries`` order —
        one banked evaluation."""
        return self.query_values_array().tolist()

    def query_values_array(self) -> np.ndarray:
        """Array form of :meth:`query_values`."""
        return self._bank.values_vector(self._power_vector)

    def _set_values(self, items: Sequence[str],
                    values: Sequence[float]) -> List[float]:
        """The ``refresh`` mutator: move each of ``items``' cached value
        to the aligned one of ``values``, in order, and its power slots
        with it; returns the values as floats.  The one writer of the
        power vector after construction — refreshes, a hand-off and a
        replayed value all come through here — because the bank's
        materialised products are only right while it sees every write
        (it marks the items; its next read re-multiplies the terms
        containing them)."""
        cache = self.cache
        floats: List[float] = []
        for item, value in zip(items, values):
            value = cache[item] = float(value)
            floats.append(value)
        self._bank.write(self._power_vector, items, floats)
        return floats

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
        """``item``'s cached value moved with no :meth:`react_to_refresh`
        to follow (a hand-off or a replay): every band computed with it in
        its window is void."""
        if self._bands:
            for query in self.item_index.get(item, ()):
                self._drop_bands(query)

    def install_plan(self, name: str, plan: DABAssignment) -> None:
        """The ``plan`` mutator, and the one way a plan enters
        :attr:`plans` — solve, AAO solve or replay."""
        self.plans[name] = plan
        if self._bands:
            self._drop_bands(self.queries[self._position[name]])

    def _replace_plans(self, plans: Mapping[str, DABAssignment]) -> None:
        """The ``aao`` mutator: swap the whole plan set (joint AAO solve,
        snapshot restore).  The breaker's stand-ins are keyed on plans
        that are gone."""
        self.plans = {}
        self._bands.clear()
        self._windows.clear()
        self._breaker_plans.clear()
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
            plan = self.planner.plan(
                query, self._values_for(query),
                recompute_scale=self.recompute_scale(query.name))
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
        """The last good plan, primary DABs scaled by :data:`BREAKER_SHRINK`.

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
            primary={name: bound * BREAKER_SHRINK
                     for name, bound in previous.primary.items()},
            secondary=previous.secondary,
            reference_values=previous.reference_values,
            recompute_rate=previous.recompute_rate,
            objective=previous.objective,
        )
        self._breaker_plans[query.name] = (previous, shrunk)
        return shrunk

    def plan_query(self, name: str) -> None:
        """Plan query ``name`` — one guarded solve — install the plan and
        journal it as a ``plan`` record."""
        plan = self._plan_query(self.queries[self._position[name]])
        self.install_plan(name, plan)
        self._log("plan", name, plan)

    def recompute_scale(self, name: str) -> float:
        """The share of μ that prices query ``name``'s μ·R row."""
        return 1.0 if name in self.exited else UNEXITED_PRICE

    def _recompute_scales(self) -> Dict[str, float]:
        return {query.name: self.recompute_scale(query.name)
                for query in self.queries}

    def recompute_prices(self) -> Dict[str, int]:
        """How many live queries are planned at each price."""
        exited = len(self.exited)
        return {"discounted": len(self.queries) - exited, "exited": exited}

    def _note_exit(self, name: str) -> None:
        """A window-break recompute of ``name`` is about to run.  The first
        that leaves a secondary window (not a missing plan, not a
        single-DAB plan) is journaled as the query's ``exit`` record,
        ahead of the re-plan's ``plan`` record."""
        if name in self.exited:
            return
        plan = self.plans.get(name)
        if plan is not None and plan.secondary is not None:
            self._exit(name)
            self._log("exit", name)

    def _exit(self, name: str) -> None:
        """The ``exit`` mutator."""
        self.exited.add(name)

    def _recompute(self, query: PolynomialQuery) -> None:
        self.plan_query(query.name)
        self.metrics.record_recomputation(query.name)
        if self.recompute_hook is not None:
            self.recompute_hook()

    # -- refresh processing ------------------------------------------------------------

    def apply_refresh(self, items: Sequence[str], values: Sequence[float],
                      seqs: Optional[Sequence[int]] = None) -> None:
        """A column of accepted refreshes lands in the cache through the
        ``refresh`` mutator, entry ``i`` moving ``items[i]`` to
        ``values[i]`` in entry order (of an item twice, the last value
        stays), and each entry is journaled as one ``refresh`` record.

        ``seqs`` — the entries' accepted sequence numbers, passed by the
        live server so each record carries the dedup high-water mark a
        restarted coordinator must restore.  The simulator never passes
        them (and never journals).
        """
        values = self._set_values(items, values)
        if self.journal is not None:
            for item, value, seq in zip(items, values,
                                        seqs or [None] * len(values)):
                self._log("refresh", item, value, seq)
        self.metrics.record_refresh(len(values))

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
        source = int(source_id) if source_id is not None else None
        self._adopt(item, value, source)
        self._log("adopt", item, self.cache[item], source, seq)

    def _adopt(self, item: str, value: float, source: Optional[int]) -> None:
        """The ``adopt`` mutator."""
        if item in self.cache:
            # Already-known items (a mirror of a cross-shard term) may
            # have live power-table slots to refresh.
            self._set_values((item,), (value,))
            self._drop_bands_around(item)
        else:
            self.cache[item] = float(value)
        if source is not None:
            self.item_to_source[item] = source
        self._adopted_items[item] = source

    def react_to_refresh(self, items: Sequence[str],
                         ) -> Tuple[List[Tuple[str, float]], bool]:
        """Notify users and recompute plans after a batch of refreshes —
        over ``items``, all already applied by :meth:`apply_refresh` —
        landed.

        Returns ``(notifications, recomputed)``: the ``(query name, new
        value)`` pairs whose result moved beyond its QAB since the user
        last saw it, and whether any plan was recomputed (in which case the
        adapter should ship :meth:`changed_bound_updates`).

        The whole batch is judged at the cache it left: one bank read
        (:meth:`_notify_movers`), one notification per moved query that
        reads one of its items, and each query whose window may be broken
        checked — and recomputed — once.  Every item keeps its own
        safe-band screen.  A batch of one is the per-refresh reaction of
        DESIGN.md §8.5 (the simulator reacts to each refresh event
        alone)."""
        if isinstance(items, str):
            raise TypeError("react_to_refresh takes a sequence of items")
        index = self.item_index
        batch = [item for item in dict.fromkeys(items) if index.get(item)]
        if not batch:
            return [], False
        # User notification first: the cache cannot change again within
        # this batch and notifications draw no randomness, so raising them
        # ahead of the recomputations leaves the event-stream state
        # untouched.
        notifications = self._notify_movers(batch)
        recomputed = False
        bands, cache = self._bands, self.cache
        missed = []
        for item in batch:
            band = bands.get(item)
            if band is None:
                band = bands[item] = self._safe_band(item)
            if band[0] <= cache[item] <= band[1]:
                self.window_screen_hits += 1
            else:
                self.window_screen_misses += 1
                missed.append(item)
        if missed:
            # Outside the band (or no band): the reference predicate
            # decides, query by query.  Whatever it finds, the band is
            # rebuilt at the item's next refresh — a standing breach may
            # have just healed.
            for query in _readers(index, missed):
                if self._window_broken(query):
                    self._note_exit(query.name)
                    self._recompute(query)
                    recomputed = True
            for item in missed:
                bands.pop(item, None)
        if notifications:
            # last_user_values gates every future notification, so the
            # values the user saw are part of the recovery state.
            self._log("notify", notifications)
        return notifications, recomputed

    def _notify_movers(self, items: List[str]) -> List[Tuple[str, float]]:
        """Raise the user notifications a batch over ``items`` caused: the
        queries reading one of them whose result moved beyond the QAB
        since the user last saw it, from one read of the bank.

        One item reads its readers (``affected``), in registration order.
        Several read every live query, in bank order: one masked compare
        finds the movers, and only those that read an item of the batch
        are kept — a query moved only by a write no reaction followed
        (``adopt_item``, a replayed refresh) waits for a reaction to one
        of its own items."""
        bank, queries = self._bank, self.queries
        if len(items) == 1:
            idx = bank.affected(items[0])
            sub = bank.values_vector(self._power_vector, idx)
            moved = (np.abs(sub - self._last_user_arr.take(idx))
                     > self._qab_arr.take(idx))
            if not moved.any():
                return []
            idx, sub = idx[moved].tolist(), sub[moved]
        else:
            live = len(queries)
            values = bank.values_vector(self._power_vector)
            moved = np.flatnonzero(np.abs(values - self._last_user_arr[:live])
                                   > self._qab_arr[:live])
            if not moved.size:
                return []
            batch = set(items)
            idx = [position for position in moved.tolist()
                   if not batch.isdisjoint(queries[position].variables)]
            if not idx:
                return []
            sub = values.take(idx)
        notifications = [(queries[position].name, value)
                         for position, value in zip(idx, sub.tolist())]
        self._set_user_values(notifications)
        self.metrics.record_user_notification(len(notifications))
        return notifications

    def _set_user_values(self, values: Iterable[Tuple[str, float]]) -> None:
        """The ``notify`` mutator: the values the users last saw."""
        position = self._position
        for name, value in values:
            self.last_user_values[name] = value
            self._last_user_arr[position[name]] = value

    # -- dynamic membership (live QUERY_SUB path) --------------------------------------

    def add_query(self, query: PolynomialQuery, plan: bool = True) -> int:
        """Register a query at runtime and plan it (``plan=False``: leave
        it unplanned until :meth:`plan_query`); returns its bank
        position."""
        position = self._register(query)
        self._log("qadd", query)
        if plan:
            self.plan_query(query.name)
        return position

    def _register(self, query: PolynomialQuery) -> int:
        """The ``qadd`` mutator.  O(query): the bank (one row of the
        term-product table), the power vector and the notification arrays
        all grow in place."""
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
        self._set_user_values([(name, self.query_value(query))])
        return position

    def remove_query(self, name: str) -> None:
        """Drop a query (swap-remove: the last query takes its bank
        position; O(query))."""
        self._unregister(name)
        self._log("qdel", name)

    def _unregister(self, name: str) -> None:
        """The ``qdel`` mutator."""
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
        self.exited.discard(name)
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

    # -- plan fanout -------------------------------------------------------------------

    def changed_bound_updates(self) -> Dict[int, BoundUpdate]:
        """Diff the merged primary DABs against what each source last saw.

        Records and journals every materially-changed bound under a
        bumped epoch and returns ``{source_id: (bounds, epochs)}`` — one
        entry per source that must be told (each counted as one
        DAB-change message, the overhead μ approximates)."""
        sent = self.dab_sent
        changed, epochs = sent.changes(merge_primary(self.plans.values()))
        if not changed:
            return {}
        sent.record(changed, epochs)
        self._log("bounds", changed, epochs)
        updates = sent.by_source(changed, self.item_to_source)
        self.metrics.record_dab_change_messages(len(updates))
        return updates

    def current_bounds_for(self, source_id: int) -> BoundUpdate:
        """The latest sent bounds (and epochs) for one source — what a
        newly-connected or resyncing source must be programmed with."""
        owner = self.item_to_source
        return self.dab_sent.held(name for name in self.dab_sent.sent
                                  if owner.get(name) == source_id)

    # -- AAO periodic ------------------------------------------------------------------

    def aao_replan(self) -> bool:
        """Full joint recomputation on the AAO-T schedule.

        One AAO solve is counted as a single recomputation (it is one
        coordinated DAB change, whose larger fanout is folded into μ, as in
        the paper's accounting for Figure 7).  Returns False when the solver
        failed and the previous joint plan stays in force."""
        try:
            multi = self.aao_planner.plan_all(self.queries, self.cache,
                                              self._recompute_scales())
        except GPError:
            # Keep serving on the previous joint plan; try again next period.
            self.metrics.record_solver_fallback()
            return False
        self._replace_plans(multi.per_query)
        self.metrics.record_recomputation("__aao__")
        self._log("aao", self.plans)
        return True

    # -- durability: one mutator per journal record kind -----------------------------

    def _log(self, kind: str, *fields: Any) -> None:
        """Journal the change a mutator just made as one ``kind`` record,
        leaving out fields that are ``None``.  With no journal attached
        no record is built."""
        if self.journal is not None:
            self.journal.append({key: value for key, value
                                 in _RECORDS[kind](*fields).items()
                                 if value is not None})

    def replay(self, record: Mapping[str, Any]) -> None:
        """Apply one journal record through the mutator its live writer
        called.  A record naming a query or item this core does not hold
        (for ``qadd``: one it holds) changes nothing."""
        read = self._READERS.get(record.get("t"))
        if read is None:
            raise JournalError(
                f"unknown journal record type {record.get('t')!r}")
        read(self, record)

    def _replay_refresh(self, record: Mapping[str, Any]) -> None:
        item = record["item"]
        if item in self.cache:
            self._set_values((item,), (record["value"],))
            self._drop_bands_around(item)

    def _replay_exit(self, record: Mapping[str, Any]) -> None:
        if record["q"] in self.query_names:
            self._exit(record["q"])

    def _replay_plan(self, record: Mapping[str, Any]) -> None:
        if record["q"] in self.query_names:
            self.install_plan(record["q"], plan_from_wire(record["plan"]))

    def _replay_aao(self, record: Mapping[str, Any]) -> None:
        self._replace_plans({name: plan_from_wire(wire) for name, wire
                             in record["plans"].items()
                             if name in self.query_names})

    def _replay_bounds(self, record: Mapping[str, Any]) -> None:
        cache = self.cache
        self.dab_sent.record(
            {name: float(bound) for name, bound in record["bounds"].items()
             if name in cache},
            {name: int(epoch) for name, epoch in record["epochs"].items()
             if name in cache})

    def _replay_notify(self, record: Mapping[str, Any]) -> None:
        self._set_user_values((name, float(value)) for name, value
                              in record["values"].items()
                              if name in self.query_names)

    def _replay_qadd(self, record: Mapping[str, Any]) -> None:
        query = query_from_wire(record["query"])
        if query.name not in self.query_names:
            self._register(query)

    def _replay_qdel(self, record: Mapping[str, Any]) -> None:
        if record["name"] in self.query_names:
            self._unregister(record["name"])

    def _replay_adopt(self, record: Mapping[str, Any]) -> None:
        source = record.get("source")
        self._adopt(record["item"], record["value"],
                    int(source) if source is not None else None)

    #: record kind -> how :meth:`replay` reads it.
    _READERS = {
        "refresh": _replay_refresh, "exit": _replay_exit,
        "plan": _replay_plan, "aao": _replay_aao,
        "bounds": _replay_bounds, "notify": _replay_notify,
        "qadd": _replay_qadd, "qdel": _replay_qdel, "adopt": _replay_adopt,
    }

    def recovery_state(self) -> Dict[str, object]:
        """Everything a restarted coordinator must restore to be
        indistinguishable from this one, as a JSON-safe dict: the item
        cache, per-item DAB epochs, the bounds each source last saw, the
        values each user last saw, every current plan (which is also the
        breaker's last-good plan set) and the queries whose window has
        been left."""
        state: Dict[str, object] = {
            "cache": dict(self.cache),
            "epochs": dict(self.dab_sent.epochs),
            "last_sent_bounds": dict(self.dab_sent.sent),
            "last_user_values": dict(self.last_user_values),
            "plans": _plans_to_wire(self.plans),
        }
        if self.dynamic_names:
            # Only when present — snapshots of a static bank stay
            # byte-identical to the pre-index format.  In registration
            # order (``_compiled`` gains a key per registration and loses
            # it on removal), so a restore rebuilds ``item_index`` — the
            # order queries are recomputed in — as the live core has it.
            state["dynamic_queries"] = [
                query_to_wire(self.query_named(name))
                for name in self._compiled if name in self.dynamic_names]
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
        if self.exited:
            # Only once a window was left — snapshots of a run with no
            # exit keep the format that had no such key.
            state["exited"] = sorted(self.exited)
        return state

    def restore_recovery_state(self, state: Mapping[str, Any]) -> None:
        """Adopt a :meth:`recovery_state` snapshot by replaying the
        records that rebuild it.  Adopted items come before the dynamic
        queries that may read them.  Dynamic queries come before the
        static removals, so no removal empties the bank; the exception is
        a dynamic query named like a removed static one, which is that
        query's replacement and follows its ``qdel``.  The exits follow
        the membership; values, bounds, user values and the plan set come
        last.  A snapshot with no ``exited`` key restores every query
        unexited."""
        dynamic = {wire["name"]: wire
                   for wire in state.get("dynamic_queries", ())}
        records: List[Dict[str, Any]] = [
            {"t": "adopt", "item": item, "value": 0.0, "source": source}
            for item, source in (state.get("adopted_items") or {}).items()]
        records += [{"t": "qadd", "query": wire} for wire in dynamic.values()]
        for name in state.get("removed_queries", ()):
            records.append({"t": "qdel", "name": name})
            if name in dynamic:
                records.append({"t": "qadd", "query": dynamic[name]})
        records += [{"t": "exit", "q": name}
                    for name in state.get("exited", ())]
        records += [{"t": "refresh", "item": item, "value": value}
                    for item, value in state["cache"].items()]
        records += [
            {"t": "bounds", "bounds": state["last_sent_bounds"],
             "epochs": state["epochs"]},
            {"t": "notify", "values": state["last_user_values"]},
            {"t": "aao", "plans": state["plans"]}]
        for record in records:
            self.replay(record)


def _plans_to_wire(plans: Mapping[str, DABAssignment]) -> Dict[str, Any]:
    return {name: plan_to_wire(plan) for name, plan in sorted(plans.items())}


#: record kind -> its journal record, from the fields its live writer
#: passes :meth:`CoordinatorCore._log`.
_RECORDS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "refresh": lambda item, value, seq: {"t": "refresh", "item": item,
                                         "value": value, "seq": seq},
    "exit": lambda name: {"t": "exit", "q": name},
    "plan": lambda name, plan: {"t": "plan", "q": name,
                                "plan": plan_to_wire(plan)},
    "aao": lambda plans: {"t": "aao", "plans": _plans_to_wire(plans)},
    "bounds": lambda bounds, epochs: {"t": "bounds", "bounds": bounds,
                                      "epochs": epochs},
    "notify": lambda values: {"t": "notify", "values": dict(values)},
    "qadd": lambda query: {"t": "qadd", "query": query_to_wire(query)},
    "qdel": lambda name: {"t": "qdel", "name": name},
    "adopt": lambda item, value, source, seq: {
        "t": "adopt", "item": item, "value": value, "source": source,
        "seq": seq},
}

#: Every journal record kind, in the order ``repro journal inspect``
#: lists them.
RECORD_KINDS = tuple(CoordinatorCore._READERS)
