"""The DAB plane as five hand-written copies, kept as an oracle.

Each DAB sender and receiver used to carry its own copy of the rules that
:mod:`repro.service.source_plane` now holds once (DESIGN.md §7.2): three
senders min-merged their votes and diffed the result against what they
last shipped — the coordinator core, the cluster router (per shard vote,
with ``drop_stale_votes``) and the Fig. 8(c) root relay — and two
receivers applied a bound only under a newer epoch — the simulated
``SourceNode`` and the live ``SourceAgent``.  The copies below are those
bodies, verbatim but for the state they reach (plain attributes here,
the node's own fields there), so ``tests/service/test_dab_plane.py`` can
drive them and the shipped nodes with the same sequences.  The relay's
per-child port had no epoch rule at all; it is not kept.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.filters.assignment import merge_primary

#: Relative change below which a DAB update is not worth a message.
_DAB_CHANGE_REL_TOL = 1e-9

#: One source's update: ``(bounds, epochs)`` keyed by item name.
BoundUpdate = Tuple[Dict[str, float], Dict[str, int]]


class CoreBounds:
    """``CoordinatorCore``'s bound diffing: ``bootstrap``'s seed,
    ``changed_bound_updates``, the ``bounds`` mutator and its replay, and
    ``current_bounds_for``.  ``records`` collects the ``bounds`` journal
    records and ``dab_change_messages`` the metric."""

    def __init__(self, item_to_source: Mapping[str, int]):
        self.item_to_source = dict(item_to_source)
        self._last_sent_bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.records: List[Dict[str, Any]] = []
        self.dab_change_messages = 0

    def bootstrap(self, plans) -> Dict[str, float]:
        merged = merge_primary(plans)
        self._last_sent_bounds = dict(merged)
        return merged

    def changed_bound_updates(self, plans) -> Dict[int, BoundUpdate]:
        sent = self._last_sent_bounds
        changed: Dict[str, float] = {}
        for name, bound in merge_primary(plans).items():
            previous = sent.get(name)
            if previous is not None and abs(bound - previous) <= _DAB_CHANGE_REL_TOL * previous:
                continue
            changed[name] = bound
        if not changed:
            return {}
        epochs = {name: self.epochs.get(name, 0) + 1 for name in changed}
        self._set_bounds(changed, epochs)
        self.records.append({"t": "bounds", "bounds": changed,
                             "epochs": epochs})
        by_source: Dict[int, Dict[str, float]] = {}
        for name, bound in changed.items():
            source_id = self.item_to_source.get(name)
            if source_id is not None:
                by_source.setdefault(source_id, {})[name] = bound
        self.dab_change_messages += len(by_source)
        return {source_id: (bounds, {name: epochs[name] for name in bounds})
                for source_id, bounds in by_source.items()}

    def _set_bounds(self, bounds: Mapping[str, float],
                    epochs: Mapping[str, int]) -> None:
        self._last_sent_bounds.update(bounds)
        self.epochs.update(epochs)

    def replay_bounds(self, record: Mapping[str, Any],
                      cache: Mapping[str, float]) -> None:
        self._set_bounds(
            {name: float(bound) for name, bound in record["bounds"].items()
             if name in cache},
            {name: int(epoch) for name, epoch in record["epochs"].items()
             if name in cache})

    def current_bounds_for(self, source_id: int) -> BoundUpdate:
        bounds = {name: bound for name, bound in self._last_sent_bounds.items()
                  if self.item_to_source.get(name) == source_id}
        epochs = {name: self.epochs.get(name, 0) for name in bounds}
        return bounds, epochs


class RouterBounds:
    """The cluster router's per-vote min-merge: ``_merge_shard_bounds``,
    ``_push_changed_bounds`` (its sends, in order), ``drop_stale_votes``
    and the bounds of a registration reply."""

    def __init__(self, item_to_source: Mapping[str, int]):
        self.item_to_source = dict(item_to_source)
        self._shard_bounds: Dict[str, Dict[int, float]] = {}
        self._effective_bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.last_seq: Dict[str, int] = {}

    def merge_shard_bounds(self, sid: int,
                           message: Mapping[str, Any]) -> Dict[str, float]:
        changed: Dict[str, float] = {}
        for name, bound in (message.get("bounds") or {}).items():
            votes = self._shard_bounds.setdefault(name, {})
            votes[sid] = float(bound)
            effective = min(votes.values())
            previous = self._effective_bounds.get(name)
            if (previous is not None
                    and abs(effective - previous)
                    <= _DAB_CHANGE_REL_TOL * previous):
                continue
            self._effective_bounds[name] = effective
            self.epochs[name] = self.epochs.get(name, 0) + 1
            changed[name] = effective
        for item, seq in (message.get("seqs") or {}).items():
            if seq > self.last_seq.get(item, 0):
                self.last_seq[item] = int(seq)
        return changed

    def push_changed_bounds(self, changed: Mapping[str, float]
                            ) -> List[Tuple[int, BoundUpdate]]:
        sends: List[Tuple[int, BoundUpdate]] = []
        if not changed:
            return sends
        by_source: Dict[int, Tuple[Dict[str, float], Dict[str, int]]] = {}
        for name, bound in changed.items():
            source_id = self.item_to_source.get(name)
            if source_id is None:
                continue
            bounds, epochs = by_source.setdefault(source_id, ({}, {}))
            bounds[name] = bound
            epochs[name] = self.epochs[name]
        for source_id, (bounds, epochs) in sorted(by_source.items()):
            sends.append((source_id, (bounds, epochs)))
        return sends

    def drop_stale_votes(self, item: str, keep: Iterable[int]) -> None:
        keep = set(keep)
        votes = self._shard_bounds.get(item)
        if not votes:
            return
        for sid in [s for s in votes if s not in keep]:
            del votes[sid]
        if not votes:
            self._shard_bounds.pop(item, None)

    def registration(self, source_id: int,
                     items: Iterable[str]) -> BoundUpdate:
        items = [name for name in items
                 if self.item_to_source.get(name) == source_id]
        bounds = {name: self._effective_bounds[name] for name in items
                  if name in self._effective_bounds}
        epochs = {name: self.epochs[name] for name in bounds}
        return bounds, epochs


class RelayBounds:
    """The Fig. 8(c) root relay's ``_global_min_bounds`` and
    ``_reprogram_sources``: ``seeds`` collects the bootstrap's direct
    source programming, ``messages`` the ``(source, bounds, epochs)`` of
    each DAB change in send order."""

    def __init__(self, item_to_source: Mapping[str, int],
                 source_ids: Iterable[int]):
        self.item_to_source = dict(item_to_source)
        self.source_ids = list(source_ids)
        self.epochs: Dict[str, int] = {}
        self.child_bounds: Dict[int, Dict[str, float]] = {}
        self.seeds: List[Tuple[int, Dict[str, float]]] = []
        self.messages: List[Tuple[int, Dict[str, float], Dict[str, int]]] = []
        self._bootstrapped = False

    def update_child_bounds(self, child_id: int,
                            bounds: Mapping[str, float]) -> None:
        store = self.child_bounds.setdefault(child_id, {})
        store.update({name: float(b) for name, b in bounds.items()})
        if self._bootstrapped:
            self._reprogram_sources(send=True)

    def bootstrap(self) -> None:
        self._reprogram_sources(send=False)
        self._bootstrapped = True

    def _global_min_bounds(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for bounds in self.child_bounds.values():
            for name, b in bounds.items():
                current = merged.get(name)
                if current is None or b < current:
                    merged[name] = b
        return merged

    def _reprogram_sources(self, send: bool) -> None:
        merged = self._global_min_bounds()
        if not send:
            for source_id in self.source_ids:
                self.seeds.append((source_id, {
                    name: bound for name, bound in merged.items()
                    if self.item_to_source.get(name) == source_id}))
            self._last_sent = dict(merged)
            return
        changed_by_source: Dict[int, Dict[str, float]] = {}
        last = getattr(self, "_last_sent", {})
        for name, bound in merged.items():
            previous = last.get(name)
            if previous is not None and abs(bound - previous) <= 1e-9 * previous:
                continue
            last[name] = bound
            self.epochs[name] = self.epochs.get(name, 0) + 1
            changed_by_source.setdefault(self.item_to_source[name], {})[name] = bound
        self._last_sent = last
        for source_id, bounds in changed_by_source.items():
            self.messages.append(
                (source_id, bounds,
                 {name: self.epochs[name] for name in bounds}))


class SourceBounds:
    """``SourceNode.set_bounds`` over the node's items, with its two
    counters."""

    def __init__(self, items: Iterable[str]):
        self.last_pushed = dict.fromkeys(items, 0.0)
        self.bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.misrouted_bounds = 0
        self.duplicate_rejects = 0

    def set_bounds(self, bounds: Mapping[str, float],
                   epochs: Optional[Mapping[str, int]] = None) -> None:
        for name, value in bounds.items():
            if name not in self.last_pushed:
                self.misrouted_bounds += 1
                continue
            if epochs is not None:
                epoch = epochs.get(name)
                if epoch is not None and epoch <= self.epochs.get(name, -1):
                    self.duplicate_rejects += 1
                    continue
                if epoch is not None:
                    self.epochs[name] = int(epoch)
            self.bounds[name] = float(value)


class AgentBounds:
    """``SourceAgent.apply_dab_update`` over the agent's items, with its
    two counters and seq floors."""

    def __init__(self, items: Iterable[str]):
        self.values = dict.fromkeys(items, 0.0)
        self.bounds: Dict[str, float] = {}
        self.epochs: Dict[str, int] = {}
        self.seq: Dict[str, int] = dict.fromkeys(self.values, 0)
        self.stats = {"dab_updates_applied": 0,
                      "dab_updates_rejected_stale_epoch": 0}

    def apply_dab_update(self, bounds: Mapping[str, float],
                         epochs: Mapping[str, Any],
                         seqs: Optional[Mapping[str, Any]] = None) -> None:
        for name, bound in bounds.items():
            if name not in self.values:
                continue        # misrouted — not ours to filter
            epoch = int(epochs.get(name, 0))
            if epoch <= self.epochs.get(name, -1):
                self.stats["dab_updates_rejected_stale_epoch"] += 1
                continue
            self.epochs[name] = epoch
            self.bounds[name] = float(bound)
            self.stats["dab_updates_applied"] += 1
        if seqs:
            for name, floor in seqs.items():
                if name in self.seq:
                    self.seq[name] = max(self.seq[name], int(floor))
