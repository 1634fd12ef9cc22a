"""Outside-in layer trace: timing wrappers around the layers' public calls.

One table, :data:`SPAN_TABLE`, maps ``(module, attribute)`` to a span
name.  :func:`install` replaces each named callable with a wrapper that
records a span; :func:`uninstall` puts the originals back.  Nothing in
``src/`` knows about this module — spans *inside* the program are a
later issue — so the wrappers sit exactly where a caller crosses into a
layer:

* a class method is patched on its class;
* a module-level function is patched in **every** loaded ``repro``
  module that holds a binding to it, because ``from m import f`` copies
  the name to where it is looked up;
* the planner is patched on the *instance* the coordinator holds, since
  which planner class ships is a policy the benchmark must not know.

Spans are kept in memory as columns (:data:`COLUMNS`) with a per-process
stack of the running ones, and written out when the run ends.  ``start``/``end`` are
``time.perf_counter()`` readings — ``CLOCK_MONOTONIC`` on Linux, so the
generator's and the server's spans share one time axis.  ``busy`` is the
time the call actually ran: ``end - start`` for a plain function, the sum
of its running segments for a coroutine that suspended in between.
A span's *self time* is its ``busy`` minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

#: Column layout of the span store.  ``name`` and ``kind`` index the
#: ``strings`` table; ``parent`` is a span index (-1 = none); ``item`` (an
#: index into ``strings``, -1 = none) and ``seq`` are the request id — the
#: refresh's ``(item, seq)`` where the call can see it, else inherited
#: from the parent span or the process's latest request; ``kind`` and
#: ``count`` are span-specific (see the ``_describe_*`` functions).
COLUMNS = ("name", "start", "end", "busy", "parent", "item", "seq",
           "kind", "count")

#: ``describe(args, kwargs, result) -> (item, seq, kind, count)``; ``item``
#: and ``kind`` are strings or ``None``.
Describe = Callable[[tuple, dict, Any], Tuple[Any, int, Any, int]]


def _describe_encode(args: tuple, kwargs: dict, frame: Any):
    """kind = message type, count = frame bytes."""
    message = args[0]
    kind = message.get("type")
    if kind == "refresh":
        return message.get("item"), message.get("seq", 0), kind, len(frame)
    return None, 0, kind, len(frame)


def _describe_decode(args: tuple, kwargs: dict, message: Any):
    """kind = message type, count = body bytes."""
    kind = message.get("type")
    if kind == "refresh":
        return message.get("item"), message.get("seq", 0), kind, len(args[0])
    return None, 0, kind, len(args[0])


def _describe_send(args: tuple, kwargs: dict, result: Any):
    """kind = message type."""
    message = args[1]
    kind = message.get("type")
    if kind == "refresh":
        return message.get("item"), message.get("seq", 0), kind, 0
    return None, 0, kind, 0


def _describe_apply(args: tuple, kwargs: dict, result: Any):
    seq = kwargs.get("seq", args[3] if len(args) > 3 else None)
    return args[1], seq or 0, None, 0


def _describe_react(args: tuple, kwargs: dict, result: Any):
    """count = notifications raised; kind = "recomputed" when a plan was."""
    notifications, recomputed = result
    return None, 0, "recomputed" if recomputed else None, len(notifications)


def _describe_filter(args: tuple, kwargs: dict, messages: Any):
    """count = refreshes that passed the filter (of ``len(updates)``)."""
    return None, 0, None, len(messages)


#: ``(module, attribute path, span name, describe)`` — every public call
#: the benchmark times from outside.  Two rows may share a span name when
#: they are alternative implementations of one layer step.
SPAN_TABLE: Tuple[Tuple[str, str, str, Optional[Describe]], ...] = (
    ("repro.service.agent", "SourceAgent.pending_refreshes",
     "agent.filter", _describe_filter),
    ("repro.service.protocol", "encode_frame",
     "protocol.encode", _describe_encode),
    ("repro.service.protocol", "decode_body",
     "protocol.decode", _describe_decode),
    ("repro.service.transports", "MessageStream.send",
     "transports.send", _describe_send),
    ("repro.service.core", "CoordinatorCore.bootstrap", "setup.plan", None),
    ("repro.service.core", "CoordinatorCore.apply_refresh",
     "core.apply_refresh", _describe_apply),
    ("repro.service.core", "CoordinatorCore.react_to_refresh",
     "core.react", _describe_react),
    ("repro.service.core", "CoordinatorCore.changed_bound_updates",
     "core.bound_updates", None),
    ("repro.service.core", "CoordinatorCore.add_query",
     "core.add_query", None),
    ("repro.service.core", "CoordinatorCore.remove_query",
     "core.remove_query", None),
    ("repro.queries.compiled", "CompiledQueryBank.values_vector",
     "bank.evaluate", None),
    ("repro.queries.bank_index", "SharedStructureBank.refresh_movers",
     "bank.evaluate", None),
    ("repro.gp.solver", "solve", "gp.solve_program", None),
    ("repro.gp.solver", "solve_compiled", "gp.solve", None),
    ("repro.workloads.scenarios", "scaled_scenario", "setup.scenario", None),
    ("repro.filters.shard_budget", "decompose_bank", "setup.decompose", None),
    ("repro.filters.shard_budget", "recombine", "router.recombine", None),
    ("repro.service.journal", "Journal.append", "journal.append", None),
)

#: Span name of the planner instance's ``.plan``.
PLANNER_SPAN = "planner.plan"


class Recorder:
    """One process's spans, as typed columns, and the stack of the spans
    currently running.

    Columns of machine numbers, not one object per span: a traced
    ``steady_fanout`` server records ~6 spans per refresh, and a list per
    span costs more in allocation, cache misses and garbage-collector
    passes than the calls it times.
    """

    def __init__(self) -> None:
        self.strings: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("l")
        self.item = array("h")
        self.seq = array("q")
        self.kind = array("h")
        self.count = array("q")
        self.stack: List[int] = []

    def intern(self, text: Optional[str]) -> int:
        if text is None:
            return -1
        index = self._ids.get(text)
        if index is None:
            index = self._ids[text] = len(self.strings)
            self.strings.append(text)
        return index

    def open(self, name_id: int) -> int:
        """Append a span with empty timings; returns its index."""
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(-1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        self.item.append(-1)
        self.seq.append(0)
        self.kind.append(-1)
        self.count.append(0)
        return index

    def describe(self, index: int, described: Tuple[Any, int, Any, int]) -> None:
        item, seq, kind, count = described
        if item is not None:
            self.item[index] = self.intern(item)
            self.seq[index] = seq
        if kind is not None:
            self.kind[index] = self.intern(kind)
        self.count[index] = count

    def export(self) -> Dict[str, Any]:
        """The columns as plain lists, every request id resolved
        (explicit, else the parent's, else the latest explicit one seen
        at top level)."""
        item, seq, parent = self.item, self.seq, self.parent
        latest = (-1, 0)
        for index in range(len(item)):
            if item[index] >= 0:
                if parent[index] < 0:
                    latest = (item[index], seq[index])
                continue
            above = parent[index]
            item[index], seq[index] = ((item[above], seq[above])
                                       if above >= 0 else latest)
        columns: Dict[str, Any] = {column: getattr(self, column).tolist()
                                   for column in COLUMNS}
        columns["strings"] = list(self.strings)
        return columns


def _wrap_sync(function: Callable, name: str, recorder: Recorder,
               describe: Optional[Describe]) -> Callable:
    name_id = recorder.intern(name)
    stack, open_span = recorder.stack, recorder.open
    parents, starts = recorder.parent, recorder.start
    ends, busies = recorder.end, recorder.busy

    @functools.wraps(function)
    def timed(*args, **kwargs):
        index = open_span(name_id)
        if stack:
            parents[index] = stack[-1]
        stack.append(index)
        starts[index] = started = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            ends[index] = ended = perf_counter()
            busies[index] = ended - started
            stack.pop()
        if describe is not None:
            recorder.describe(index, describe(args, kwargs, result))
        return result

    return timed


class _TimedAwaitable:
    """Drive a coroutine step by step, timing only its running segments.

    While the coroutine is suspended other tasks run and record their own
    spans; keeping this span on the stack across the suspension would make
    them its children.  So the span is pushed on resume and popped on
    suspend, and ``busy`` sums the segments.
    """

    __slots__ = ("_coroutine", "_index", "_recorder")

    def __init__(self, coroutine: Any, index: int, recorder: Recorder):
        self._coroutine = coroutine
        self._index = index
        self._recorder = recorder

    def __await__(self):
        recorder, index = self._recorder, self._index
        stack = recorder.stack
        inner = self._coroutine.__await__()
        step, value = inner.send, None
        if stack:
            recorder.parent[index] = stack[-1]
        recorder.start[index] = perf_counter()
        while True:
            stack.append(index)
            resumed = perf_counter()
            try:
                yielded = step(value)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.end[index] = suspended = perf_counter()
                recorder.busy[index] += suspended - resumed
                stack.pop()
            try:
                value = yield yielded
                step = inner.send
            except BaseException as error:      # cancellation, thrown in
                step, value = inner.throw, error


def _wrap_async(function: Callable, name: str, recorder: Recorder,
                describe: Optional[Describe]) -> Callable:
    name_id = recorder.intern(name)

    @functools.wraps(function)
    def timed(*args, **kwargs):
        index = recorder.open(name_id)
        if describe is not None:
            recorder.describe(index, describe(args, kwargs, None))
        return _TimedAwaitable(function(*args, **kwargs), index, recorder)

    return timed


def _wrap(function: Callable, name: str, recorder: Recorder,
          describe: Optional[Describe]) -> Callable:
    wrap = (_wrap_async if inspect.iscoroutinefunction(function)
            else _wrap_sync)
    return wrap(function, name, recorder, describe)


#: One undo record: ``(owner, attribute, original)``; ``original`` is
#: :data:`_ABSENT` when the owner's own ``__dict__`` had no such entry.
_ABSENT = object()
Patch = Tuple[Any, str, Any]


def _bindings(function: Any) -> Iterable[Tuple[Any, str]]:
    """Every ``(module, name)`` in a loaded ``repro`` module bound to
    ``function`` itself — the definition and each ``from … import``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                yield module, name


def _targets(planners: Iterable[Any] = ()):
    """``(owner, attribute, original, span name, describe)`` for every
    binding :func:`install` replaces."""
    for module_name, path, name, describe in SPAN_TABLE:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            yield owner, attribute, vars(owner)[attribute], name, describe
        else:
            original = getattr(module, attribute)
            for holder, bound_name in list(_bindings(original)):
                yield holder, bound_name, original, name, describe
    for planner in planners:
        yield planner, "plan", planner.plan, PLANNER_SPAN, None


def patch_targets(planners: Iterable[Any] = ()) -> List[Tuple[Any, str]]:
    """The ``(owner, attribute)`` pairs :func:`install` would touch (call
    it while nothing is installed)."""
    return [(owner, attribute)
            for owner, attribute, _, _, _ in _targets(planners)]


def install(recorder: Recorder, planners: Iterable[Any] = ()) -> List[Patch]:
    """Wrap every :data:`SPAN_TABLE` entry (and each planner instance's
    ``plan``); returns the undo list for :func:`uninstall`."""
    undo: List[Patch] = []
    wrapped: Dict[int, Callable] = {}
    for owner, attribute, original, name, describe in list(_targets(planners)):
        # One wrapper per original, shared by all its bindings.
        if id(original) not in wrapped:
            wrapped[id(original)] = _wrap(original, name, recorder, describe)
        undo.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, wrapped[id(original)])
    return undo


def uninstall(undo: List[Patch]) -> None:
    """Restore every patched attribute to the object it held before."""
    while undo:
        owner, attribute, original = undo.pop()
        if original is _ABSENT:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, original)


def self_times(columns: Mapping[str, Any]) -> List[float]:
    """Per-span self time: ``busy`` minus the direct children's ``busy``."""
    own = list(columns["busy"])
    for busy, parent in zip(columns["busy"], columns["parent"]):
        if parent >= 0:
            own[parent] -= busy
    return own


def span_names(columns: Mapping[str, Any]) -> List[str]:
    strings = columns["strings"]
    return [strings[index] for index in columns["name"]]


def totals(columns: Mapping[str, Any], since: float = 0.0,
           until: float = float("inf")) -> Dict[str, Dict[str, float]]:
    """``{name: {"count", "busy", "self"}}`` over the spans that started
    in ``[since, until)``."""
    summary: Dict[str, Dict[str, float]] = {}
    for name, start, busy, own in zip(span_names(columns), columns["start"],
                                      columns["busy"], self_times(columns)):
        if not since <= start < until:
            continue
        entry = summary.setdefault(
            name, {"count": 0, "busy": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["busy"] += busy
        entry["self"] += own
    return summary
