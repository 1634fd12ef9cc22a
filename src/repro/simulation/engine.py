"""The event loop.

The engine owns the queue and the clock.  Integer TICKs drive the sources;
a FIDELITY sample runs half a tick later so that zero-delay messages (the
Condition-1 correctness setting) are reflected in the same tick's sample.
All other events are dispatched to registered handlers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.exceptions import SimulationError
from repro.simulation.events import Event, EventKind, EventQueue

#: Offset of the fidelity sample within a tick — after same-tick message
#: deliveries with typical (~110 ms) delays, before the next tick.
_FIDELITY_OFFSET = 0.5


class SimulationEngine:
    """Processes events in time order for a fixed number of ticks."""

    def __init__(self, duration: int, fidelity_interval: int = 1):
        if duration < 1:
            raise SimulationError(f"duration must be >= 1 tick, got {duration!r}")
        if fidelity_interval < 1:
            raise SimulationError(
                f"fidelity interval must be >= 1 tick, got {fidelity_interval!r}"
            )
        self.duration = duration
        self.fidelity_interval = fidelity_interval
        self.queue = EventQueue()
        self._handlers: Dict[EventKind, Callable[[Event], None]] = {}
        self._tick_handlers: List[Callable[[int], None]] = []
        self._fidelity_handlers: List[Callable[[int], None]] = []

    # -- registration -------------------------------------------------------------

    def on(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        if kind in self._handlers:
            raise SimulationError(f"handler for {kind} already registered")
        self._handlers[kind] = handler

    def on_tick(self, handler: Callable[[int], None]) -> None:
        self._tick_handlers.append(handler)

    def on_fidelity_sample(self, handler: Callable[[int], None]) -> None:
        self._fidelity_handlers.append(handler)

    # -- the loop -------------------------------------------------------------------

    def run(self) -> None:
        self.queue.push(Event(0.0, EventKind.TICK))
        self.queue.push(Event(_FIDELITY_OFFSET, EventKind.TICK, {"fidelity": True}))
        horizon = float(self.duration)
        while self.queue:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > horizon + _FIDELITY_OFFSET:
                break
            event = self.queue.pop()
            if event.kind is EventKind.TICK:
                if event.payload.get("fidelity"):
                    tick = int(event.time - _FIDELITY_OFFSET)
                    for handler in self._fidelity_handlers:
                        handler(tick)
                    next_sample = event.time + self.fidelity_interval
                    if next_sample <= horizon + _FIDELITY_OFFSET:
                        self.queue.push(Event(next_sample, EventKind.TICK,
                                              {"fidelity": True}))
                else:
                    tick = int(event.time)
                    for handler in self._tick_handlers:
                        handler(tick)
                    if tick + 1 <= self.duration:
                        self.queue.push(Event(float(tick + 1), EventKind.TICK))
                continue
            handler = self._handlers.get(event.kind)
            if handler is None:
                raise SimulationError(f"no handler registered for {event.kind}")
            handler(event)
