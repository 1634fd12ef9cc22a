"""Fault injection — the simulator's unreliable-network model.

The paper's evaluation (and its Condition 1 correctness argument) assumes
every refresh and DAB-change message is delivered, in order, to a live
peer.  This module drops that assumption so the protocol's degradation
can be measured: a :class:`FaultModel` injects per-link message loss,
source crash/recovery windows, network partitions, delay spikes and
duplicate deliveries, all from seeded RNG substreams so that

* a run with a given fault seed is exactly reproducible, and
* each link draws from its *own* substream — adding traffic (or faults)
  on one link never perturbs the fault decisions on another.

A disabled model (the default ``FaultConfig()``) is a provable no-op: no
RNG is ever created or drawn from, no extra event is scheduled, and the
simulation's event sequence is bit-identical to the fault-free path.

The recovery protocol the rest of :mod:`repro.simulation` layers on top
(per-item DAB epochs, staleness leases, ack/retry delivery, solver
fallback) is described in DESIGN.md §7.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.service.resilience import RetryPolicy


@dataclass(frozen=True)
class CrashWindow:
    """Source ``source_id`` is down (no pushes, no message receipt) during
    ``[start, end)``; it recovers — and resyncs — at ``end``."""

    source_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0.0 or self.end <= self.start:
            raise SimulationError(
                f"crash window needs 0 <= start < end, got [{self.start}, {self.end})"
            )

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class PartitionWindow:
    """Every message sent during ``[start, end)`` is lost (a full network
    partition between sources and the coordinator)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0.0 or self.end <= self.start:
            raise SimulationError(
                f"partition window needs 0 <= start < end, got [{self.start}, {self.end})"
            )

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class DelaySpike:
    """Messages sent during ``[start, end)`` see their delay multiplied by
    ``factor`` (congestion / a routing flap)."""

    start: float
    end: float
    factor: float = 5.0

    def __post_init__(self) -> None:
        if self.start < 0.0 or self.end <= self.start:
            raise SimulationError(
                f"delay spike needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.factor < 1.0:
            raise SimulationError(f"delay-spike factor must be >= 1, got {self.factor!r}")

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


#: The simulator's DAB-change retransmit schedule: checks fall 2, 4, 8, 16,
#: then every 30 ticks after each send, and a change is given up on after
#: 8 resends.
DAB_RETRY = RetryPolicy(base_delay=2.0, backoff=2.0, max_delay=30.0,
                        max_attempts=9)


@dataclass
class FaultConfig:
    """What to inject, and how the protocol degrades around it.

    The default config injects nothing and ``FaultModel(FaultConfig())``
    is a no-op; any non-trivial fault channel enables the model *and* the
    recovery machinery (heartbeats, leases, ack/retry).
    """

    #: Per-message i.i.d. loss probability on every link.
    loss_rate: float = 0.0
    #: Per-message probability that a delivered message arrives twice.
    duplicate_rate: float = 0.0
    crash_windows: Tuple[CrashWindow, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    delay_spikes: Tuple[DelaySpike, ...] = ()
    #: Substream seed; independent of the simulation's delay seed.
    seed: int = 0

    # -- degradation / recovery knobs (seconds == ticks) -----------------------
    #: An item unheard-from for this long is marked suspect.
    lease_duration: float = 20.0
    #: How often the coordinator scans for expired leases.
    lease_check_interval: float = 5.0
    #: Sources heartbeat at this period so quiet items renew their leases.
    heartbeat_interval: float = 10.0
    #: Relative drift a suspect item is conservatively assumed to have
    #: accumulated per lease duration (widens reported uncertainty).
    suspect_drift_rel: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate < 1.0):
            raise SimulationError(f"loss rate must be in [0, 1), got {self.loss_rate!r}")
        if not (0.0 <= self.duplicate_rate < 1.0):
            raise SimulationError(
                f"duplicate rate must be in [0, 1), got {self.duplicate_rate!r}")
        self.crash_windows = tuple(self.crash_windows)
        self.partitions = tuple(self.partitions)
        self.delay_spikes = tuple(self.delay_spikes)
        for knob in ("lease_duration", "lease_check_interval", "heartbeat_interval"):
            if getattr(self, knob) <= 0.0:
                raise SimulationError(f"{knob} must be positive")
        if self.suspect_drift_rel < 0.0:
            raise SimulationError("suspect_drift_rel must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when any fault channel can fire."""
        return bool(
            self.loss_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.crash_windows
            or self.partitions
            or self.delay_spikes
        )


class FaultModel:
    """Seeded, substream-deterministic fault decisions.

    Each link (a caller-chosen string such as ``"src3->coord"``) lazily
    gets its own ``numpy`` Generator derived from ``(seed, crc32(link))``,
    so the decision stream per link depends only on the fault seed and the
    per-link message order — never on interleaving across links.
    """

    def __init__(self, config: Optional[FaultConfig] = None):
        self.config = config if config is not None else FaultConfig()
        self.enabled = self.config.enabled
        self._streams: Dict[str, np.random.Generator] = {}

    def _rng(self, link: str) -> np.random.Generator:
        rng = self._streams.get(link)
        if rng is None:
            sub = zlib.crc32(link.encode("utf-8"))
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(self.config.seed, sub)))
            self._streams[link] = rng
        return rng

    # -- message-level decisions ------------------------------------------------

    def drop(self, link: str, time: float) -> bool:
        """Should a message sent now on ``link`` be lost?"""
        if not self.enabled:
            return False
        if any(w.covers(time) for w in self.config.partitions):
            return True
        if self.config.loss_rate > 0.0:
            return bool(self._rng(link).random() < self.config.loss_rate)
        return False

    def duplicate(self, link: str, time: float) -> bool:
        """Should a delivered message additionally arrive a second time?"""
        if not self.enabled or self.config.duplicate_rate <= 0.0:
            return False
        return bool(self._rng(link).random() < self.config.duplicate_rate)

    def delay_factor(self, time: float) -> float:
        """Multiplier applied to the sampled network delay at ``time``."""
        if not self.enabled:
            return 1.0
        factor = 1.0
        for spike in self.config.delay_spikes:
            if spike.covers(time):
                factor = max(factor, spike.factor)
        return factor

    # -- node-level state ---------------------------------------------------------

    def is_crashed(self, source_id: int, time: float) -> bool:
        if not self.enabled:
            return False
        return any(w.source_id == source_id and w.covers(time)
                   for w in self.config.crash_windows)


DISABLED = FaultModel(FaultConfig())
"""A shared always-off model, the default wherever none is supplied."""


# ---------------------------------------------------------------------------
# CLI spec parsing
# ---------------------------------------------------------------------------

def parse_crash_spec(text: str) -> Tuple[CrashWindow, ...]:
    """Parse ``"2:100:160,5:200:260"`` → crash windows (source:start:end)."""
    windows: List[CrashWindow] = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        parts = piece.split(":")
        if len(parts) != 3:
            raise SimulationError(
                f"crash spec piece must be source:start:end, got {piece!r}")
        try:
            windows.append(CrashWindow(int(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise SimulationError(f"bad number in crash spec piece {piece!r}")
    return tuple(windows)


def parse_partition_spec(text: str) -> Tuple[PartitionWindow, ...]:
    """Parse ``"50:80,120:130"`` → partition windows (start:end)."""
    windows: List[PartitionWindow] = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        parts = piece.split(":")
        if len(parts) != 2:
            raise SimulationError(f"partition piece must be start:end, got {piece!r}")
        try:
            windows.append(PartitionWindow(float(parts[0]), float(parts[1])))
        except ValueError:
            raise SimulationError(f"bad number in partition piece {piece!r}")
    return tuple(windows)


def parse_delay_spike_spec(text: str) -> Tuple[DelaySpike, ...]:
    """Parse ``"50:80:10"`` → delay spikes (start:end:factor)."""
    spikes: List[DelaySpike] = []
    for piece in filter(None, (p.strip() for p in text.split(","))):
        parts = piece.split(":")
        if len(parts) not in (2, 3):
            raise SimulationError(
                f"delay-spike piece must be start:end[:factor], got {piece!r}")
        try:
            factor = float(parts[2]) if len(parts) == 3 else 5.0
            spikes.append(DelaySpike(float(parts[0]), float(parts[1]), factor))
        except ValueError:
            raise SimulationError(f"bad number in delay-spike piece {piece!r}")
    return tuple(spikes)
