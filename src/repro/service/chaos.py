"""Wire-level fault injection for the live service.

The simulator's :mod:`repro.simulation.faults` decides the fate of
*events*; this module applies the same vocabulary — seeded per-link RNG
substreams, loss, duplication, partitions, crash windows — to *frames*:
real :class:`~repro.service.protocol.FrameDecoder` bytes flowing through
a real transport.  A :class:`ChaosWriter` wraps the writer half of any
stream (the loopback ``_MemoryPipe`` or asyncio's ``StreamWriter``), and
because :class:`~repro.service.transports.MessageStream` issues exactly
one ``write()`` per frame, every fault decision lands on a whole-frame
boundary — a source's REFRESH frame carries its whole tick, so a dropped
one loses the tick:

* **drop** — the frame silently vanishes;
* **duplicate** — the frame is written twice (the peer's seq/epoch
  dedup must absorb it);
* **corrupt** — the first body byte is XOR-flipped to an invalid UTF-8
  continuation byte, so the peer's decoder *always* detects the damage,
  poisons itself, and the connection must be torn down (the only safe
  recovery from corrupt framing);
* **delay** — the frame is held and released, in order, when the
  injector's logical clock advances past its release step;
* **forced disconnect** — the underlying writer is closed (EOF at the
  peer) and ``ConnectionError`` is raised at the sender, exactly like a
  mid-write RST;
* **partition** — every frame sent inside a
  :class:`~repro.simulation.faults.PartitionWindow` is dropped, on every
  chaos-wrapped link.

Determinism: each link draws from its own generator derived from
``(seed, crc32(link))`` — the same substream scheme as
:class:`~repro.simulation.faults.FaultModel` — and decisions depend only
on the per-link frame order, never on cross-link interleaving or wall
time.  Every fired fault is appended to :attr:`FaultInjector.trace`, and
:meth:`FaultInjector.digest` hashes the trace so two runs can be
compared byte-for-byte.

A schedule with no fault channel enabled is a guaranteed no-op:
:func:`chaos_stream` returns the stream untouched and no RNG is created.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.service.protocol import HEADER_BYTES
from repro.service.transports import MessageStream, loopback_pair
from repro.simulation.faults import CrashWindow, PartitionWindow


@dataclass(frozen=True)
class FaultSchedule:
    """A declarative, seeded description of what to break, in step time.

    Rates are per-frame i.i.d. probabilities; windows are
    ``[start, end)`` intervals on the injector's logical step clock.
    ``loss_windows`` (when given) confine ``drop_rate`` to those
    intervals so a soak can audit in provably-clean windows; an empty
    tuple means the rate applies at every step.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_steps: int = 2
    disconnect_rate: float = 0.0
    loss_windows: Tuple[PartitionWindow, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    crash_windows: Tuple[CrashWindow, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for knob in ("drop_rate", "duplicate_rate", "corrupt_rate",
                     "delay_rate", "disconnect_rate"):
            rate = getattr(self, knob)
            if not (0.0 <= rate < 1.0):
                raise SimulationError(f"{knob} must be in [0, 1), got {rate!r}")
        if self.delay_steps < 1:
            raise SimulationError("delay_steps must be >= 1")
        object.__setattr__(self, "loss_windows", tuple(self.loss_windows))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "crash_windows", tuple(self.crash_windows))

    @property
    def enabled(self) -> bool:
        """True when any fault channel can fire."""
        return bool(
            self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.corrupt_rate > 0.0
            or self.delay_rate > 0.0
            or self.disconnect_rate > 0.0
            or self.partitions
            or self.crash_windows
        )

    def fault_kinds(self) -> List[str]:
        """The distinct fault types this schedule can fire (for reports)."""
        kinds = []
        if self.drop_rate > 0.0:
            kinds.append("drop")
        if self.duplicate_rate > 0.0:
            kinds.append("duplicate")
        if self.corrupt_rate > 0.0:
            kinds.append("corrupt")
        if self.delay_rate > 0.0:
            kinds.append("delay")
        if self.disconnect_rate > 0.0:
            kinds.append("disconnect")
        if self.partitions:
            kinds.append("partition")
        if self.crash_windows:
            kinds.append("agent_crash")
        return kinds


class FaultInjector:
    """Seeded fault decisions over a logical step clock, with a trace.

    The soak loop calls :meth:`advance` once per step; chaos writers ask
    :meth:`decide` once per frame.  Everything that fires is recorded in
    :attr:`trace` as ``(step, link, kind, frame_no)`` tuples — the
    deterministic artifact :meth:`digest` hashes.
    """

    def __init__(self, schedule: Optional[FaultSchedule] = None):
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.enabled = self.schedule.enabled
        self.now = 0
        self.trace: List[Tuple[int, str, str, int]] = []
        self._streams: Dict[str, np.random.Generator] = {}
        self._frame_no: Dict[str, int] = {}
        self._writers: List["ChaosWriter"] = []
        self.counts: Dict[str, int] = {}

    # -- RNG plumbing (same substream scheme as simulation.faults) -------------

    def _rng(self, link: str) -> np.random.Generator:
        rng = self._streams.get(link)
        if rng is None:
            sub = zlib.crc32(link.encode("utf-8"))
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(self.schedule.seed, sub)))
            self._streams[link] = rng
        return rng

    def _record(self, link: str, kind: str, frame_no: int) -> None:
        self.trace.append((self.now, link, kind, frame_no))
        self.counts[kind] = self.counts.get(kind, 0) + 1

    # -- clock -----------------------------------------------------------------

    def advance(self, step: int) -> None:
        """Move the logical clock to ``step`` and release due delayed
        frames (in writer-registration, then hold, order)."""
        self.now = int(step)
        for writer in self._writers:
            writer.flush_due(self.now)

    # -- per-frame decisions -----------------------------------------------------

    def _loss_active(self) -> bool:
        if self.schedule.drop_rate <= 0.0:
            return False
        windows = self.schedule.loss_windows
        if not windows:
            return True
        return any(w.covers(self.now) for w in windows)

    def decide(self, link: str) -> Dict[str, Any]:
        """The fate of the next frame on ``link``.

        Draw order is fixed (drop, corrupt, duplicate, delay, disconnect)
        and each channel draws only when its rate is non-zero, so a
        schedule exercising fewer channels still replays the same
        decisions for the ones it shares.
        """
        frame_no = self._frame_no.get(link, 0) + 1
        self._frame_no[link] = frame_no
        fate: Dict[str, Any] = {}
        if not self.enabled:
            return fate
        schedule = self.schedule
        if any(w.covers(self.now) for w in schedule.partitions):
            self._record(link, "partition_drop", frame_no)
            fate["drop"] = True
            return fate
        rng = self._rng(link)
        if schedule.drop_rate > 0.0 and rng.random() < schedule.drop_rate:
            if self._loss_active():
                self._record(link, "drop", frame_no)
                fate["drop"] = True
                return fate
        if schedule.corrupt_rate > 0.0 and rng.random() < schedule.corrupt_rate:
            self._record(link, "corrupt", frame_no)
            fate["corrupt"] = True
        if (schedule.duplicate_rate > 0.0
                and rng.random() < schedule.duplicate_rate):
            self._record(link, "duplicate", frame_no)
            fate["duplicate"] = True
        if schedule.delay_rate > 0.0 and rng.random() < schedule.delay_rate:
            self._record(link, "delay", frame_no)
            fate["delay_until"] = self.now + schedule.delay_steps
        if (schedule.disconnect_rate > 0.0
                and rng.random() < schedule.disconnect_rate):
            self._record(link, "disconnect", frame_no)
            fate["disconnect"] = True
        return fate

    # -- node-level state ---------------------------------------------------------

    def is_crashed(self, source_id: int, step: int) -> bool:
        return any(w.source_id == source_id and w.covers(step)
                   for w in self.schedule.crash_windows)

    # -- artifacts ---------------------------------------------------------------

    def trace_rows(self) -> List[Dict[str, Any]]:
        return [{"step": s, "link": link, "fault": kind, "frame": n}
                for s, link, kind, n in self.trace]

    def digest(self) -> str:
        """A stable hash of the fault trace (same seed ⇒ same digest)."""
        payload = json.dumps(self.trace, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _corrupt(frame: bytes) -> bytes:
    """Flip the first body byte to an invalid UTF-8 continuation byte.

    The length header is left intact so the peer buffers the full frame,
    then fails to decode it — corruption is always *detected* (decoder
    poisoned, connection torn down), never a silent value change that
    would fake a QAB violation.
    """
    if len(frame) <= HEADER_BYTES:
        return frame
    mutated = bytearray(frame)
    mutated[HEADER_BYTES] ^= 0xFF
    return bytes(mutated)


class ChaosWriter:
    """A writer wrapper applying one link's fault decisions per frame."""

    def __init__(self, inner: Any, injector: FaultInjector, link: str):
        self.inner = inner
        self.injector = injector
        self.link = link
        self._held: List[Tuple[int, bytes]] = []
        self._closed = False
        injector._writers.append(self)

    def write(self, frame: bytes) -> None:
        fate = self.injector.decide(self.link)
        if fate.get("drop"):
            return
        if fate.get("disconnect"):
            # Sever the link for real: EOF at the peer, error at the
            # sender (MessageStream converts it to TransportClosed).
            self.close()
            raise ConnectionError(f"chaos: forced disconnect on {self.link}")
        if fate.get("corrupt"):
            frame = _corrupt(frame)
        release = fate.get("delay_until")
        if release is not None:
            self._held.append((int(release), bytes(frame)))
            return
        self.inner.write(frame)
        if fate.get("duplicate"):
            self.inner.write(frame)

    def flush_due(self, now: int) -> None:
        if self._closed or not self._held:
            return
        due = [frame for release, frame in self._held if release <= now]
        self._held = [(release, frame) for release, frame in self._held
                      if release > now]
        for frame in due:
            try:
                self.inner.write(frame)
            except Exception:
                # The link died while frames were in flight: they are lost,
                # like any packet on a dead path.
                self._held = []
                return

    async def drain(self) -> None:
        await self.inner.drain()

    @property
    def transport(self) -> Any:
        """The wrapped writer's transport (``None`` over a loopback pipe),
        whose buffer :meth:`MessageStream.has_room` reads."""
        return getattr(self.inner, "transport", None)

    def close(self) -> None:
        self._closed = True
        self._held = []
        try:
            self.inner.close()
        except (ConnectionError, RuntimeError):
            pass


def chaos_stream(stream: MessageStream, injector: FaultInjector,
                 link: str) -> MessageStream:
    """Route ``stream``'s outbound frames through a :class:`ChaosWriter`.

    Works on any :class:`MessageStream` — loopback or TCP — because the
    fault surface is the writer contract, not the transport.  With a
    disabled schedule the stream is returned untouched (the no-op
    guarantee).
    """
    if not injector.enabled:
        return stream
    stream._writer = ChaosWriter(stream._writer, injector, link)
    return stream


def chaos_loopback_pair(injector: FaultInjector, peer: str,
                        ) -> Tuple[MessageStream, MessageStream]:
    """A loopback pair whose two directions are chaos-wrapped links
    ``"<peer>->coord"`` and ``"coord-><peer>"``."""
    client_end, server_end = loopback_pair()
    chaos_stream(client_end, injector, f"{peer}->coord")
    chaos_stream(server_end, injector, f"coord->{peer}")
    return client_end, server_end
