"""Durability layer for the live coordinator: write-ahead journal + snapshots.

A coordinator crash used to discard every item value, DAB epoch,
accepted-seq high-water mark and last-good plan — the exact state the
QAB-fidelity guarantee rests on.  This module makes that state durable
with the classic snapshot + delta-log recovery design (DBToaster's
observation, PAPERS.md: replaying a compact delta log over a snapshot is
orders of magnitude cheaper than recomputing from scratch — and the
coordinator's refresh/plan/epoch stream *is* such a delta log):

* **Write-ahead journal** (``wal.log``) — an append-only file of
  length-prefixed records.  Each record is an 8-byte header (``>II``:
  body length, CRC-32 of the body) followed by the body — the *same*
  canonical JSON encoding the wire protocol uses
  (:func:`repro.service.protocol.encode_body`), so a journal record is
  decoded by exactly the code path that decodes wire frames.  Appends
  are unbuffered (a ``kill -9`` loses no user-space buffers); the
  ``fsync`` policy decides what a machine crash can lose.
* **Snapshots** (``snapshot-<record-index>.json``) — periodic full dumps
  of the recovery state, written atomically (temp file + rename) with an
  embedded SHA-256 so a damaged snapshot is detected and the previous
  one used instead.  The snapshot's record index says how much of the
  journal it covers; recovery replays only the tail after it.

Failure semantics on open:

* a **torn tail** (the process died mid-append: truncated header or
  body at end of file) is silently truncated — by construction only the
  final record can be torn, and write-ahead means the state change it
  described was never acknowledged anywhere;
* a **CRC-corrupt record** that is fully present is *not* a torn write
  — it is disk/filesystem damage, and replaying past it would serve
  wrong answers with a straight face.  Recovery aborts with
  :class:`JournalError` naming the record.

The journal knows nothing about the coordinator: it stores and returns
dicts.  :mod:`repro.service.core` and :mod:`repro.service.server` decide
what to record and how to replay it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time as _time
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import ReproError
from repro.filters.assignment import DABAssignment
from repro.service.protocol import ProtocolError, decode_body, encode_body

#: Record header: body length, CRC-32 of the body (both big-endian u32).
_RECORD_HEADER = struct.Struct(">II")
RECORD_HEADER_BYTES = _RECORD_HEADER.size

#: Sanity ceiling on one record body — matches the wire protocol's frame
#: limit; a longer length field cannot come from our own appends.
MAX_RECORD_BYTES = 1 << 20

#: Accepted fsync policies: ``always`` fsyncs every append (a machine
#: crash loses nothing acknowledged), ``interval`` fsyncs every
#: :data:`FSYNC_INTERVAL` appends and on every snapshot, ``off`` never
#: fsyncs explicitly (a *process* crash still loses nothing — appends
#: are unbuffered — but a machine crash may lose the OS page cache).
FSYNC_POLICIES = ("always", "interval", "off")

#: Appends between fsyncs under ``interval``, and snapshots kept on disk
#: (older ones are pruned as a new one lands).
FSYNC_INTERVAL = 64
KEEP_SNAPSHOTS = 2

WAL_NAME = "wal.log"
_SNAPSHOT_PREFIX = "snapshot-"

#: The snapshot codec: the stdlib's canonical JSON (compact, sorted keys,
#: non-finite floats refused), which also writes the snapshot file.  A
#: snapshot's digest is taken over this encoding of its state, on write
#: and on read, not over the wire codec's: the wire codec spells some
#: floats and all non-ASCII text differently, and a digest that followed
#: it would silently disown every snapshot written before it changed.
_SNAPSHOT_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                                     allow_nan=False)


def _snapshot_body(state: Mapping[str, Any]) -> bytes:
    """``state`` in the snapshot codec; :class:`ProtocolError` for a state
    JSON cannot carry (a NaN, a ``numpy.int64``), as the wire refuses it."""
    try:
        return _SNAPSHOT_ENCODER.encode(state).encode("utf-8")
    except (ValueError, TypeError) as error:
        raise ProtocolError(f"unencodable message: {error}")


class JournalError(ReproError):
    """Corrupt or unusable journal state that must not be replayed past."""


# ---------------------------------------------------------------------------
# plan (de)serialization
# ---------------------------------------------------------------------------

def plan_to_wire(plan: DABAssignment) -> Dict[str, Any]:
    """A JSON-safe dump of one plan (``objective`` may be NaN — JSON
    cannot carry it, so non-finite objectives round-trip as ``None``)."""
    objective: Optional[float] = plan.objective
    if objective is not None and not math.isfinite(objective):
        objective = None
    return {
        "primary": dict(plan.primary),
        "secondary": dict(plan.secondary) if plan.secondary is not None else None,
        "reference_values": dict(plan.reference_values),
        "recompute_rate": plan.recompute_rate,
        "objective": objective,
    }


def plan_from_wire(data: Mapping[str, Any]) -> DABAssignment:
    secondary = data.get("secondary")
    objective = data.get("objective")
    return DABAssignment(
        primary={k: float(v) for k, v in data["primary"].items()},
        secondary={k: float(v) for k, v in secondary.items()}
        if secondary is not None else None,
        reference_values={k: float(v)
                          for k, v in data.get("reference_values", {}).items()},
        recompute_rate=float(data.get("recompute_rate", 0.0)),
        objective=float("nan") if objective is None else float(objective),
    )


# ---------------------------------------------------------------------------
# record framing
# ---------------------------------------------------------------------------

def encode_record(record: Mapping[str, Any]) -> bytes:
    """One journal record: ``>II`` (length, CRC-32) + canonical JSON body."""
    body = encode_body(record)
    if len(body) > MAX_RECORD_BYTES:
        raise JournalError(
            f"journal record of {len(body)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit")
    return _RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def scan_records(data: bytes, path: str = "wal") -> Tuple[List[Dict[str, Any]], int]:
    """Decode every complete record in ``data``.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    length of the well-formed prefix — anything after it is a torn tail
    the caller should truncate.  A *complete* record whose CRC does not
    match its body is corruption, not a torn write: raises
    :class:`JournalError` naming the offending record.
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    total = len(data)
    while True:
        if total - offset < RECORD_HEADER_BYTES:
            return records, offset
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            # Our appender can never have written this header; the only
            # way a crash produces it is a torn header whose first bytes
            # happen to parse — and a torn header can only be the tail.
            return records, offset
        body_start = offset + RECORD_HEADER_BYTES
        if total - body_start < length:
            return records, offset
        body = data[body_start:body_start + length]
        if zlib.crc32(body) != crc:
            raise JournalError(
                f"CRC mismatch in {path} record {len(records)} at byte "
                f"{offset}: journal is corrupt, refusing to replay past it")
        try:
            records.append(decode_body(body))
        except Exception as error:
            raise JournalError(
                f"undecodable {path} record {len(records)} at byte "
                f"{offset} (CRC valid): {error}")
        offset = body_start + length


# ---------------------------------------------------------------------------
# the journal proper
# ---------------------------------------------------------------------------

class Journal:
    """One coordinator's durable state: a WAL plus rolling snapshots.

    Lifecycle: :meth:`open` scans the WAL (truncating a torn tail),
    then :meth:`latest_snapshot` + :meth:`records` drive recovery, then
    :meth:`append`/:meth:`write_snapshot` record live operation.  The
    directory is created on open if missing — a missing/empty directory
    is simply a fresh journal, never an error.
    """

    def __init__(self, directory: str, fsync: str = "always",
                 snapshot_every: int = 500):
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if snapshot_every < 1:
            raise JournalError("snapshot_every must be >= 1")
        self.directory = Path(directory)
        self.fsync = fsync
        self.snapshot_every = int(snapshot_every)

        self.record_count = 0
        self.records_since_snapshot = 0
        self.truncated_tail_bytes = 0
        self.snapshots_written = 0
        self.fsyncs = 0
        #: per-append wall seconds (write + policy fsync) — the durability
        #: tax the soak reports percentiles of.  Bounded so a long-running
        #: server does not grow it without limit.
        self.append_seconds: List[float] = []
        self._append_samples_cap = 100_000

        self._fh: Optional[Any] = None
        self._opened = False

    # -- lifecycle --------------------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    def open(self) -> "Journal":
        """Scan the WAL, truncate any torn tail, start appending after it."""
        if self._opened:
            return self
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.wal_path
        data = path.read_bytes() if path.exists() else b""
        records, valid = scan_records(data, path=str(path))
        self.record_count = len(records)
        self.truncated_tail_bytes = len(data) - valid
        if self.truncated_tail_bytes:
            with open(path, "r+b") as fh:
                fh.truncate(valid)
                fh.flush()
                os.fsync(fh.fileno())
        # Unbuffered append: every write() reaches the OS immediately, so
        # a killed *process* loses nothing; fsync policy governs what a
        # killed *machine* can lose.
        self._fh = open(path, "ab", buffering=0)
        latest = self._latest_snapshot_index()
        self.records_since_snapshot = self.record_count - (latest or 0)
        self._opened = True
        return self

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._opened = False

    # -- appending --------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> int:
        """Durably append one record; returns its index."""
        if self._fh is None:
            raise JournalError("journal is not open")
        started = _time.perf_counter()
        self._fh.write(encode_record(record))
        if self.fsync == "always" or (
                self.fsync == "interval"
                and (self.record_count + 1) % FSYNC_INTERVAL == 0):
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        if len(self.append_seconds) < self._append_samples_cap:
            self.append_seconds.append(_time.perf_counter() - started)
        self.record_count += 1
        self.records_since_snapshot += 1
        return self.record_count - 1

    # -- reading ----------------------------------------------------------------

    def records(self, start: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield records ``start..`` — CRC-checked from the beginning, so
        corruption anywhere before the tail is detected, not skipped."""
        path = self.wal_path
        data = path.read_bytes() if path.exists() else b""
        records, _valid = scan_records(data, path=str(path))
        for record in records[start:]:
            yield record

    # -- snapshots ---------------------------------------------------------------

    def _snapshot_path(self, record_index: int) -> Path:
        return self.directory / f"{_SNAPSHOT_PREFIX}{record_index:012d}.json"

    def _snapshot_indices(self) -> List[int]:
        out = []
        for path in self.directory.glob(f"{_SNAPSHOT_PREFIX}*.json"):
            stem = path.name[len(_SNAPSHOT_PREFIX):-len(".json")]
            try:
                out.append(int(stem))
            except ValueError:
                continue
        return sorted(out)

    def _latest_snapshot_index(self) -> Optional[int]:
        indices = self._snapshot_indices()
        return indices[-1] if indices else None

    def write_snapshot(self, state: Mapping[str, Any]) -> Path:
        """Atomically write a snapshot covering every record so far."""
        if not self._opened:
            raise JournalError("journal is not open")
        index = self.record_count
        body = _snapshot_body(state)
        payload = json.dumps({
            "record_index": index,
            "sha256": hashlib.sha256(body).hexdigest(),
            "state": json.loads(body.decode("utf-8")),
        }, indent=None, separators=(",", ":"), sort_keys=True)
        path = self._snapshot_path(index)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_directory()
        self.snapshots_written += 1
        self.records_since_snapshot = 0
        for old in self._snapshot_indices()[:-KEEP_SNAPSHOTS]:
            try:
                self._snapshot_path(old).unlink()
            except OSError:
                pass
        return path

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def latest_snapshot(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """``(record_index, state)`` of the newest *intact* snapshot.

        A snapshot that fails to parse or whose embedded digest does not
        match is skipped in favour of the previous one — the journal is
        never compacted, so an older snapshot just means a longer replay.
        """
        for index in reversed(self._snapshot_indices()):
            path = self._snapshot_path(index)
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                state = payload["state"]
                digest = hashlib.sha256(_snapshot_body(state)).hexdigest()
                if digest != payload["sha256"]:
                    continue
                return int(payload["record_index"]), state
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return None

    # -- introspection ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        samples = sorted(self.append_seconds)

        def _pct(p: float) -> float:
            if not samples:
                return 0.0
            rank = min(len(samples) - 1,
                       max(0, int(round(p / 100.0 * (len(samples) - 1)))))
            return samples[rank]

        return {
            "records": self.record_count,
            "records_since_snapshot": self.records_since_snapshot,
            "snapshots_written": self.snapshots_written,
            "fsync_policy": self.fsync,
            "fsyncs": self.fsyncs,
            "wal_bytes": (self.wal_path.stat().st_size
                          if self.wal_path.exists() else 0),
            "truncated_tail_bytes": self.truncated_tail_bytes,
            "append_ms": {f"p{p:g}": _pct(p) * 1000.0
                          for p in (50.0, 95.0, 99.0)} if samples else {},
        }

    def describe(self, last: int = 5) -> Dict[str, Any]:
        """An offline summary for ``repro journal inspect`` — safe to call
        on a journal that is not open (read-only scan)."""
        path = self.wal_path
        data = path.read_bytes() if path.exists() else b""
        records, valid = scan_records(data, path=str(path))
        by_type: Dict[str, int] = {}
        for record in records:
            kind = str(record.get("t", "?"))
            by_type[kind] = by_type.get(kind, 0) + 1
        snapshots = []
        for index in self._snapshot_indices():
            spath = self._snapshot_path(index)
            snapshots.append({"record_index": index, "file": spath.name,
                              "bytes": spath.stat().st_size})
        latest = self.latest_snapshot()
        return {
            "directory": str(self.directory),
            "wal_bytes": len(data),
            "torn_tail_bytes": len(data) - valid,
            "records": len(records),
            "records_by_type": dict(sorted(by_type.items())),
            "snapshots": snapshots,
            "latest_snapshot_index": latest[0] if latest else None,
            "replay_tail_records": (len(records) - latest[0]) if latest
            else len(records),
            "last_records": records[-last:] if last > 0 else [],
        }
