"""Framed, versioned wire protocol for the live service.

Every message is one *frame*: a 4-byte big-endian unsigned length prefix
followed by that many bytes of UTF-8 JSON.  The JSON object always carries

* ``"v"`` — the protocol version (:data:`PROTOCOL_VERSION`); a peer
  rejects frames from a different major version instead of guessing, and
* ``"type"`` — one of :class:`MessageType`.

The message vocabulary mirrors the simulator's event kinds so the
recovery semantics proven there carry over to the wire:

=================  =======================================================
``REGISTER_SOURCE``  a source announces itself and its items; the server
                     replies with a ``DAB_UPDATE`` programming the
                     source's current primary DABs (also the resync path
                     after a reconnect)
``REFRESH``          a source pushes the new values of one write, as
                     three aligned columns ``items``/``values``/``seqs``:
                     each entry keeps its per-item monotone ``seq``
                     number (duplicate / reordered deliveries are
                     rejected entry by entry, exactly like the
                     simulator's fault-mode dedup); ``resync``,
                     ``sent_at`` and ``map_epoch`` are optional and hold
                     for the whole frame
``DAB_UPDATE``       server → source: new primary DABs, each with its
                     per-item monotone *epoch* — a source applies a bound
                     only if the epoch is newer than the one it holds, so
                     in-flight reorder and duplicates are idempotent; the
                     registration reply additionally carries ``seqs``,
                     the server's accepted refresh high-water marks, so a
                     restarted source resumes seq numbering above them
``DAB_ACK``          source → server: receipt for a ``msg_id``-tagged
                     ``DAB_UPDATE`` (the server retries unacked bound
                     changes with backoff, so a dropped bound cannot
                     silently leave a source filtering on stale DABs)
``HEARTBEAT``        a source's liveness beacon carrying per-item refresh
                     seq numbers (lost-refresh gap detection)
``QUERY_SUB``        a client subscribes to query-result notifications
``NOTIFY``           server → client: batched query-value updates
``SNAPSHOT``         request (no ``values``) / response (``values`` and
                     server ``stats``)
``ERROR``            either direction: a fatal protocol complaint
=================  =======================================================

Framing is deliberately boring — length-prefixed JSON decodes in any
language, and the :class:`FrameDecoder` below handles partial frames,
rejects oversized ones before buffering them, and never trusts the peer.
"""

from __future__ import annotations

import enum
import math
import struct
from itertools import accumulate, groupby
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import orjson

from repro.exceptions import ReproError

#: Bumped on any incompatible message/framing change (2: REFRESH
#: carries columns, one frame per source write).
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's JSON body.  A peer announcing a larger
#: frame is protocol-violating (or hostile): the decoder raises before
#: buffering a single body byte.
MAX_FRAME_BYTES = 1 << 20

#: Deepest array/object nesting a frame body may have.  orjson parses
#: without recursion but builds the Python objects recursively, so a body
#: of some 50 000 nested objects — 250 KB — would overflow the C stack
#: and kill the process; no message nests more than a few levels.
MAX_NESTING = 1000

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: Every byte but a bracket, and the nesting step of each bracket.
_NOT_BRACKETS = bytes(set(range(256)) - set(b"[]{}"))
_NESTING_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


class ProtocolError(ReproError):
    """A malformed, oversized, unknown or version-mismatched message."""


class MessageType(enum.Enum):
    REGISTER_SOURCE = "register_source"
    REFRESH = "refresh"
    DAB_UPDATE = "dab_update"
    DAB_ACK = "dab_ack"
    HEARTBEAT = "heartbeat"
    QUERY_SUB = "query_sub"
    NOTIFY = "notify"
    SNAPSHOT = "snapshot"
    ERROR = "error"


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    # Finite only: a NaN would poison the cache silently (every window
    # and QAB comparison against NaN is False, so nothing ever fires).
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_str_list(value: object) -> bool:
    return (isinstance(value, list)
            and all(isinstance(item, str) for item in value))


def _is_number_map(value: object) -> bool:
    return (isinstance(value, dict)
            and all(isinstance(k, str) and _is_number(v)
                    for k, v in value.items()))


def _is_int_map(value: object) -> bool:
    return (isinstance(value, dict)
            and all(isinstance(k, str) and _is_int(v)
                    for k, v in value.items()))


def _is_queries(value: object) -> bool:
    return value == "*" or _is_str_list(value)


def _is_exponent_map(value: object) -> bool:
    return (isinstance(value, dict) and len(value) > 0
            and all(isinstance(k, str) and _is_int(v) and v > 0
                    for k, v in value.items()))


def _is_definition(value: object) -> bool:
    if not isinstance(value, dict):
        return False
    if not (_is_str(value.get("name")) and value["name"]):
        return False
    qab = value.get("qab")
    if not (_is_number(qab) and qab > 0):
        return False
    terms = value.get("terms")
    if not (isinstance(terms, list) and terms):
        return False
    return all(isinstance(term, dict)
               and _is_number(term.get("weight")) and term["weight"] != 0
               and _is_exponent_map(term.get("exponents"))
               for term in terms)


def _is_definitions(value: object) -> bool:
    return isinstance(value, list) and all(_is_definition(v) for v in value)


def _is_list(value: object) -> bool:
    return isinstance(value, list)


def _is_bool(value: object) -> bool:
    return isinstance(value, bool)


#: REFRESH's required fields: ``source_id``, then its three columns —
#: entry ``i`` of each is entry ``i`` of the others.
_REFRESH_FIELDS = ("source_id", "items", "values", "seqs")

#: REFRESH's optional fields, which hold for the whole frame, and their
#: checks.  ``map_epoch`` fences a frame against the shard map that
#: produced it: after a live reshard bumps the cluster's map epoch,
#: frames stamped with an older epoch are rejected instead of applied,
#: so a lagging shard (or a buffered frame from before the cutover) can
#: never act on an item it no longer owns.  Absent everywhere until the
#: first rebalance — pre-reshard traffic stays byte-identical.
_REFRESH_OPTIONAL = (("resync", _is_bool), ("sent_at", _is_number),
                     ("map_epoch", _is_int))

#: The exact entry types that decide a REFRESH column by type alone.
_STR = frozenset({str})
_INT = frozenset({int})
_NUMBER = frozenset({int, float})


def _check_refresh(message: Mapping[str, Any]) -> MessageType:
    """REFRESH's shape check, in one pass over the frame.

    ``source_id`` must be an int and ``items``, ``values`` and ``seqs``
    non-empty, equally long lists of strings, finite numbers and ints;
    each optional field, if present, must pass its check.  A column whose
    entries all have the exact type (no subclass) is decided by its types
    alone — and, for ``values``, one ``isfinite`` map — any other entry
    by entry.  Refusals name the first failing field in the order
    required fields, optional fields, column lengths, in the same words
    as every other type's (:func:`validate_message`)."""
    try:
        source_id, items, values, seqs = (
            message["source_id"], message["items"], message["values"],
            message["seqs"])
    except KeyError:
        missing = [name for name in _REFRESH_FIELDS if name not in message]
        raise ProtocolError(
            f"refresh message missing fields: {', '.join(missing)}")
    if not _is_int(source_id):
        bad = "source_id"
    elif not (isinstance(items, list) and items
              and (_STR.issuperset(map(type, items))
                   or all(map(_is_str, items)))):
        bad = "items"
    elif not (isinstance(values, list) and values
              and (all(map(math.isfinite, values))
                   if _NUMBER.issuperset(map(type, values))
                   else all(map(_is_number, values)))):
        bad = "values"
    elif not (isinstance(seqs, list) and seqs
              and (_INT.issuperset(map(type, seqs))
                   or all(map(_is_int, seqs)))):
        bad = "seqs"
    else:
        for bad, well_formed in _REFRESH_OPTIONAL:
            if bad in message and not well_formed(message[bad]):
                break
        else:
            if len(items) == len(values) == len(seqs):
                return MessageType.REFRESH
            raise ProtocolError(
                f"refresh columns differ in length: items {len(items)}, "
                f"values {len(values)}, seqs {len(seqs)}")
    raise ProtocolError(
        f"refresh field {bad!r} is malformed: {message[bad]!r}")


#: Fields (beyond ``v``/``type``) a message of each type must carry, each
#: with its shape check — presence alone is not enough, because a peer
#: sending e.g. a string seq or a list of bounds must get a clean
#: protocol error, not an uncaught TypeError in a handler.
_REQUIRED: Dict[MessageType, Dict[str, Callable[[object], bool]]] = {
    MessageType.REGISTER_SOURCE: {"source_id": _is_int, "items": _is_str_list},
    MessageType.DAB_UPDATE: {"source_id": _is_int, "bounds": _is_number_map,
                             "epochs": _is_int_map},
    MessageType.DAB_ACK: {"source_id": _is_int, "msg_id": _is_int},
    MessageType.HEARTBEAT: {"source_id": _is_int, "seqs": _is_int_map},
    MessageType.QUERY_SUB: {"queries": _is_queries},
    MessageType.NOTIFY: {"updates": _is_list},
    MessageType.SNAPSHOT: {},
    MessageType.ERROR: {"reason": _is_str},
}

#: Optional fields that are still shape-checked when present.
_OPTIONAL: Dict[MessageType, Dict[str, Callable[[object], bool]]] = {
    # ``msg_id`` asks the source to DAB_ACK (reliable delivery under
    # chaos); ``probe`` asks it to immediately resend the listed items'
    # current values (the lease-expiry recovery path).
    MessageType.DAB_UPDATE: {"seqs": _is_int_map, "msg_id": _is_int,
                             "probe": _is_str_list},
    # ``degraded`` maps query names to the honestly-widened accuracy
    # bound the coordinator can currently promise (stale inputs); an
    # empty map clears a previous degradation.
    # ``shard`` tags a frame with the emitting coordinator shard, so a
    # cluster router can attribute partial aggregates without trusting
    # stream bookkeeping alone; single-node servers omit it.
    MessageType.NOTIFY: {"sent_at": _is_number, "refresh_sent_at": _is_number,
                         "degraded": _is_number_map, "shard": _is_int,
                         "map_epoch": _is_int},
    MessageType.SNAPSHOT: {"degraded": _is_number_map, "shard": _is_int,
                           "map_epoch": _is_int},
    # ``definitions`` lets a subscriber *register* queries it wants served
    # (the incremental bank-append path) instead of only naming existing
    # ones; each entry is ``{"name", "qab", "terms": [{"weight",
    # "exponents"}]}`` — the same wire shape the journal's ``qadd``
    # records use, so replay and subscription decode identically.
    MessageType.QUERY_SUB: {"definitions": _is_definitions,
                            # ``trunk`` marks the subscription as
                            # infrastructure (a cluster router's shard
                            # aggregation trunk, a fan-out broker's
                            # upstream): the server grants it a deep
                            # notify queue instead of the user-facing
                            # slow-consumer limit, because evicting a
                            # trunk silently severs every client behind
                            # it rather than shedding one laggard.
                            "trunk": lambda v: isinstance(v, bool)},
}

#: What :func:`validate_message` walks, built once from the tables above
#: and keyed by the *wire string*: ``type`` -> ``(kind, required (name,
#: check) pairs, optional pairs)``.  Every message received pays this
#: lookup, so it must not cost an ``Enum`` call and two ``Enum`` hashes.
#: REFRESH is not in it: :func:`_check_refresh` checks it in one pass.
_CHECKS = {
    kind.value: (kind, tuple(_REQUIRED[kind].items()),
                 tuple(_OPTIONAL.get(kind, {}).items()))
    for kind in _REQUIRED
}


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

#: orjson's options for every frame and journal record: keys sorted, so
#: equal messages are equal bytes; a non-string key written as its JSON
#: text, as the stdlib writes one.
_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_NON_STR_KEYS


def _float_of(value: object) -> float:
    """orjson's hook for a value it does not write itself: a ``float``
    subclass such as ``numpy.float64`` is written as its float, as the
    stdlib encoder writes it; anything else (``numpy.int64`` too) is not
    JSON."""
    if isinstance(value, float):
        return float(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


#: The exact types the non-finite walk passes over at a glance.
_SCALARS = frozenset({str, int, bool, type(None)})


def _non_finite(value: object) -> bool:
    """Whether ``value`` holds a NaN/±Infinity float at any depth, as a
    dict key or value or a list or tuple entry.  Walked with a stack of
    the containers still to look into, not by recursion: a reply whose
    body spells ``null`` for an absent stat is walked whole, and a call
    per node costs several times the walk."""
    pending = [(value,)]
    while pending:
        for entry in pending.pop():
            if type(entry) in _SCALARS:
                continue
            if isinstance(entry, float):
                if not math.isfinite(entry):
                    return True
            elif isinstance(entry, dict):
                pending.append(entry.keys())
                pending.append(entry.values())
            elif isinstance(entry, (list, tuple)):
                pending.append(entry)
    return False


def encode_body(message: Mapping[str, Any]) -> bytes:
    """The canonical byte encoding of one message: compact UTF-8 JSON with
    sorted keys, non-finite floats rejected.  Shared by the wire framing
    below and by the coordinator's write-ahead journal, so journal
    records are decoded by exactly the code path that decodes wire
    frames.

    Raises :class:`ProtocolError` for a message JSON cannot carry — a
    NaN/±Infinity float, an int beyond 64 bits, or a non-JSON object
    such as ``numpy.int64``.  This is where a value that only ever
    crossed in-process links is checked before it leaves the process.
    orjson writes a non-finite float as ``null``, so a body holding
    ``null`` — rare — has its message walked for one."""
    try:
        body = orjson.dumps(message, default=_float_of, option=_OPTIONS)
    except TypeError as error:
        raise ProtocolError(f"unencodable message: {error}")
    if b"null" in body and _non_finite(message):
        raise ProtocolError("unencodable message: Out of range float "
                            "values are not JSON compliant")
    return body


def _nesting(body: bytes) -> int:
    """The deepest array/object nesting of a JSON ``body``: its brackets
    outside strings, summed as they open and close.  With every escaped
    backslash and then every escaped quote deleted, the quotes left
    delimit the strings, so every other piece between quotes is outside
    one.  Linear in the body, whatever it holds."""
    unescaped = bytes(body).replace(b"\\\\", b"").replace(b'\\"', b"")
    outside = b"".join(unescaped.split(b'"')[::2])
    brackets = outside.translate(None, _NOT_BRACKETS)
    return max(accumulate(map(_NESTING_STEP.__getitem__, brackets)),
               default=0)


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one encoded body back into a message dict.

    Raises :class:`ProtocolError` on undecodable bytes — bad UTF-8, a
    ``NaN``/``Infinity`` constant, a number beyond a double's range,
    nesting deeper than :data:`MAX_NESTING` — or a body that is not a
    JSON object: the same failure surface whether the bytes came off a
    socket or out of a journal.  A body can only nest as deep as it has
    opening brackets, so only a long body with many is measured."""
    if (len(body) > MAX_NESTING
            and body.count(b"[") + body.count(b"{") > MAX_NESTING
            and _nesting(body) > MAX_NESTING):
        raise ProtocolError(f"undecodable frame body: nested deeper than "
                            f"{MAX_NESTING} levels")
    try:
        message = orjson.loads(body)
    except orjson.JSONDecodeError as error:
        raise ProtocolError(f"undecodable frame body: {error}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}")
    return message


def encode_frame(message: Mapping[str, Any],
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame for ``message`` (length prefix + compact JSON)."""
    body = encode_body(message)
    if len(body) > max_frame_bytes:
        raise ProtocolError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit")
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder: feed arbitrary byte chunks, get messages.

    Partial frames stay buffered across :meth:`feed` calls; a frame whose
    announced length exceeds ``max_frame_bytes`` raises
    :class:`ProtocolError` *before* its body is buffered, as does a body
    that is not valid JSON or not a JSON object.  After an error the
    decoder is poisoned — the only safe recovery from corrupt framing is
    closing the connection.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Buffer ``data``; return every message completed by it.

        The consumed frames leave the buffer in one cut at the end, not
        one per frame, so a read carrying many frames moves its tail
        once."""
        if self._poisoned:
            raise ProtocolError("decoder already failed; close the connection")
        buffer = self._buffer
        buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        size, offset = len(buffer), 0
        while size - offset >= HEADER_BYTES:
            (length,) = _HEADER.unpack_from(buffer, offset)
            if length > self.max_frame_bytes:
                self._poisoned = True
                raise ProtocolError(
                    f"peer announced a {length}-byte frame; limit is "
                    f"{self.max_frame_bytes}")
            end = offset + HEADER_BYTES + length
            if end > size:
                break
            try:
                messages.append(decode_body(
                    buffer[offset + HEADER_BYTES:end]))
            except ProtocolError:
                self._poisoned = True
                raise
            offset = end
        del buffer[:offset]
        return messages


def validate_message(message: Mapping[str, Any]) -> MessageType:
    """Check version, type and field presence *and shape*; return the type.

    Shape checks are strict: numeric fields must be finite JSON numbers
    (no bools, no numeric strings, no NaN/Infinity), maps must be string
    keyed.  A message that fails here must never reach a handler.
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"speaking {PROTOCOL_VERSION}")
    wire = message.get("type")
    if wire == "refresh":
        return _check_refresh(message)
    try:
        kind, required, optional = _CHECKS[wire]
    except (KeyError, TypeError):       # unknown, or not even hashable
        raise ProtocolError(f"unknown message type {wire!r}")
    for name, _ in required:
        if name not in message:
            missing = [field for field, _ in required
                       if field not in message]
            raise ProtocolError(
                f"{wire} message missing fields: {', '.join(missing)}")
    for name, well_formed in required:
        if not well_formed(message[name]):
            raise ProtocolError(
                f"{wire} field {name!r} is malformed: {message[name]!r}")
    for name, well_formed in optional:
        if name in message and not well_formed(message[name]):
            raise ProtocolError(
                f"{wire} field {name!r} is malformed: {message[name]!r}")
    return kind


# ---------------------------------------------------------------------------
# message constructors
# ---------------------------------------------------------------------------

def _message(kind: MessageType, **fields: Any) -> Dict[str, Any]:
    body: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": kind.value}
    body.update({name: value for name, value in fields.items()
                 if value is not None})
    return body


def register_source(source_id: int, items: Iterable[str]) -> Dict[str, Any]:
    return _message(MessageType.REGISTER_SOURCE, source_id=int(source_id),
                    items=sorted(items))


def refresh(source_id: int, items: Sequence[str], values: Sequence[float],
            seqs: Sequence[int], *,
            resync: bool = False,
            sent_at: Optional[float] = None,
            map_epoch: Optional[int] = None) -> Dict[str, Any]:
    """One source write's refreshes as aligned columns: entry ``i`` is
    item ``items[i]`` at ``values[i]``, numbered ``seqs[i]``.
    ``resync``, ``sent_at`` and ``map_epoch`` hold for every entry."""
    return _message(MessageType.REFRESH, source_id=int(source_id),
                    items=list(items),
                    values=[float(value) for value in values],
                    seqs=[int(seq) for seq in seqs],
                    resync=True if resync else None, sent_at=sent_at,
                    map_epoch=int(map_epoch) if map_epoch is not None
                    else None)


def refresh_entries(frame: Mapping[str, Any], picked: Sequence[int],
                    stamps: Optional[Sequence[Optional[float]]] = None,
                    ) -> Dict[str, Any]:
    """A copy of REFRESH ``frame`` holding only the entries at ``picked``,
    in that order; its other fields as they are, but for ``sent_at``
    when ``stamps`` gives each entry's own (:func:`merge_refreshes`):
    then it is the earliest of the picked entries', or absent if none
    has one."""
    items, values, seqs = frame["items"], frame["values"], frame["seqs"]
    sub = dict(frame, items=[items[i] for i in picked],
               values=[values[i] for i in picked],
               seqs=[seqs[i] for i in picked])
    if stamps is not None:
        sub.pop("sent_at", None)
        kept = [stamps[i] for i in picked if stamps[i] is not None]
        if kept:
            sub["sent_at"] = min(kept)
    return sub


def _run_key(frame: Mapping[str, Any]) -> Tuple[Any, Any, Any]:
    return frame["source_id"], frame.get("resync"), frame.get("map_epoch")


def merge_refreshes(frames: Sequence[Dict[str, Any]],
                    ) -> List[Tuple[Dict[str, Any],
                                    Optional[List[Optional[float]]]]]:
    """REFRESH ``frames`` with each run of consecutive frames that agree
    on ``source_id``, ``resync`` and ``map_epoch`` joined into one frame,
    in order: its columns are the run's, concatenated; its ``sent_at``
    the earliest the run carries (absent if no frame does); its other
    fields the run's first frame's.  Each comes with its entries' own
    ``sent_at`` stamps, for :func:`refresh_entries` to stamp a pick by —
    ``None`` for a run of one frame, which is that frame itself."""
    if len(frames) == 1:            # every open-loop read: no grouping
        return [(frames[0], None)]
    merged: List[Tuple[Dict[str, Any], Optional[List[Optional[float]]]]] = []
    for _, group in groupby(frames, key=_run_key):
        run = list(group)
        if len(run) == 1:
            merged.append((run[0], None))
            continue
        items: List[str] = []
        values: List[float] = []
        seqs: List[int] = []
        stamps: List[Optional[float]] = []
        for frame in run:
            items += frame["items"]
            values += frame["values"]
            seqs += frame["seqs"]
            stamps += [frame.get("sent_at")] * len(frame["items"])
        joined = dict(run[0], items=items, values=values, seqs=seqs)
        sent = [frame["sent_at"] for frame in run if "sent_at" in frame]
        if sent:
            joined["sent_at"] = min(sent)
        merged.append((joined, stamps))
    return merged


def dab_update(source_id: int, bounds: Mapping[str, float],
               epochs: Mapping[str, int],
               seqs: Optional[Mapping[str, int]] = None,
               msg_id: Optional[int] = None,
               probe: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """``seqs``, sent only in the registration reply, carries the server's
    highest accepted refresh seq per item so a restarted source (whose
    counters are back at 0) can resume numbering above the dedup guard.

    ``msg_id`` requests a :func:`dab_ack` (the server retries unacked
    bound changes under its retry policy); ``probe`` lists items whose
    current value the source must resend immediately, DAB filter or not
    — how a lease-expired item's true value is recovered."""
    return _message(MessageType.DAB_UPDATE, source_id=int(source_id),
                    bounds={k: float(v) for k, v in bounds.items()},
                    epochs={k: int(v) for k, v in epochs.items()},
                    seqs={k: int(v) for k, v in seqs.items()}
                    if seqs is not None else None,
                    msg_id=int(msg_id) if msg_id is not None else None,
                    probe=sorted(probe) if probe is not None else None)


def dab_ack(source_id: int, msg_id: int) -> Dict[str, Any]:
    """A source's receipt for a ``msg_id``-tagged DAB_UPDATE."""
    return _message(MessageType.DAB_ACK, source_id=int(source_id),
                    msg_id=int(msg_id))


def heartbeat(source_id: int, seqs: Mapping[str, int]) -> Dict[str, Any]:
    return _message(MessageType.HEARTBEAT, source_id=int(source_id),
                    seqs={k: int(v) for k, v in seqs.items()})


def query_sub(queries: object = "*",
              definitions: Optional[Sequence[Any]] = None,
              trunk: bool = False) -> Dict[str, Any]:
    """Subscribe to ``queries`` — a list of query names, or ``"*"``.

    ``definitions`` optionally carries :class:`PolynomialQuery` objects
    (or already-wire-shaped dicts) to *register* before subscribing —
    the incremental bank-append path; the server rejects a definition
    whose name is taken by a structurally different query.

    ``trunk=True`` declares the subscription infrastructure-grade (a
    router's shard trunk, a broker's upstream) so the server sizes its
    notify queue for aggregation fan-in instead of a single laggard
    client; the field is omitted when false so ordinary subscription
    frames stay byte-identical."""
    if queries != "*":
        queries = sorted(queries)
    wire_defs = None
    if definitions is not None:
        wire_defs = [entry if isinstance(entry, dict) else query_to_wire(entry)
                     for entry in definitions]
    return _message(MessageType.QUERY_SUB, queries=queries,
                    definitions=wire_defs,
                    trunk=True if trunk else None)


def query_to_wire(query: Any) -> Dict[str, Any]:
    """The canonical wire/journal encoding of one polynomial query."""
    return {
        "name": query.name,
        "qab": float(query.qab),
        "terms": [{"weight": float(term.weight),
                   "exponents": {k: int(v)
                                 for k, v in sorted(term.exponents.items())}}
                  for term in query.terms],
    }


def query_from_wire(data: Mapping[str, Any]) -> Any:
    """Decode a :func:`query_to_wire` dict back into a PolynomialQuery.

    Raises :class:`ProtocolError` on a malformed definition — the same
    failure surface whether the dict came off a socket or a journal."""
    if not _is_definition(data):
        raise ProtocolError(f"malformed query definition: {data!r}")
    from repro.queries.polynomial import PolynomialQuery
    from repro.queries.terms import QueryTerm
    try:
        terms = [QueryTerm(term["weight"], term["exponents"])
                 for term in data["terms"]]
        return PolynomialQuery(terms, data["qab"], data["name"])
    except ReproError as error:
        raise ProtocolError(f"invalid query definition: {error}")


def notify(updates: Sequence[Mapping[str, Any]], *,
           sent_at: Optional[float] = None,
           refresh_sent_at: Optional[float] = None,
           degraded: Optional[Mapping[str, float]] = None,
           shard: Optional[int] = None,
           map_epoch: Optional[int] = None) -> Dict[str, Any]:
    """Batched query-value updates: ``[{"query", "value"}, ...]``.

    ``refresh_sent_at`` echoes the triggering refresh's ``sent_at`` so a
    subscriber can measure end-to-end notify latency without clock games.
    ``degraded`` maps query names to honestly-widened accuracy bounds
    while their inputs are lease-expired; ``{}`` clears the flag.
    ``shard`` marks the values as one shard's *partial aggregates* in a
    cluster (absent from single-node servers); ``map_epoch`` stamps the
    shard-map epoch the emitter holds so routers can fence frames from
    before a reshard cutover.
    """
    return _message(MessageType.NOTIFY, updates=list(updates),
                    sent_at=sent_at, refresh_sent_at=refresh_sent_at,
                    degraded=dict(degraded) if degraded is not None else None,
                    shard=int(shard) if shard is not None else None,
                    map_epoch=int(map_epoch) if map_epoch is not None
                    else None)


def snapshot(values: Optional[Mapping[str, float]] = None,
             stats: Optional[Mapping[str, Any]] = None,
             degraded: Optional[Mapping[str, float]] = None,
             shard: Optional[int] = None,
             map_epoch: Optional[int] = None) -> Dict[str, Any]:
    """Request form (no ``values``) or response form (with them)."""
    return _message(MessageType.SNAPSHOT, values=dict(values) if values is not None else None,
                    stats=dict(stats) if stats is not None else None,
                    degraded=dict(degraded) if degraded is not None else None,
                    shard=int(shard) if shard is not None else None,
                    map_epoch=int(map_epoch) if map_epoch is not None
                    else None)


def error(reason: str) -> Dict[str, Any]:
    return _message(MessageType.ERROR, reason=str(reason))
