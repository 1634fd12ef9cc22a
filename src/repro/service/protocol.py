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
``REFRESH``          a source pushes one item's new value; carries the
                     per-item monotone ``seq`` number (duplicate /
                     reordered deliveries are rejected exactly like the
                     simulator's fault-mode dedup) and optionally
                     ``resync``/``sent_at``
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
import json
import math
import struct
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.exceptions import ReproError

#: Bumped on any incompatible message/framing change.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's JSON body.  A peer announcing a larger
#: frame is protocol-violating (or hostile): the decoder raises before
#: buffering a single body byte.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size


def _reject_constant(token: str) -> float:
    # ``encode_body`` refuses NaN/Infinity (allow_nan=False); mirror that
    # on decode — ``json.loads`` would happily parse them otherwise, and a
    # NaN value poisons caches silently downstream.
    raise ValueError(f"non-finite JSON constant {token!r} is not allowed")


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


#: Fields (beyond ``v``/``type``) a message of each type must carry, each
#: with its shape check — presence alone is not enough, because a peer
#: sending e.g. a string seq or a list of bounds must get a clean
#: protocol error, not an uncaught TypeError in a handler.
_REQUIRED: Dict[MessageType, Dict[str, Callable[[object], bool]]] = {
    MessageType.REGISTER_SOURCE: {"source_id": _is_int, "items": _is_str_list},
    MessageType.REFRESH: {"source_id": _is_int, "item": _is_str,
                          "value": _is_number, "seq": _is_int},
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
    # ``map_epoch`` fences a frame against the shard map that produced
    # it: after a live reshard bumps the cluster's map epoch, frames
    # stamped with an older epoch are rejected instead of applied, so a
    # lagging shard (or a buffered frame from before the cutover) can
    # never act on an item it no longer owns.  Absent everywhere until
    # the first rebalance — pre-reshard traffic stays byte-identical.
    MessageType.REFRESH: {"resync": lambda v: isinstance(v, bool),
                          "sent_at": _is_number, "map_epoch": _is_int},
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

#: What :func:`validate_message` walks, built once from the two tables
#: above and keyed by the *wire string*: ``type`` -> ``(kind, required
#: (name, check) pairs, optional pairs)``.  Every message received pays
#: this lookup, so it must not cost an ``Enum`` call and two ``Enum``
#: hashes.
_CHECKS = {
    kind.value: (kind, tuple(_REQUIRED[kind].items()),
                 tuple(_OPTIONAL.get(kind, {}).items()))
    for kind in MessageType
}


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

#: The codec objects behind every frame and journal record, built once:
#: ``json.dumps``/``json.loads`` with non-default arguments construct a
#: fresh ``JSONEncoder``/``JSONDecoder`` on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                            allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def encode_body(message: Mapping[str, Any]) -> bytes:
    """The canonical byte encoding of one message (compact sorted JSON,
    non-finite floats rejected).  Shared by the wire framing below and by
    the coordinator's write-ahead journal, so journal records are decoded
    by exactly the code path that decodes wire frames.

    Raises :class:`ProtocolError` for a message JSON cannot carry — a
    NaN/±Infinity float or a non-JSON object such as ``numpy.int64``.
    This is where a value that only ever crossed in-process links is
    checked before it leaves the process."""
    try:
        return _ENCODER.encode(message).encode("utf-8")
    except (ValueError, TypeError) as error:
        raise ProtocolError(f"unencodable message: {error}")


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one encoded body back into a message dict.

    Raises :class:`ProtocolError` on undecodable bytes, non-finite JSON
    constants, or a body that is not a JSON object — the same failure
    surface whether the bytes came off a socket or out of a journal."""
    try:
        message = _DECODER.decode(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
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
        """Buffer ``data``; return every message completed by it."""
        if self._poisoned:
            raise ProtocolError("decoder already failed; close the connection")
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                self._poisoned = True
                raise ProtocolError(
                    f"peer announced a {length}-byte frame; limit is "
                    f"{self.max_frame_bytes}")
            if len(self._buffer) < HEADER_BYTES + length:
                return messages
            body = bytes(self._buffer[HEADER_BYTES:HEADER_BYTES + length])
            del self._buffer[:HEADER_BYTES + length]
            try:
                messages.append(decode_body(body))
            except ProtocolError:
                self._poisoned = True
                raise


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


def refresh(source_id: int, item: str, value: float, seq: int, *,
            resync: bool = False,
            sent_at: Optional[float] = None,
            map_epoch: Optional[int] = None) -> Dict[str, Any]:
    return _message(MessageType.REFRESH, source_id=int(source_id), item=item,
                    value=float(value), seq=int(seq),
                    resync=True if resync else None, sent_at=sent_at,
                    map_epoch=int(map_epoch) if map_epoch is not None
                    else None)


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
