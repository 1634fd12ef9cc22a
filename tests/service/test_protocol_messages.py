"""``validate_message``, message by message, against recorded error texts.

The validator dispatches on the wire ``type`` string through one table
built at import (``protocol._CHECKS``), except for REFRESH, which has a
one-pass check of its own (``protocol._check_refresh``).  Everything a
peer can get wrong in
one field — each required field missing, each required and optional field
malformed, a ``type`` that is unknown or not even hashable, a foreign
``v`` — must still be refused with exactly the text the enum-dispatching
validator of PR 18 produced; the expectations below were generated by
running that validator, not written by hand.  The REFRESH rows and the
version texts were regenerated the same way when protocol version 2 made
REFRESH columnar (``items``/``values``/``seqs``).

A columnar REFRESH is also held to three contracts of its own: a frame
passes if and only if its columns are non-empty, equally long and every
entry passes its per-field check (a Hypothesis property; another holds
each column check, which decides a column of exact types by its types
alone, to the per-entry check on mixed columns); its one-pass check
returns or refuses, with the same text, exactly what the walk of
REFRESH's old ``_REQUIRED``/``_OPTIONAL``/``_COLUMNS`` rows did (that
walk is kept below as the oracle); and each way a peer can get a column
wrong costs it one ERROR and the connection, on every node that faces
sources.
"""

import asyncio
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    PROTOCOL_VERSION,
    MessageType,
    ProtocolError,
    validate_message,
)

from tests.service.nodes import SOURCE_FACING
from tests.service.test_loopback_service import check_protocol_error, sends

DEFINITION = {"name": "q", "qab": 1.0,
              "terms": [{"weight": 2.0, "exponents": {"a": 1}}]}

#: type -> (required fields, optional fields), each with a well-formed value.
WELL_FORMED = {
    "register_source": ({"source_id": 1, "items": ["a"]}, {}),
    "refresh": ({"source_id": 1, "items": ["a"], "values": [1.5],
                 "seqs": [3]},
                {"resync": True, "sent_at": 0.5, "map_epoch": 2}),
    "dab_update": ({"source_id": 1, "bounds": {"a": 1.0}, "epochs": {"a": 1}},
                   {"seqs": {"a": 1}, "msg_id": 4, "probe": ["a"]}),
    "dab_ack": ({"source_id": 1, "msg_id": 4}, {}),
    "heartbeat": ({"source_id": 1, "seqs": {"a": 1}}, {}),
    "query_sub": ({"queries": "*"},
                  {"definitions": [DEFINITION], "trunk": True}),
    "notify": ({"updates": []},
               {"sent_at": 0.5, "refresh_sent_at": 0.25, "degraded": {},
                "shard": 0, "map_epoch": 2}),
    "snapshot": ({}, {"degraded": {"q": 2.0}, "shard": 0, "map_epoch": 2}),
    "error": ({"reason": "x"}, {}),
}

#: ``(type, what, fields, bad value, the parent's exact message)``, generated
#: by running the PR 18 ``validate_message`` over every case.
VALIDATION_CASES = (
    ('register_source', 'missing', ('source_id',), None,
     'register_source message missing fields: source_id'),
    ('register_source', 'missing', ('items',), None,
     'register_source message missing fields: items'),
    ('register_source', 'missing', ('source_id', 'items'), None,
     'register_source message missing fields: source_id, items'),
    ('register_source', 'missing+bad', ('items', 'source_id'), True,
     'register_source message missing fields: items'),
    ('register_source', 'bad', ('source_id',), True,
     "register_source field 'source_id' is malformed: True"),
    ('register_source', 'bad', ('items',), True,
     "register_source field 'items' is malformed: True"),
    ('register_source', 'bad', ('items',), [1],
     "register_source field 'items' is malformed: [1]"),
    ('refresh', 'missing', ('source_id',), None,
     'refresh message missing fields: source_id'),
    ('refresh', 'missing', ('items',), None,
     'refresh message missing fields: items'),
    ('refresh', 'missing', ('values',), None,
     'refresh message missing fields: values'),
    ('refresh', 'missing', ('seqs',), None,
     'refresh message missing fields: seqs'),
    ('refresh', 'missing', ('source_id', 'seqs'), None,
     'refresh message missing fields: source_id, seqs'),
    ('refresh', 'missing+bad', ('seqs', 'source_id'), True,
     'refresh message missing fields: seqs'),
    ('refresh', 'bad', ('source_id',), True,
     "refresh field 'source_id' is malformed: True"),
    ('refresh', 'bad', ('items',), True,
     "refresh field 'items' is malformed: True"),
    ('refresh', 'bad', ('items',), 'a',
     "refresh field 'items' is malformed: 'a'"),
    ('refresh', 'bad', ('items',), [],
     "refresh field 'items' is malformed: []"),
    ('refresh', 'bad', ('items',), [5],
     "refresh field 'items' is malformed: [5]"),
    ('refresh', 'bad', ('values',), True,
     "refresh field 'values' is malformed: True"),
    ('refresh', 'bad', ('values',), [],
     "refresh field 'values' is malformed: []"),
    ('refresh', 'bad', ('values',), ['1.5'],
     "refresh field 'values' is malformed: ['1.5']"),
    ('refresh', 'bad', ('values',), [True],
     "refresh field 'values' is malformed: [True]"),
    ('refresh', 'bad', ('values',), [math.nan],
     "refresh field 'values' is malformed: [nan]"),
    ('refresh', 'bad', ('values',), [-math.inf],
     "refresh field 'values' is malformed: [-inf]"),
    ('refresh', 'bad', ('seqs',), True,
     "refresh field 'seqs' is malformed: True"),
    ('refresh', 'bad', ('seqs',), [],
     "refresh field 'seqs' is malformed: []"),
    ('refresh', 'bad', ('seqs',), [True],
     "refresh field 'seqs' is malformed: [True]"),
    ('refresh', 'bad', ('seqs',), [1.5],
     "refresh field 'seqs' is malformed: [1.5]"),
    ('refresh', 'bad', ('resync',), 1,
     "refresh field 'resync' is malformed: 1"),
    ('refresh', 'bad', ('sent_at',), True,
     "refresh field 'sent_at' is malformed: True"),
    ('refresh', 'bad', ('map_epoch',), True,
     "refresh field 'map_epoch' is malformed: True"),
    ('dab_update', 'missing', ('source_id',), None,
     'dab_update message missing fields: source_id'),
    ('dab_update', 'missing', ('bounds',), None,
     'dab_update message missing fields: bounds'),
    ('dab_update', 'missing', ('epochs',), None,
     'dab_update message missing fields: epochs'),
    ('dab_update', 'missing', ('source_id', 'epochs'), None,
     'dab_update message missing fields: source_id, epochs'),
    ('dab_update', 'missing+bad', ('epochs', 'source_id'), True,
     'dab_update message missing fields: epochs'),
    ('dab_update', 'bad', ('source_id',), True,
     "dab_update field 'source_id' is malformed: True"),
    ('dab_update', 'bad', ('bounds',), True,
     "dab_update field 'bounds' is malformed: True"),
    ('dab_update', 'bad', ('bounds',), {'a': 'b'},
     "dab_update field 'bounds' is malformed: {'a': 'b'}"),
    ('dab_update', 'bad', ('bounds',), {'a': True},
     "dab_update field 'bounds' is malformed: {'a': True}"),
    ('dab_update', 'bad', ('epochs',), True,
     "dab_update field 'epochs' is malformed: True"),
    ('dab_update', 'bad', ('epochs',), {'a': 1.5},
     "dab_update field 'epochs' is malformed: {'a': 1.5}"),
    ('dab_update', 'bad', ('seqs',), True,
     "dab_update field 'seqs' is malformed: True"),
    ('dab_update', 'bad', ('seqs',), {'a': '1'},
     "dab_update field 'seqs' is malformed: {'a': '1'}"),
    ('dab_update', 'bad', ('msg_id',), True,
     "dab_update field 'msg_id' is malformed: True"),
    ('dab_update', 'bad', ('probe',), True,
     "dab_update field 'probe' is malformed: True"),
    ('dab_update', 'bad', ('probe',), [1],
     "dab_update field 'probe' is malformed: [1]"),
    ('dab_ack', 'missing', ('source_id',), None,
     'dab_ack message missing fields: source_id'),
    ('dab_ack', 'missing', ('msg_id',), None,
     'dab_ack message missing fields: msg_id'),
    ('dab_ack', 'missing', ('source_id', 'msg_id'), None,
     'dab_ack message missing fields: source_id, msg_id'),
    ('dab_ack', 'missing+bad', ('msg_id', 'source_id'), True,
     'dab_ack message missing fields: msg_id'),
    ('dab_ack', 'bad', ('source_id',), True,
     "dab_ack field 'source_id' is malformed: True"),
    ('dab_ack', 'bad', ('msg_id',), True,
     "dab_ack field 'msg_id' is malformed: True"),
    ('heartbeat', 'missing', ('source_id',), None,
     'heartbeat message missing fields: source_id'),
    ('heartbeat', 'missing', ('seqs',), None,
     'heartbeat message missing fields: seqs'),
    ('heartbeat', 'missing', ('source_id', 'seqs'), None,
     'heartbeat message missing fields: source_id, seqs'),
    ('heartbeat', 'missing+bad', ('seqs', 'source_id'), True,
     'heartbeat message missing fields: seqs'),
    ('heartbeat', 'bad', ('source_id',), True,
     "heartbeat field 'source_id' is malformed: True"),
    ('heartbeat', 'bad', ('seqs',), True,
     "heartbeat field 'seqs' is malformed: True"),
    ('heartbeat', 'bad', ('seqs',), {'a': '1'},
     "heartbeat field 'seqs' is malformed: {'a': '1'}"),
    ('query_sub', 'missing', ('queries',), None,
     'query_sub message missing fields: queries'),
    ('query_sub', 'bad', ('queries',), True,
     "query_sub field 'queries' is malformed: True"),
    ('query_sub', 'bad', ('queries',), [1],
     "query_sub field 'queries' is malformed: [1]"),
    ('query_sub', 'bad', ('queries',), 'q',
     "query_sub field 'queries' is malformed: 'q'"),
    ('query_sub', 'bad', ('definitions',), True,
     "query_sub field 'definitions' is malformed: True"),
    ('query_sub', 'bad', ('definitions',), [{}],
     "query_sub field 'definitions' is malformed: [{}]"),
    ('query_sub', 'bad', ('definitions',), {},
     "query_sub field 'definitions' is malformed: {}"),
    ('query_sub', 'bad', ('trunk',), None,
     "query_sub field 'trunk' is malformed: None"),
    ('notify', 'missing', ('updates',), None,
     'notify message missing fields: updates'),
    ('notify', 'bad', ('updates',), True,
     "notify field 'updates' is malformed: True"),
    ('notify', 'bad', ('updates',), {},
     "notify field 'updates' is malformed: {}"),
    ('notify', 'bad', ('sent_at',), True,
     "notify field 'sent_at' is malformed: True"),
    ('notify', 'bad', ('refresh_sent_at',), True,
     "notify field 'refresh_sent_at' is malformed: True"),
    ('notify', 'bad', ('degraded',), True,
     "notify field 'degraded' is malformed: True"),
    ('notify', 'bad', ('degraded',), {'q': 'x'},
     "notify field 'degraded' is malformed: {'q': 'x'}"),
    ('notify', 'bad', ('shard',), True,
     "notify field 'shard' is malformed: True"),
    ('notify', 'bad', ('map_epoch',), True,
     "notify field 'map_epoch' is malformed: True"),
    ('snapshot', 'bad', ('degraded',), True,
     "snapshot field 'degraded' is malformed: True"),
    ('snapshot', 'bad', ('degraded',), {'q': 'x'},
     "snapshot field 'degraded' is malformed: {'q': 'x'}"),
    ('snapshot', 'bad', ('shard',), True,
     "snapshot field 'shard' is malformed: True"),
    ('snapshot', 'bad', ('map_epoch',), True,
     "snapshot field 'map_epoch' is malformed: True"),
    ('error', 'missing', ('reason',), None,
     'error message missing fields: reason'),
    ('error', 'bad', ('reason',), True,
     "error field 'reason' is malformed: True"),
    ('error', 'bad', ('reason',), 5,
     "error field 'reason' is malformed: 5"),
)
ENVELOPE_CASES = (
    ({'v': 2, 'type': 'nope'},
     "unknown message type 'nope'"),
    ({'v': 2, 'type': ['refresh']},
     "unknown message type ['refresh']"),
    ({'v': 2, 'type': {'a': 1}},
     "unknown message type {'a': 1}"),
    ({'v': 2, 'type': None},
     'unknown message type None'),
    ({'v': 2},
     'unknown message type None'),
    ({'v': 2, 'type': 7},
     'unknown message type 7'),
    ({'v': 2, 'type': 'REFRESH'},
     "unknown message type 'REFRESH'"),
    ({'v': 1, 'type': 'snapshot'},
     'protocol version mismatch: got 1, speaking 2'),
    ({'v': '2', 'type': 'snapshot'},
     "protocol version mismatch: got '2', speaking 2"),
    ({'type': 'snapshot'},
     'protocol version mismatch: got None, speaking 2'),
    ({'v': 1, 'type': 'nope'},
     'protocol version mismatch: got 1, speaking 2'),
)


def _fields(kind):
    """The names of ``kind``'s required and optional fields, as the
    validator knows them."""
    if kind is MessageType.REFRESH:
        return (set(protocol._REFRESH_FIELDS),
                {name for name, _ in protocol._REFRESH_OPTIONAL})
    return set(protocol._REQUIRED[kind]), set(protocol._OPTIONAL.get(kind, {}))


def _message(kind, what, names, bad):
    required, optional = WELL_FORMED[kind]
    message = {"v": PROTOCOL_VERSION, "type": kind, **required, **optional}
    if what == "missing":
        for name in names:
            del message[name]
    elif what == "missing+bad":
        # A missing field is reported before a malformed one.
        del message[names[0]]
        message[names[1]] = bad
    else:
        message[names[0]] = bad
    return message


def test_every_refusal_keeps_its_recorded_text():
    # The table covers the whole vocabulary, field for field.
    assert set(WELL_FORMED) == {kind.value for kind in MessageType}
    for kind, (required, optional) in WELL_FORMED.items():
        assert (set(required), set(optional)) == _fields(MessageType(kind))
        assert validate_message(
            {"v": PROTOCOL_VERSION, "type": kind, **required}).value == kind
        assert validate_message({"v": PROTOCOL_VERSION, "type": kind,
                                 **required, **optional}).value == kind
    covered = set()
    for kind, what, names, bad, expected in VALIDATION_CASES:
        with pytest.raises(ProtocolError) as caught:
            validate_message(_message(kind, what, names, bad))
        assert str(caught.value) == expected, (kind, what, names, bad)
        covered.add((kind, what, names[0]))
    for kind, (required, optional) in WELL_FORMED.items():
        for name in required:
            assert (kind, "missing", name) in covered
        for name in {**required, **optional}:
            assert (kind, "bad", name) in covered
    for message, expected in ENVELOPE_CASES:
        with pytest.raises(ProtocolError) as caught:
            validate_message(message)
        assert str(caught.value) == expected, message


# ---------------------------------------------------------------------------
# the columnar REFRESH
# ---------------------------------------------------------------------------

def _refresh(**fields):
    frame = {"v": PROTOCOL_VERSION, "type": "refresh", "source_id": 0,
             "items": ["x0", "x1"], "values": [1.0, 2.0], "seqs": [1, 1]}
    frame.update(fields)
    return frame


def test_ragged_columns_are_refused_with_every_length():
    with pytest.raises(ProtocolError) as caught:
        validate_message(_refresh(values=[1.0]))
    assert str(caught.value) == (
        "refresh columns differ in length: items 2, values 1, seqs 2")


def test_the_constructor_builds_one_aligned_frame():
    frame = protocol.refresh(3, ("x0", "x1"), (1, 2.5), (4, 9), resync=True,
                             sent_at=0.5)
    assert frame == {"v": PROTOCOL_VERSION, "type": "refresh",
                     "source_id": 3, "items": ["x0", "x1"],
                     "values": [1.0, 2.5], "seqs": [4, 9], "resync": True,
                     "sent_at": 0.5}
    assert validate_message(frame) is MessageType.REFRESH


def _entry_ok(item, value, seq):
    """The per-field checks, spelled out independently of ``protocol``."""
    return (isinstance(item, str)
            and type(value) in (int, float) and math.isfinite(value)
            and type(seq) is int)


GOOD_ITEMS = st.text(max_size=3)
GOOD_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.integers(-10**6, 10**6))
GOOD_SEQS = st.integers(-5, 10**12)
BAD_ENTRIES = st.one_of(st.none(), st.booleans(), st.just(math.nan),
                        st.just(math.inf), st.just(-math.inf),
                        st.text(max_size=2), st.floats(-1e3, 1e3),
                        st.integers(-3, 3), st.lists(st.integers(),
                                                     max_size=1))


@st.composite
def refresh_frames(draw):
    """Columns that are mostly aligned and mostly well formed: lengths
    may differ or be zero, and one entry of one column may be replaced
    by anything at all."""
    size = draw(st.integers(0, 4))
    columns = {}
    for name, entries in (("items", GOOD_ITEMS), ("values", GOOD_VALUES),
                          ("seqs", GOOD_SEQS)):
        length = draw(st.one_of(st.just(size), st.integers(0, 5)))
        columns[name] = draw(st.lists(entries, min_size=length,
                                      max_size=length))
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(columns)))
        if columns[name]:
            index = draw(st.integers(0, len(columns[name]) - 1))
            columns[name][index] = draw(BAD_ENTRIES)
    return _refresh(**columns)


@given(frame=refresh_frames())
@example(frame=_refresh())
@example(frame=_refresh(items=[], values=[], seqs=[]))
@example(frame=_refresh(seqs=[1, True]))
@example(frame=_refresh(values=[1.0, math.inf]))
@example(frame=_refresh(items=["x0", 7]))
def test_a_frame_passes_iff_every_entry_passes(frame):
    items, values, seqs = frame["items"], frame["values"], frame["seqs"]
    expected = (0 < len(items) == len(values) == len(seqs)
                and all(map(_entry_ok, items, values, seqs)))
    try:
        validate_message(frame)
        passed = True
    except ProtocolError:
        passed = False
    assert passed == expected, frame


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


#: Entries of every type a column check treats alike or apart: the exact
#: types, non-finite floats, bools, numpy scalars and subclasses.
MIXED_ENTRIES = st.one_of(
    st.text(max_size=2), st.integers(-10**20, 10**20), st.floats(),
    st.booleans(), st.none(), st.integers(-3, 3).map(_Int),
    st.floats().map(_Float), st.text(max_size=2).map(_Str),
    st.floats().map(np.float64), st.integers(-3, 3).map(np.int64))


@given(column=st.one_of(st.lists(MIXED_ENTRIES, max_size=5),
                        st.lists(st.sampled_from((1, 2.5, -0.0)),
                                 max_size=5),
                        st.none(), st.text(max_size=2)))
@example(column=[])
@example(column=[1, 2.0, math.nan])
@example(column=[1.0, np.float64(2.0)])
@example(column=[1, True])
@example(column=[-math.inf, 1])
@example(column=["x", _Str("y")])
@example(column=[3, _Int(4)])
def test_a_column_check_is_the_per_entry_check(column):
    # The column under test in each field of a frame whose other columns
    # are well formed and as long as it, so only its own check decides.
    size = len(column) if isinstance(column, list) else 1
    well_formed = _refresh(items=["x"] * size, values=[1.0] * size,
                           seqs=[1] * size)
    for field, entry in (("items", protocol._is_str),
                         ("values", protocol._is_number),
                         ("seqs", protocol._is_int)):
        expected = (isinstance(column, list) and len(column) > 0
                    and all(map(entry, column)))
        frame = dict(well_formed, **{field: column})
        try:
            passed = validate_message(frame) is MessageType.REFRESH
        except ProtocolError:
            passed = False
        assert passed == expected, (field, column)


#: ``(what is wrong, frame, words the ERROR must contain)`` — each costs
#: the peer one ERROR and the connection.
COLUMN_FAULTS = (
    ("ragged", _refresh(seqs=[1]), "differ in length"),
    ("empty", _refresh(items=[], values=[], seqs=[]), "malformed"),
    ("bool seq", _refresh(seqs=[1, True]), "malformed"),
    ("NaN value", _refresh(values=[math.nan, 1.0]), "malformed"),
    ("+Inf value", _refresh(values=[1.0, math.inf]), "malformed"),
    ("-Inf value", _refresh(values=[-math.inf, 1.0]), "malformed"),
    ("non-string item", _refresh(items=["x0", 1]), "malformed"),
    ("v1 one-item refresh",
     {"v": 1, "type": "refresh", "source_id": 0, "item": "x0",
      "value": 1.0, "seq": 1}, "version mismatch"),
    ("one-item shape at v2",
     {"v": PROTOCOL_VERSION, "type": "refresh", "source_id": 0,
      "item": "x0", "value": 1.0, "seq": 1},
     "missing fields: items, values, seqs"),
)


@pytest.mark.parametrize("kind", SOURCE_FACING)
@pytest.mark.parametrize("what,frame,reason", COLUMN_FAULTS,
                         ids=[fault[0] for fault in COLUMN_FAULTS])
def test_a_bad_column_costs_one_error_and_the_connection(kind, what, frame,
                                                         reason):
    # Over an in-process link the dict arrives as sent: a NaN reaches the
    # validator instead of being refused by the encoder or the decoder.
    asyncio.run(check_protocol_error(kind, sends(frame), reason))


# ---------------------------------------------------------------------------
# the one-pass REFRESH check against the table walk it replaced
# ---------------------------------------------------------------------------

def _table_column(entry, exact, finite=False):
    """The table walk's column check: a non-empty list whose every entry
    passes ``entry``, decided by types alone when all are ``exact``."""
    def is_column(value):
        if not (isinstance(value, list) and value):
            return False
        if exact.issuperset(map(type, value)):
            return not finite or all(map(math.isfinite, value))
        return all(map(entry, value))
    return is_column


#: REFRESH's rows of the per-type tables, as they stood.
TABLE_REQUIRED = (
    ("source_id", protocol._is_int),
    ("items", _table_column(protocol._is_str, frozenset({str}))),
    ("values", _table_column(protocol._is_number, frozenset({int, float}),
                             finite=True)),
    ("seqs", _table_column(protocol._is_int, frozenset({int}))))
TABLE_OPTIONAL = (("resync", lambda v: isinstance(v, bool)),
                  ("sent_at", protocol._is_number),
                  ("map_epoch", protocol._is_int))
TABLE_COLUMNS = ("items", "values", "seqs")


def table_walk(message):
    """The oracle: ``validate_message`` as it walked a REFRESH frame
    through its ``_REQUIRED``/``_OPTIONAL``/``_COLUMNS`` rows."""
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"speaking {PROTOCOL_VERSION}")
    wire = message["type"]
    for name, _ in TABLE_REQUIRED:
        if name not in message:
            missing = [field for field, _ in TABLE_REQUIRED
                       if field not in message]
            raise ProtocolError(
                f"{wire} message missing fields: {', '.join(missing)}")
    for name, well_formed in TABLE_REQUIRED:
        if not well_formed(message[name]):
            raise ProtocolError(
                f"{wire} field {name!r} is malformed: {message[name]!r}")
    for name, well_formed in TABLE_OPTIONAL:
        if name in message and not well_formed(message[name]):
            raise ProtocolError(
                f"{wire} field {name!r} is malformed: {message[name]!r}")
    if len({len(message[name]) for name in TABLE_COLUMNS}) > 1:
        raise ProtocolError(
            f"{wire} columns differ in length: " + ", ".join(
                f"{name} {len(message[name])}" for name in TABLE_COLUMNS))
    return MessageType.REFRESH


def _outcome(check, message):
    try:
        return ("ok", check(message))
    except Exception as error:              # noqa: BLE001 — compared below
        return (type(error), str(error))


#: Anything a field may hold: what each field wants, what another field
#: wants, and what none does.
ODD = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                st.integers(-3, 3), st.floats(), st.floats().map(np.float64),
                st.integers(-3, 3).map(_Int), st.text(max_size=2).map(_Str),
                st.lists(st.integers(), max_size=1))
#: Well-formed entries of each column, in every type that passes.
GOOD_ENTRIES = {
    "items": st.one_of(st.text(max_size=2), st.text(max_size=2).map(_Str)),
    "values": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-9, 9),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64)),
    "seqs": st.one_of(st.integers(0, 10**12), st.integers(0, 9).map(_Int)),
}
#: Optional fields, well formed.
GOOD_OPTIONAL = {"resync": st.booleans(), "sent_at": st.floats(0, 1e9),
                 "map_epoch": st.integers(0, 9)}


def _rarely(draw):
    return draw(st.integers(0, 5)) == 0


@st.composite
def odd_refreshes(draw):
    """REFRESH frames a peer could send, each part rarely wrong: columns
    of exact, subclassed and numpy entries, with one entry swapped for a
    bool, a string, a NaN or worse, or empty, unequally long or not a list
    at all; fields missing; optional fields absent, ``null``, well formed
    or not."""
    size = draw(st.integers(1, 3))
    frame = {"v": 1 if _rarely(draw) else PROTOCOL_VERSION,
             "type": "refresh",
             "source_id": draw(ODD if _rarely(draw) else st.integers(0, 9))}
    for name, entries in GOOD_ENTRIES.items():
        length = draw(st.integers(0, 4)) if _rarely(draw) else size
        column = draw(st.lists(entries, min_size=length, max_size=length))
        if column and _rarely(draw):
            column[draw(st.integers(0, length - 1))] = draw(st.one_of(
                ODD, st.sampled_from((math.nan, math.inf, -math.inf))))
        frame[name] = draw(ODD) if _rarely(draw) else column
    for name, good in GOOD_OPTIONAL.items():
        choice = draw(st.integers(0, 5))
        if choice in (1, 2):
            frame[name] = draw(good)
        elif choice == 3:
            frame[name] = None
        elif choice == 4:
            frame[name] = draw(ODD)
    for name in ("source_id",) + TABLE_COLUMNS:
        if draw(st.integers(0, 11)) == 0:
            del frame[name]
    return frame


@given(frame=odd_refreshes())
@example(frame=_refresh(seqs=[1.0, 2.0]))
@example(frame=_refresh(seqs=["1", "2"]))
@example(frame=_refresh(seqs=[True, 2]))
@example(frame=_refresh(values=[np.float64(1.5), np.float64(math.nan)]))
@example(frame=_refresh(values=[np.float64(1.5), 2]))
@example(frame=_refresh(items=[], values=[1.0], seqs=[]))
@example(frame=_refresh(sent_at=None))
@example(frame=_refresh(resync=None, map_epoch="2"))
@example(frame={"v": PROTOCOL_VERSION, "type": "refresh", "values": [1.0]})
def test_the_refresh_check_is_the_table_walk(frame):
    assert _outcome(validate_message, frame) == _outcome(table_walk, frame)
