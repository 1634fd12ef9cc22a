"""Framing, message validation and the codec of the wire protocol."""

import asyncio
import json
import math
import os
import struct

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    MessageType,
    ProtocolError,
    encode_frame,
    validate_message,
)
from repro.service.transports import loopback_pair

from tests.service.nodes import SOURCE_FACING
from tests.service.test_loopback_service import check_protocol_error

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))


def frame_of(message):
    return encode_frame(message)


class TestFraming:
    def test_round_trip(self):
        message = protocol.refresh(3, ["x7"], [41.5], [12])
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(frame_of(message))
        assert decoded == message

    def test_partial_frames_buffer_across_feeds(self):
        message = protocol.heartbeat(1, {"x0": 4, "x1": 9})
        data = frame_of(message)
        decoder = FrameDecoder()
        # Byte-at-a-time delivery: nothing until the last byte lands.
        for byte_index in range(len(data) - 1):
            assert decoder.feed(data[byte_index:byte_index + 1]) == []
        (decoded,) = decoder.feed(data[-1:])
        assert decoded == message

    def test_header_split_across_feeds(self):
        message = protocol.error("boom")
        data = frame_of(message)
        decoder = FrameDecoder()
        assert decoder.feed(data[:2]) == []           # half the length prefix
        assert decoder.feed(data[2:HEADER_BYTES]) == []
        (decoded,) = decoder.feed(data[HEADER_BYTES:])
        assert decoded == message

    def test_multiple_frames_in_one_feed(self):
        first = protocol.refresh(0, ["x0"], [1.0], [1])
        second = protocol.refresh(0, ["x0"], [2.0], [2])
        decoder = FrameDecoder()
        assert decoder.feed(frame_of(first) + frame_of(second)) == [first, second]

    def test_oversized_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        header = struct.pack(">I", 65)
        with pytest.raises(ProtocolError, match="65-byte frame"):
            decoder.feed(header)
        assert decoder.buffered_bytes <= HEADER_BYTES

    def test_oversized_outgoing_frame_rejected(self):
        huge = protocol.error("x" * 200)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(huge, max_frame_bytes=64)

    def test_default_limit_is_one_mebibyte(self):
        assert MAX_FRAME_BYTES == 1 << 20

    def test_undecodable_body_poisons_decoder(self):
        decoder = FrameDecoder()
        body = b"\xff\xfe not json"
        with pytest.raises(ProtocolError, match="undecodable"):
            decoder.feed(struct.pack(">I", len(body)) + body)
        # Poisoned: even a perfectly good frame is refused now.
        with pytest.raises(ProtocolError, match="close the connection"):
            decoder.feed(frame_of(protocol.error("fine")))

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="JSON object"):
            decoder.feed(struct.pack(">I", len(body)) + body)


class TestValidation:
    def test_unknown_message_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            validate_message({"v": PROTOCOL_VERSION, "type": "teleport"})

    def test_version_mismatch(self):
        good = protocol.heartbeat(0, {})
        bad = dict(good, v=PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolError, match="version mismatch"):
            validate_message(bad)
        with pytest.raises(ProtocolError, match="version mismatch"):
            validate_message({"type": "heartbeat"})      # version absent

    def test_missing_required_fields(self):
        partial = {"v": PROTOCOL_VERSION, "type": "refresh", "items": ["x0"]}
        with pytest.raises(ProtocolError, match="missing fields"):
            validate_message(partial)

    def test_every_constructor_validates(self):
        messages = [
            protocol.register_source(2, ["x1", "x0"]),
            protocol.refresh(2, ["x0"], [3.5], [7], resync=True, sent_at=1.0),
            protocol.dab_update(2, {"x0": 0.5}, {"x0": 3}),
            protocol.heartbeat(2, {"x0": 7}),
            protocol.query_sub(["q1", "q0"]),
            protocol.query_sub(),
            protocol.notify([{"query": "q0", "value": 9.0}], sent_at=2.0),
            protocol.snapshot(),
            protocol.snapshot(values={"q0": 9.0}, stats={"refreshes": 1}),
            protocol.error("nope"),
        ]
        for message in messages:
            kind = validate_message(message)
            assert isinstance(kind, MessageType)
            # And each survives a framing round trip unchanged.
            (decoded,) = FrameDecoder().feed(encode_frame(message))
            assert decoded == message
            # The bytes are the canonical form the journal also stores:
            # compact separators, sorted keys.
            assert protocol.encode_body(message) == json.dumps(
                message, separators=(",", ":"), sort_keys=True,
                allow_nan=False).encode("utf-8")

    def test_register_source_sorts_items(self):
        assert protocol.register_source(0, ["b", "a"])["items"] == ["a", "b"]

    def test_nan_values_refused_at_encode_time(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            message = protocol.refresh(0, ["x0"], [value], [1])
            with pytest.raises(ProtocolError):
                encode_frame(message)

    def test_non_json_values_refused_at_encode_time(self):
        import numpy

        message = protocol.dab_ack(0, 1)
        message["msg_id"] = numpy.int64(1)
        with pytest.raises(ProtocolError):
            encode_frame(message)
        with pytest.raises(ProtocolError):
            protocol.encode_body(message)

    def test_non_finite_constants_refused_at_decode_time(self):
        # encode_frame already refuses NaN/Infinity; a hostile peer can
        # still put them on the wire, and json.loads would accept them.
        for constant in ("NaN", "Infinity", "-Infinity"):
            body = (f'{{"v": 2, "type": "refresh", "source_id": 0, '
                    f'"items": ["x0"], "values": [{constant}], '
                    f'"seqs": [1]}}').encode()
            decoder = FrameDecoder()
            with pytest.raises(ProtocolError, match="undecodable"):
                decoder.feed(struct.pack(">I", len(body)) + body)

    def test_malformed_field_types_rejected(self):
        good = protocol.refresh(0, ["x0"], [1.0], [1])
        bad_messages = [
            dict(good, source_id="zero"),          # numeric string
            dict(good, source_id=True),            # bool is not an int
            dict(good, values=["12"]),             # numeric string
            dict(good, values=[float("nan")]),     # non-finite
            dict(good, seqs=[1.5]),                # float seq
            dict(good, resync="yes"),              # optional, still typed
            dict(protocol.register_source(0, ["x0"]), items="x0"),
            dict(protocol.heartbeat(0, {"x0": 1}), seqs=["x0"]),
            dict(protocol.dab_update(0, {"x0": 1.0}, {"x0": 1}),
                 bounds={"x0": "wide"}),
            dict(protocol.dab_update(0, {}, {}, seqs={"x0": 1}),
                 seqs={"x0": "7"}),
            dict(protocol.query_sub(["q0"]), queries=7),
            dict(protocol.error("x"), reason=None),
        ]
        for bad in bad_messages:
            with pytest.raises(ProtocolError, match="malformed"):
                validate_message(bad)

    def test_dab_update_seqs_roundtrip(self):
        message = protocol.dab_update(2, {"x0": 0.5}, {"x0": 3},
                                      seqs={"x0": 9})
        assert message["seqs"] == {"x0": 9}
        assert validate_message(message) is MessageType.DAB_UPDATE
        (decoded,) = FrameDecoder().feed(encode_frame(message))
        assert decoded == message
        # Omitted entirely when not given (registration replies only).
        assert "seqs" not in protocol.dab_update(2, {"x0": 0.5}, {"x0": 3})


# ---------------------------------------------------------------------------
# the codec: orjson behind encode_body/decode_body, stdlib-compatible bytes
# ---------------------------------------------------------------------------

def stdlib_body(message):
    """The canonical bytes as the stdlib writes them (ASCII escapes,
    ``1e+22``-style exponents) — what any JSON peer, or a journal written
    by an earlier codec, may hand us."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True,
                      allow_nan=False).encode("utf-8")


def same(a, b):
    """Equal values of equal types, every float compared bitwise (so
    ``-0.0`` is not ``0.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return set(a) == set(b) and all(same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


FINITE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310,
                                    2.2250738585072014e-308, 1e300, -1e300,
                                    1e-300, -1e-300, 1e22, 1.5e-05, 1e16]))
SCALARS = (st.none() | st.booleans() | st.integers(-2**63, 2**63 - 1)
           | FINITE_FLOATS | st.text() | st.sampled_from(["null", "é€😀"]))
VALUES = st.recursive(
    SCALARS, lambda children: (st.lists(children, max_size=4)
                               | st.dictionaries(st.text(), children,
                                                 max_size=4)),
    max_leaves=24)
MESSAGES = st.dictionaries(st.text(), VALUES, max_size=6)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda value: st.sampled_from([value, numpy.float64(value)]))


def _bury(poisoned):
    """One level deeper: the poisoned value as a list entry or a dict
    value among finite neighbours."""
    in_list = st.tuples(poisoned, st.lists(VALUES, max_size=3),
                        st.integers(0, 3)).map(
        lambda t: t[1][:t[2]] + [t[0]] + t[1][t[2]:])
    in_dict = st.tuples(st.text(), poisoned,
                        st.dictionaries(st.text(), VALUES, max_size=3)).map(
        lambda t: {**t[2], t[0]: t[1]})
    return in_list | in_dict


POISONED = st.recursive(NON_FINITE, _bury, max_leaves=6)


class TestCodec:
    @given(MESSAGES)
    @example({"a": -0.0, "b": 5e-324, "é": "ü", "c": [1e22, 1.5e-05]})
    @example({"null": None, "s": "null", "n": [None, "null"]})
    def test_round_trips_and_speaks_stdlib_json(self, message):
        body = protocol.encode_body(message)
        assert same(protocol.decode_body(body), message)
        # any JSON peer reads our bytes, and we read theirs
        assert same(json.loads(body), message)
        assert same(protocol.decode_body(stdlib_body(message)), message)

    @given(MESSAGES)
    def test_keys_sorted_at_every_depth(self, message):
        def sorted_everywhere(value):
            if isinstance(value, dict):
                return (list(value) == sorted(value)
                        and all(map(sorted_everywhere, value.values())))
            if isinstance(value, list):
                return all(map(sorted_everywhere, value))
            return True
        assert sorted_everywhere(json.loads(protocol.encode_body(message)))

    def test_bytes_stay_compact_sorted_utf8(self):
        message = {"b": [1e22, 1.5e-05, -0.0], "a": "é", "c": None}
        assert protocol.encode_body(message) == (
            '{"a":"é","b":[1e22,0.000015,-0.0],"c":null}'.encode("utf-8"))

    @given(POISONED)
    def test_non_finite_at_any_depth_refused(self, poisoned):
        for message in ({"x": poisoned}, {"x": [None, "null"], "y": poisoned}):
            with pytest.raises(ProtocolError, match="unencodable"):
                protocol.encode_body(message)
            with pytest.raises(ProtocolError, match="unencodable"):
                encode_frame(message)

    def test_non_finite_key_refused(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            protocol.encode_body({"x": {math.nan: 1.0}})

    @pytest.mark.parametrize("bad", [
        math.nan, -math.inf, numpy.float64("inf"),
        (1.0, (None, math.nan))])
    def test_non_finite_deep_beside_a_none_refused(self, bad):
        # A reply with an absent stat spells ``null``, so its whole body
        # is walked: a non-finite float deep inside, as a value, a tuple
        # entry or a key, is still found.
        stats = {"shard_id": None, "listen_address": None,
                 "queries": [{"name": "q", "values": [1.0, {"v": [bad]}]}]}
        messages = [protocol.snapshot({"q": 1.0}, stats)]
        if isinstance(bad, float):
            messages.append({"shard_id": None, "deep": [{"k": {bad: 1}}]})
        for message in messages:
            with pytest.raises(ProtocolError, match="unencodable"):
                protocol.encode_body(message)
        assert protocol.encode_body(protocol.snapshot(
            {"q": 1.0}, dict(stats, queries=[[1.0, (2.0, None)]])))

    def test_float_subclass_written_as_its_float(self):
        assert protocol.encode_body({"x": numpy.float64(2.5)}) == b'{"x":2.5}'
        with pytest.raises(ProtocolError, match="unencodable"):
            protocol.encode_body({"x": numpy.float64("nan")})

    def test_int_beyond_64_bits_refused_at_encode_time(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            protocol.encode_body({"x": 2**64})
        with pytest.raises(ProtocolError, match="unencodable"):
            protocol.encode_body({"x": -2**63 - 1})

    def test_enum_and_uuid_values_encode(self):
        # The stdlib refuses both; nothing in the service sends either.
        import uuid

        assert protocol.encode_body(
            {"k": MessageType.REFRESH, "u": uuid.UUID(int=5)}) == (
            b'{"k":"refresh","u":"00000000-0000-0000-0000-000000000005"}')


def nested(depth):
    """A body whose arrays/objects nest ``depth`` levels deep."""
    return b'{"x":' + b"[" * (depth - 1) + b"]" * (depth - 1) + b"}"


class TestHostileBodies:
    """How bytes the stdlib codec read differently now fail: each is
    refused before it reaches a handler."""

    def test_seq_beyond_64_bits_reads_as_a_float(self):
        body = stdlib_body(dict(protocol.refresh(0, ["x0"], [1.0], [1]),
                                seqs=[2**64]))
        message = protocol.decode_body(body)
        assert message["seqs"] == [float(2**64)]
        with pytest.raises(ProtocolError, match="malformed"):
            validate_message(message)

    def test_number_beyond_a_double_is_undecodable(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_body(b'{"v":2,"type":"refresh","source_id":0,'
                                 b'"items":["x0"],"values":[1e400],'
                                 b'"seqs":[1]}')

    def test_lone_surrogate_escape_is_undecodable(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_body(b'{"v":2,"type":"error",'
                                 b'"reason":"\\ud800"}')
        with pytest.raises(ProtocolError, match="unencodable"):
            protocol.encode_body(protocol.error("\ud800"))

    def test_nesting_is_bounded_before_parsing(self):
        value, depth = protocol.decode_body(nested(protocol.MAX_NESTING)), 0
        while value != []:
            value, depth = (value["x"] if depth == 0 else value[0]), depth + 1
        assert depth == protocol.MAX_NESTING - 1    # the innermost is []
        for depth in (protocol.MAX_NESTING + 1, 200_000):
            # 200 000 levels would overflow the C stack while the parsed
            # document is turned into Python objects: refused first.
            with pytest.raises(ProtocolError, match="nested deeper"):
                protocol.decode_body(nested(depth))

    def test_nesting_counts_brackets_outside_strings_only(self):
        brackets = "[{" * protocol.MAX_NESTING
        message = {"s": brackets, "t": 'q"\\' + brackets, "x": [[1]]}
        assert protocol.decode_body(protocol.encode_body(message)) == message
        # Escaped quotes and closing brackets in a string hide nothing.
        hidden = (b'{"s":"\\\"' + b"]" * 5000 + b'","x":'
                  + nested(protocol.MAX_NESTING + 1)[5:])
        with pytest.raises(ProtocolError, match="nested deeper"):
            protocol.decode_body(hidden)

    def test_many_shallow_objects_decode(self):
        message = {"updates": [{"query": f"q{i}", "value": i / 3}
                               for i in range(3 * protocol.MAX_NESTING)]}
        assert protocol.decode_body(protocol.encode_body(message)) == message

    @pytest.mark.parametrize("kind", SOURCE_FACING)
    @pytest.mark.parametrize("body,reason", [
        (stdlib_body(dict(protocol.refresh(0, ["x0"], [1.0], [1]),
                          seqs=[2**64])), "malformed"),
        (b'{"v":2,"type":"refresh","source_id":0,"items":["x0"],'
         b'"values":[1e400],"seqs":[1]}', "corrupt framing"),
        (b'{"v":2,"type":"refresh","source_id":0,"items":["\\udc00"],'
         b'"values":[1.0],"seqs":[1]}', "corrupt framing"),
    ], ids=["seq_2**64", "1e400", "lone_surrogate"])
    def test_sender_gets_one_error_and_the_hang_up(self, kind, body, reason):
        async def bad(stream):
            stream._writer.write(struct.pack(">I", len(body)) + body)
        asyncio.run(check_protocol_error(kind, bad, reason,
                                         pair=loopback_pair))
