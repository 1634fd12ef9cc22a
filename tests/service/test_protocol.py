"""Framing and message-validation edge cases for the wire protocol."""

import json
import struct

import pytest

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


def frame_of(message):
    return encode_frame(message)


class TestFraming:
    def test_round_trip(self):
        message = protocol.refresh(3, "x7", 41.5, 12)
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
        first = protocol.refresh(0, "x0", 1.0, 1)
        second = protocol.refresh(0, "x0", 2.0, 2)
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
        partial = {"v": PROTOCOL_VERSION, "type": "refresh", "item": "x0"}
        with pytest.raises(ProtocolError, match="missing fields"):
            validate_message(partial)

    def test_every_constructor_validates(self):
        messages = [
            protocol.register_source(2, ["x1", "x0"]),
            protocol.refresh(2, "x0", 3.5, 7, resync=True, sent_at=1.0),
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
            message = protocol.refresh(0, "x0", value, 1)
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
            body = (f'{{"v": 1, "type": "refresh", "source_id": 0, '
                    f'"item": "x0", "value": {constant}, "seq": 1}}').encode()
            decoder = FrameDecoder()
            with pytest.raises(ProtocolError, match="undecodable"):
                decoder.feed(struct.pack(">I", len(body)) + body)

    def test_malformed_field_types_rejected(self):
        good = protocol.refresh(0, "x0", 1.0, 1)
        bad_messages = [
            dict(good, source_id="zero"),          # numeric string
            dict(good, source_id=True),            # bool is not an int
            dict(good, value="12"),                # numeric string
            dict(good, value=float("nan")),        # non-finite
            dict(good, seq=1.5),                   # float seq
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
