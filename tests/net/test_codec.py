"""Tests for the byte-level wire codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ProtocolError
from repro.net import codec
from repro.net.codec import Frame, FrameDecoder, FrameType


class TestFraming:
    def test_roundtrip(self):
        data = codec.encode_frame(FrameType.RESULT, b"payload")
        decoder = FrameDecoder()
        decoder.feed(data)
        frames = list(decoder.frames())
        assert frames == [Frame(FrameType.RESULT, b"payload")]

    def test_unknown_type_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            codec.encode_frame(99, b"")

    def test_unknown_type_rejected_on_decode(self):
        decoder = FrameDecoder()
        decoder.feed(
            codec._HEADER.pack(codec.WIRE_MAGIC, codec.WIRE_VERSION_2, 0x63, 0, 0, 0)
        )
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    def test_oversized_payload_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(
            codec._HEADER.pack(
                codec.WIRE_MAGIC, codec.WIRE_VERSION_2, FrameType.HELLO, 0,
                2**32 - 1, 0,
            )
        )
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    @pytest.mark.parametrize("fed", [2, 8])
    def test_old_8_byte_header_rejected_as_soon_as_fed(self, fed):
        """A frame with the retired ``(type u32, length u32)`` header is
        rejected from its first two bytes, without waiting for a full
        16-byte header that may never come."""
        import struct

        old = struct.pack(">II", FrameType.HELLO, 28)
        decoder = FrameDecoder()
        decoder.feed(old[:fed])
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    def test_partial_frames_buffered(self):
        data = codec.encode_frame(FrameType.ERROR, b"oops")
        decoder = FrameDecoder()
        decoder.feed(data[:3])
        assert list(decoder.frames()) == []
        decoder.feed(data[3:7])
        assert list(decoder.frames()) == []
        decoder.feed(data[7:])
        assert list(decoder.frames()) == [Frame(FrameType.ERROR, b"oops")]
        assert decoder.pending_bytes() == 0

    def test_multiple_frames_per_feed(self):
        data = codec.encode_frame(FrameType.HELLO, b"\x00" * 12) + codec.encode_frame(
            FrameType.ERROR, b"x"
        )
        decoder = FrameDecoder()
        decoder.feed(data)
        assert len(list(decoder.frames())) == 2

    @given(st.lists(st.binary(max_size=200), max_size=10), st.integers(1, 17))
    def test_any_chunking_reassembles(self, payloads, read_size):
        stream = b"".join(
            codec.encode_frame(FrameType.ERROR, p) for p in payloads
        )
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), read_size):
            decoder.feed(stream[i : i + read_size])
            out.extend(decoder.frames())
        assert [f.payload for f in out] == payloads


class TestPayloadCodecs:
    def test_hello_roundtrip(self):
        sid = b"\x07" * codec.SESSION_ID_BYTES
        data = codec.encode_hello(512, 100_000, 64, sid)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        assert codec.decode_hello(frame.payload) == (512, 100_000, 64, sid)

    def test_hello_roundtrip_with_session_id(self):
        sid = bytes(range(16))
        data = codec.encode_hello(512, 100_000, 64, session_id=sid)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        assert codec.decode_hello(frame.payload) == (512, 100_000, 64, sid)

    def test_hello_rejects_bad_session_id_width(self):
        with pytest.raises(ProtocolError):
            codec.encode_hello(512, 10, 5, session_id=b"short")

    def test_resume_roundtrip(self):
        sid = b"\xab" * codec.SESSION_ID_BYTES
        decoder = FrameDecoder()
        decoder.feed(codec.encode_resume(sid))
        frame = next(decoder.frames())
        assert frame.frame_type == FrameType.RESUME
        assert codec.decode_resume(frame.payload) == sid
        with pytest.raises(ProtocolError):
            codec.decode_resume(b"wrong-size")
        with pytest.raises(ProtocolError):
            codec.encode_resume(b"short")

    def test_ack_roundtrip(self):
        decoder = FrameDecoder()
        decoder.feed(codec.encode_ack(7) + codec.encode_ack(codec.RESUME_UNKNOWN))
        frames = list(decoder.frames())
        assert [codec.decode_ack(f.payload) for f in frames] == [
            7,
            codec.RESUME_UNKNOWN,
        ]
        with pytest.raises(ProtocolError):
            codec.decode_ack(b"\x00")
        with pytest.raises(ProtocolError):
            codec.encode_ack(-1)

    def test_hello_version_checked(self):
        bad = codec._HELLO.pack(codec.PROTOCOL_VERSION + 1, 512, 10, 5)
        with pytest.raises(ProtocolError):
            codec.decode_hello(bad)

    def test_hello_length_checked(self):
        with pytest.raises(ProtocolError):
            codec.decode_hello(b"short")
        without_session_id = codec._HELLO.pack(codec.PROTOCOL_VERSION, 512, 10, 5)
        with pytest.raises(ProtocolError):
            codec.decode_hello(without_session_id)

    def test_public_key_roundtrip(self):
        n = 2**511 + 12345
        data = codec.encode_public_key(n, 512)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        assert codec.decode_public_key(frame.payload) == n

    def test_empty_public_key_rejected(self):
        with pytest.raises(ProtocolError):
            codec.decode_public_key(b"")

    def test_chunk_roundtrip(self):
        cts = [1, 2**1000, 17]
        data = codec.encode_ciphertext_chunk(cts, 512)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        assert codec.decode_ciphertext_chunk(frame.payload, 512) == cts

    def test_chunk_width_validated(self):
        data = codec.encode_ciphertext_chunk([1, 2], 512)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        with pytest.raises(ProtocolError):
            codec.decode_ciphertext_chunk(frame.payload + b"x", 512)
        with pytest.raises(ProtocolError):
            codec.decode_ciphertext_chunk(b"\x00", 512)

    def test_result_roundtrip(self):
        ct = 2**1000 + 99
        data = codec.encode_result(ct, 512)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        assert codec.decode_result(frame.payload, 512) == ct

    def test_result_width_validated(self):
        with pytest.raises(ProtocolError):
            codec.decode_result(b"\x00" * 10, 512)

    @given(st.lists(st.integers(0, 2**256 - 1), max_size=20))
    def test_chunk_roundtrip_property(self, cts):
        data = codec.encode_ciphertext_chunk(cts, 128)
        decoder = FrameDecoder()
        decoder.feed(data)
        frame = next(decoder.frames())
        assert codec.decode_ciphertext_chunk(frame.payload, 128) == cts


class TestV2Framing:
    def test_v2_roundtrip_preserves_sequence(self):
        data = codec.encode_frame(FrameType.ENC_CHUNK, b"payload", sequence=42)
        decoder = FrameDecoder()
        decoder.feed(data)
        (frame,) = decoder.frames()
        assert frame.frame_type == FrameType.ENC_CHUNK
        assert frame.payload == b"payload"
        assert frame.sequence == 42
        assert frame.wire_bytes == len(data)

    def test_v2_header_is_16_bytes(self):
        assert len(codec.encode_frame(FrameType.ACK, b"", sequence=0)) == 16

    def test_payload_corruption_caught_by_crc(self):
        data = bytearray(codec.encode_frame(FrameType.RESULT, b"x" * 32, sequence=3))
        data[-1] ^= 0x01
        decoder = FrameDecoder()
        decoder.feed(bytes(data))
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    def test_header_corruption_caught(self):
        """Flipping the sequence (or any header field) breaks the CRC —
        the header is covered, not just the payload."""
        data = bytearray(codec.encode_frame(FrameType.RESULT, b"x" * 32, sequence=3))
        data[4] ^= 0x40  # inside the sequence field
        decoder = FrameDecoder()
        decoder.feed(bytes(data))
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    def test_sequence_out_of_range_rejected(self):
        with pytest.raises(ProtocolError):
            codec.encode_frame(FrameType.ACK, b"", sequence=2**32)

    def test_partial_v2_frames_buffered(self):
        data = codec.encode_frame(FrameType.ERROR, b"oops", sequence=9)
        decoder = FrameDecoder()
        decoder.feed(data[:1])
        assert list(decoder.frames()) == []
        decoder.feed(data[1:15])
        assert list(decoder.frames()) == []
        decoder.feed(data[15:])
        (frame,) = decoder.frames()
        assert frame.payload == b"oops" and frame.sequence == 9


class TestFuzzDecoder:
    """Seeded random mutations of valid v2 streams: every outcome must be
    either a clean decode of original frames or a ``ProtocolError`` —
    never a different exception, never a silently different frame."""

    @staticmethod
    def _valid_stream(rng):
        frames = []
        for seq in range(rng.randbelow(6) + 1):
            frame_type = [
                FrameType.HELLO,
                FrameType.ENC_CHUNK,
                FrameType.RESULT,
                FrameType.ERROR,
                FrameType.ACK,
            ][rng.randbelow(5)]
            payload = rng.randbytes(rng.randbelow(120))
            frames.append(codec.encode_frame(frame_type, payload, sequence=seq))
        return frames

    @staticmethod
    def _mutate(stream, rng):
        kind = rng.randbelow(3)
        if kind == 0 and stream:  # bit flip
            data = bytearray(stream)
            pos = rng.randbelow(len(data))
            data[pos] ^= 1 << rng.randbelow(8)
            return bytes(data)
        if kind == 1:  # truncate
            return stream[: rng.randbelow(len(stream) + 1)]
        # splice random bytes at a random position
        pos = rng.randbelow(len(stream) + 1)
        return stream[:pos] + rng.randbytes(1 + rng.randbelow(24)) + stream[pos:]

    @pytest.mark.parametrize("seed", range(200))
    def test_mutated_streams_never_yield_wrong_frames(self, seed):
        from repro.crypto.rng import DeterministicRandom

        rng = DeterministicRandom("codec-fuzz-%d" % seed)
        originals = self._valid_stream(rng)
        stream = self._mutate(b"".join(originals), rng)
        valid_frames = set(originals)

        decoder = FrameDecoder()
        decoded = []
        read_size = 1 + rng.randbelow(37)
        try:
            for i in range(0, len(stream), read_size):
                decoder.feed(stream[i : i + read_size])
                decoded.extend(decoder.frames())
        except ProtocolError:
            return  # loud, typed rejection: exactly what corruption earns
        # Clean decode: every surfaced frame must re-encode to one of the
        # original wire frames, byte for byte — no silent damage.
        for frame in decoded:
            reencoded = codec.encode_frame(
                frame.frame_type, frame.payload, sequence=frame.sequence
            )
            assert reencoded in valid_frames

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_mutations(self, data):
        payloads = data.draw(st.lists(st.binary(max_size=80), max_size=5))
        stream = bytearray(
            b"".join(
                codec.encode_frame(FrameType.ERROR, p, sequence=i)
                for i, p in enumerate(payloads)
            )
        )
        if stream:
            pos = data.draw(st.integers(0, len(stream) - 1))
            stream[pos] ^= data.draw(st.integers(1, 255))
        decoder = FrameDecoder()
        decoder.feed(bytes(stream))
        try:
            decoded = list(decoder.frames())
        except ProtocolError:
            return
        for frame in decoded:
            assert frame.payload in payloads


class TestTypedErrorPayload:
    def test_roundtrip_with_code(self):
        data = codec.encode_error("quota exceeded", codec.ERROR_CODE_POLICY, 0)
        decoder = FrameDecoder()
        decoder.feed(data)
        (frame,) = decoder.frames()
        assert frame.frame_type == FrameType.ERROR
        code, message = codec.decode_error(frame.payload)
        assert code == codec.ERROR_CODE_POLICY
        assert message == "quota exceeded"

    def test_untagged_payload_decodes_as_protocol_error(self):
        code, message = codec.decode_error(b"plain old message")
        assert code == codec.ERROR_CODE_PROTOCOL
        assert message == "plain old message"

    def test_unknown_code_rejected_by_encoder(self):
        with pytest.raises(ProtocolError):
            codec.encode_error("x", 99)

    def test_unknown_code_degrades_to_untagged_decode(self):
        """A future peer's new error code must not hard-fail old
        clients; the payload decodes as a generic protocol error."""
        code, message = codec.decode_error(bytes((0xEE, 99)) + b"x")
        assert code == codec.ERROR_CODE_PROTOCOL
        assert message  # best-effort text, never an exception

    def test_legacy_payload_starting_with_magic_byte(self):
        """U+E000..U+EFFF encode with a 0xEE lead byte; an untagged
        legacy message starting with one must decode verbatim."""
        text = "\ue000 legacy oops"
        assert text.encode("utf-8")[0] == 0xEE
        code, message = codec.decode_error(text.encode("utf-8"))
        assert code == codec.ERROR_CODE_PROTOCOL
        assert message == text


class TestBusyFrame:
    def test_roundtrip(self):
        data = codec.encode_busy(250)
        decoder = FrameDecoder()
        decoder.feed(data)
        (frame,) = decoder.frames()
        assert frame.frame_type == FrameType.BUSY
        assert codec.decode_busy(frame.payload) == 250

    def test_hint_range_validated(self):
        with pytest.raises(ProtocolError):
            codec.encode_busy(-1)
        with pytest.raises(ProtocolError):
            codec.encode_busy(1 << 32)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ProtocolError):
            codec.decode_busy(b"\x00")


class TestDecoderPayloadCap:
    def test_policy_cap_tighter_than_default(self):
        decoder = FrameDecoder(max_payload=16)
        decoder.feed(codec.encode_frame(FrameType.ERROR, b"x" * 17, 0))
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    def test_cap_allows_exact_size(self):
        decoder = FrameDecoder(max_payload=16)
        decoder.feed(codec.encode_frame(FrameType.ERROR, b"x" * 16, 0))
        (frame,) = decoder.frames()
        assert frame.payload == b"x" * 16

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ProtocolError):
            FrameDecoder(max_payload=0)
