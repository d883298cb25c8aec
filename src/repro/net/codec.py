"""Byte-level wire codec for the selected-sum protocol.

Everything else in :mod:`repro.net` moves Python objects and *accounts*
bytes; this module actually produces them.  It defines the frame formats
and payload encodings that :mod:`repro.spfe.session` speaks, so the
protocol can run over any byte stream (the tests drive it through real
``socket.socketpair()`` connections).

Every frame has one format (big-endian, 16-byte header)::

    +-------------+--------------+------------+-----------+
    | magic (u16) | version (u8) | type (u8)  | seq (u32) |
    +-------------+--------------+------------+-----------+
    | length (u32)| crc32 (u32)  | payload (length B)     |
    +-------------+--------------+------------------------+

The CRC-32 covers the header (with the CRC field zeroed) plus the
payload, so corruption of *any* header field or payload byte is caught
before a ciphertext is touched.  ``seq`` is the absolute chunk index for
``ENC_CHUNK`` frames (what makes sessions resumable) and 0 elsewhere.
A stream that does not open with the magic ``0x52 0x50`` ("RP") is
rejected as soon as its first two bytes arrive.

The performance model charges ``FRAME_HEADER_BYTES = 8`` per message
(:mod:`repro.crypto.serialization`): the paper's framing, which the
model's regression locks and the EXPERIMENTS.md figures are pinned to.
The real header spends 8 further bytes per frame on integrity and
ordering.

Payload encodings:

* HELLO — protocol version (u16), key bits (u16), database size (u32),
  chunk element count (u32), then the client's 16-byte session id.
* PUBLIC_KEY — the Paillier modulus n, big-endian, key_bits/8 bytes.
* ENC_CHUNK — ciphertext count (u32) then that many fixed-width
  ciphertexts (2 * key_bits / 8 bytes each).
* RESULT — one fixed-width ciphertext.
* ERROR — UTF-8 message, optionally prefixed with a typed error code
  (magic byte ``0xEE`` + code u8) so the peer can map the rejection back
  onto the exception hierarchy (:data:`ERROR_CODE_POLICY` →
  :class:`~repro.exceptions.PolicyViolation`, ...).  Untagged payloads
  decode as plain UTF-8 protocol errors.
* RESUME — a 16-byte session id (client asks to continue that session).
* ACK — next expected chunk index (u32); ``RESUME_UNKNOWN`` means the
  server no longer knows the session and the client must restart.
* BUSY — the server is shedding load: retry-after hint in milliseconds
  (u32).  Sent instead of accepting a session when the pool and accept
  queue are full, or while draining; the client treats it as a
  transient, retryable condition (:class:`~repro.exceptions.ServerBusy`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.crypto.ntheory import bytes_for_bits
from repro.exceptions import ProtocolError

__all__ = [
    "FrameType",
    "Frame",
    "FrameDecoder",
    "encode_frame",
    "encode_hello",
    "decode_hello",
    "encode_public_key",
    "decode_public_key",
    "encode_ciphertext_chunk",
    "chunk_count",
    "decode_ciphertext_chunk",
    "encode_result",
    "decode_result",
    "encode_resume",
    "decode_resume",
    "encode_ack",
    "decode_ack",
    "encode_error",
    "decode_error",
    "encode_busy",
    "decode_busy",
    "PROTOCOL_VERSION",
    "WIRE_MAGIC",
    "WIRE_VERSION_2",
    "SESSION_ID_BYTES",
    "RESUME_UNKNOWN",
    "ERROR_CODE_PROTOCOL",
    "ERROR_CODE_POLICY",
    "ERROR_CODE_VALIDATION",
]

PROTOCOL_VERSION = 1

WIRE_MAGIC = 0x5250  # "RP"
WIRE_VERSION_2 = 2

SESSION_ID_BYTES = 16
RESUME_UNKNOWN = 0xFFFFFFFF

_HEADER = struct.Struct(">HBBIII")  # magic, version, type, seq, length, crc
_MAGIC = WIRE_MAGIC.to_bytes(2, "big")
_HELLO = struct.Struct(">HHII")
_COUNT = struct.Struct(">I")


class FrameType:
    """Wire message type tags."""

    HELLO = 1
    PUBLIC_KEY = 2
    ENC_CHUNK = 3
    RESULT = 4
    ERROR = 5
    RESUME = 6
    ACK = 7
    BUSY = 8

    _KNOWN = frozenset(
        (HELLO, PUBLIC_KEY, ENC_CHUNK, RESULT, ERROR, RESUME, ACK, BUSY)
    )


#: ERROR payload type tags (second byte after the 0xEE magic).
ERROR_CODE_PROTOCOL = 1
ERROR_CODE_POLICY = 2
ERROR_CODE_VALIDATION = 3

_ERROR_MAGIC = 0xEE
_KNOWN_ERROR_CODES = frozenset(
    (ERROR_CODE_PROTOCOL, ERROR_CODE_POLICY, ERROR_CODE_VALIDATION)
)


@dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    frame_type: int
    payload: bytes
    sequence: int = 0

    @property
    def wire_bytes(self) -> int:
        """Size of the frame as encoded, header included."""
        return _HEADER.size + len(self.payload)


def _crc(frame_type: int, sequence: int, length: int, payload: bytes) -> int:
    header = _HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION_2, frame_type, sequence, length, 0
    )
    return zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF


def encode_frame(frame_type: int, payload: bytes, sequence: int = 0) -> bytes:
    """Encode one frame with its CRC-32 and sequence number."""
    if frame_type not in FrameType._KNOWN:
        raise ProtocolError("unknown frame type %d" % frame_type)
    if not 0 <= sequence <= 0xFFFFFFFF:
        raise ProtocolError("sequence %d out of u32 range" % sequence)
    crc = _crc(frame_type, sequence, len(payload), payload)
    return (
        _HEADER.pack(
            WIRE_MAGIC, WIRE_VERSION_2, frame_type, sequence, len(payload), crc
        )
        + payload
    )


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete frames come out of
    :meth:`frames`.  Handles frames split across reads and multiple
    frames per read — the realities of a TCP stream.  Corruption (bad
    magic, bad type, absurd length, CRC mismatch) raises
    :class:`~repro.exceptions.ProtocolError` and never yields a damaged
    frame.
    """

    MAX_PAYLOAD = 64 * 1024 * 1024  # sanity cap against corrupt lengths

    def __init__(self, max_payload: Optional[int] = None) -> None:
        if max_payload is not None and max_payload < 1:
            raise ProtocolError("max_payload must be positive")
        self.max_payload = max_payload or self.MAX_PAYLOAD
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Buffer more stream bytes."""
        self._buffer.extend(data)

    def frames(self) -> Iterator[Frame]:
        """Yield every complete frame currently buffered."""
        while True:
            frame = self._next()
            if frame is None:
                return
            yield frame

    def _next(self) -> Optional[Frame]:
        if self._buffer[:2] != _MAGIC[: len(self._buffer)]:
            raise ProtocolError("corrupt stream: bad frame magic")
        if len(self._buffer) < _HEADER.size:
            return None
        _, version, frame_type, sequence, length, crc = _HEADER.unpack_from(
            self._buffer, 0
        )
        if version != WIRE_VERSION_2:
            raise ProtocolError("corrupt stream: wire version %d" % version)
        if frame_type not in FrameType._KNOWN:
            raise ProtocolError("corrupt stream: frame type %d" % frame_type)
        if length > self.max_payload:
            raise ProtocolError("corrupt stream: %d-byte payload" % length)
        if len(self._buffer) < _HEADER.size + length:
            return None
        payload = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
        if crc != _crc(frame_type, sequence, length, payload):
            raise ProtocolError(
                "corrupt stream: CRC mismatch on frame seq %d" % sequence
            )
        del self._buffer[: _HEADER.size + length]
        return Frame(frame_type, payload, sequence)

    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)


# -- payload codecs -----------------------------------------------------------


def _check_session_id(session_id: bytes) -> None:
    if len(session_id) != SESSION_ID_BYTES:
        raise ProtocolError(
            "session id must be %d bytes, got %d"
            % (SESSION_ID_BYTES, len(session_id))
        )


def encode_hello(
    key_bits: int,
    database_size: int,
    chunk_size: int,
    session_id: bytes,
    sequence: int = 0,
) -> bytes:
    """Encode the HELLO frame (version, key bits, db size, chunk, sid)."""
    _check_session_id(session_id)
    payload = _HELLO.pack(PROTOCOL_VERSION, key_bits, database_size, chunk_size)
    return encode_frame(FrameType.HELLO, payload + session_id, sequence)


def decode_hello(payload: bytes) -> Tuple[int, int, int, bytes]:
    """Returns (key_bits, database_size, chunk_size, session_id)."""
    if len(payload) != _HELLO.size + SESSION_ID_BYTES:
        raise ProtocolError("malformed HELLO payload")
    version, key_bits, database_size, chunk_size = _HELLO.unpack_from(payload, 0)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "protocol version mismatch: got %d, speak %d"
            % (version, PROTOCOL_VERSION)
        )
    return key_bits, database_size, chunk_size, payload[_HELLO.size :]


def _ciphertext_width(key_bits: int) -> int:
    return bytes_for_bits(2 * key_bits)


def encode_public_key(n: int, key_bits: int, sequence: int = 0) -> bytes:
    """Encode the public-key frame (n, big-endian)."""
    return encode_frame(
        FrameType.PUBLIC_KEY,
        n.to_bytes(bytes_for_bits(key_bits), "big"),
        sequence,
    )


def decode_public_key(payload: bytes) -> int:
    """Parse a public-key payload back to n."""
    if not payload:
        raise ProtocolError("empty public key payload")
    return int.from_bytes(payload, "big")


def encode_ciphertext_chunk(
    ciphertexts: List[int], key_bits: int, sequence: int = 0
) -> bytes:
    """Encode a counted chunk of fixed-width ciphertexts.

    ``sequence`` must be the absolute chunk index — it is what lets a
    resumed session deduplicate and order chunks.
    """
    width = _ciphertext_width(key_bits)
    parts = [_COUNT.pack(len(ciphertexts))]
    for ct in ciphertexts:
        parts.append(ct.to_bytes(width, "big"))
    return encode_frame(FrameType.ENC_CHUNK, b"".join(parts), sequence)


def chunk_count(payload: bytes) -> int:
    """The element count a chunk payload announces in its first 4 bytes."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("truncated chunk payload")
    (count,) = _COUNT.unpack_from(payload, 0)
    return int(count)


def decode_ciphertext_chunk(payload: bytes, key_bits: int) -> List[int]:
    """Parse a chunk payload, validating its exact length."""
    width = _ciphertext_width(key_bits)
    count = chunk_count(payload)
    expected = _COUNT.size + count * width
    if len(payload) != expected:
        raise ProtocolError(
            "chunk payload is %d bytes, expected %d" % (len(payload), expected)
        )
    # Slice each element exactly: a tail slice per element copies the
    # rest of the frame each time, quadratic in the element count.
    return [
        int.from_bytes(payload[start : start + width], "big")
        for start in range(_COUNT.size, expected, width)
    ]


def encode_result(ciphertext: int, key_bits: int, sequence: int = 0) -> bytes:
    """Encode the single-ciphertext RESULT frame."""
    width = _ciphertext_width(key_bits)
    return encode_frame(
        FrameType.RESULT, ciphertext.to_bytes(width, "big"), sequence
    )


def decode_result(payload: bytes, key_bits: int) -> int:
    """Parse a RESULT payload, validating its width."""
    width = _ciphertext_width(key_bits)
    if len(payload) != width:
        raise ProtocolError("result payload has wrong width")
    return int.from_bytes(payload, "big")


def encode_resume(session_id: bytes, sequence: int = 0) -> bytes:
    """Encode the RESUME request."""
    _check_session_id(session_id)
    return encode_frame(FrameType.RESUME, session_id, sequence)


def decode_resume(payload: bytes) -> bytes:
    """Parse a RESUME payload back to the session id."""
    if len(payload) != SESSION_ID_BYTES:
        raise ProtocolError("malformed RESUME payload")
    return payload


def encode_ack(next_chunk: int, sequence: int = 0) -> bytes:
    """Encode the ACK frame carrying the next expected chunk index."""
    if not 0 <= next_chunk <= RESUME_UNKNOWN:
        raise ProtocolError("ack chunk index %d out of range" % next_chunk)
    return encode_frame(FrameType.ACK, _COUNT.pack(next_chunk), sequence)


def decode_ack(payload: bytes) -> int:
    """Parse an ACK payload back to the next expected chunk index."""
    if len(payload) != _COUNT.size:
        raise ProtocolError("malformed ACK payload")
    return _COUNT.unpack(payload)[0]


def encode_error(
    message: str,
    code: int = ERROR_CODE_PROTOCOL,
    sequence: int = 0,
) -> bytes:
    """Encode a typed ERROR frame (0xEE magic + code byte + UTF-8)."""
    if code not in _KNOWN_ERROR_CODES:
        raise ProtocolError("unknown error code %d" % code)
    payload = bytes((_ERROR_MAGIC, code)) + message.encode("utf-8")
    return encode_frame(FrameType.ERROR, payload, sequence)


def decode_error(payload: bytes) -> Tuple[int, str]:
    """Parse an ERROR payload into (code, message).

    Untagged payloads (no 0xEE magic — pre-typed-error peers) decode as
    ``(ERROR_CODE_PROTOCOL, message)``.  A 0xEE-tagged payload whose
    code byte is *unknown* also degrades to the untagged path: it is
    either a newer peer's error code (which must not hard-fail an old
    client) or a legacy UTF-8 message that merely starts with 0xEE (the
    lead byte of U+E000..U+EFFF), and in both cases the whole payload is
    the best available message.
    """
    if (
        len(payload) >= 2
        and payload[0] == _ERROR_MAGIC
        and payload[1] in _KNOWN_ERROR_CODES
    ):
        return payload[1], payload[2:].decode("utf-8", "replace")
    return ERROR_CODE_PROTOCOL, payload.decode("utf-8", "replace")


def encode_busy(retry_after_ms: int = 0, sequence: int = 0) -> bytes:
    """Encode the BUSY load-shed frame with a retry-after hint."""
    if not 0 <= retry_after_ms <= 0xFFFFFFFF:
        raise ProtocolError("retry hint %d out of u32 range" % retry_after_ms)
    return encode_frame(FrameType.BUSY, _COUNT.pack(retry_after_ms), sequence)


def decode_busy(payload: bytes) -> int:
    """Parse a BUSY payload back to the retry-after hint (milliseconds)."""
    if len(payload) != _COUNT.size:
        raise ProtocolError("malformed BUSY payload")
    return _COUNT.unpack(payload)[0]
