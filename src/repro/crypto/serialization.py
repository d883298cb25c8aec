"""Canonical wire encodings for integers, keys, and ciphertexts.

The network layer (:mod:`repro.net`) accounts for every byte a protocol
moves, so the library needs one authoritative answer to "how big is this
message".  These helpers define that answer: fixed-width big-endian
integer fields sized by the key parameters, plus small framing headers.

The encodings are also genuinely invertible — the test suite round-trips
keys and ciphertexts through bytes — so the sizes reported to the
performance model are the sizes a real deployment would ship.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import Literal, Tuple

from repro.crypto.ntheory import bytes_for_bits

__all__ = [
    "encode_int",
    "decode_int",
    "encode_int_seq",
    "decode_int_seq",
    "ciphertext_bytes",
    "public_key_bytes",
    "frame_overhead_bytes",
]

_LENGTH_FIELD = struct.Struct(">I")
#: declared Literal so ``repeat(_BIG)`` type-checks as a byteorder in map()
_BIG: Literal["big"] = "big"

#: Bytes of framing added around each protocol message (a 4-byte type tag
#: plus a 4-byte length field — mirrors a minimal TCP application framing).
FRAME_HEADER_BYTES = 8


def encode_int(value: int, width: int) -> bytes:
    """Encode a non-negative integer into exactly ``width`` big-endian bytes."""
    if value < 0:
        raise ValueError("cannot encode negative integer %d" % value)
    return value.to_bytes(width, "big")


def decode_int(data: bytes) -> int:
    """Decode a big-endian unsigned integer from bytes."""
    return int.from_bytes(data, "big")


def encode_int_seq(values: Tuple[int, ...], width: int) -> bytes:
    """Encode a sequence of equal-width integers with a count prefix.

    A negative or too-wide element raises ``OverflowError``.
    """
    # Every journal commit encodes the pending block's ciphertexts here;
    # mapping int.to_bytes costs a third less than a call per element
    # through encode_int.
    body = b"".join(map(int.to_bytes, values, repeat(width), repeat(_BIG)))
    return _LENGTH_FIELD.pack(len(values)) + body


def decode_int_seq(data: bytes, width: int) -> Tuple[int, ...]:
    """Inverse of :func:`encode_int_seq`."""
    (count,) = _LENGTH_FIELD.unpack_from(data, 0)
    expected = _LENGTH_FIELD.size + count * width
    if len(data) != expected:
        raise ValueError(
            "encoded sequence has %d bytes, expected %d" % (len(data), expected)
        )
    # Every warm restart decodes each journalled pending block here.
    # Mapping int.from_bytes over exact slices, as encode_int_seq maps
    # int.to_bytes, takes about half the time of a decode_int call per
    # element.
    offset = _LENGTH_FIELD.size
    return tuple(
        map(
            int.from_bytes,
            [data[offset + i * width : offset + (i + 1) * width] for i in range(count)],
            repeat(_BIG),
        )
    )


def ciphertext_bytes(modulus_bits: int) -> int:
    """Wire size of one Paillier ciphertext for an n of ``modulus_bits`` bits.

    Paillier ciphertexts live in Z*_{n^2}, i.e. ``2 * modulus_bits`` bits.
    With the paper's 512-bit keys a ciphertext is 128 bytes.
    """
    return bytes_for_bits(2 * modulus_bits)


def public_key_bytes(modulus_bits: int) -> int:
    """Wire size of a serialized Paillier public key (just n; g = n+1)."""
    return bytes_for_bits(modulus_bits)


def frame_overhead_bytes() -> int:
    """Framing bytes added per protocol message."""
    return FRAME_HEADER_BYTES
