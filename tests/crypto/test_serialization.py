"""Tests for :mod:`repro.crypto.serialization`."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import serialization as ser


class TestIntCodec:
    def test_roundtrip(self):
        assert ser.decode_int(ser.encode_int(12345, 8)) == 12345

    def test_width_respected(self):
        assert len(ser.encode_int(1, 16)) == 16

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ser.encode_int(-1, 4)

    def test_rejects_overflow(self):
        with pytest.raises(OverflowError):
            ser.encode_int(256, 1)

    @given(st.integers(0, 2**256 - 1))
    def test_roundtrip_property(self, v):
        assert ser.decode_int(ser.encode_int(v, 32)) == v


class TestSequenceCodec:
    def test_roundtrip(self):
        values = (1, 2, 3, 2**64)
        data = ser.encode_int_seq(values, 16)
        assert ser.decode_int_seq(data, 16) == values

    def test_empty(self):
        data = ser.encode_int_seq((), 8)
        assert ser.decode_int_seq(data, 8) == ()

    def test_length_validated(self):
        data = ser.encode_int_seq((1, 2), 8)
        with pytest.raises(ValueError):
            ser.decode_int_seq(data + b"x", 8)

    def test_size_formula(self):
        data = ser.encode_int_seq((0,) * 10, 128)
        assert len(data) == 4 + 10 * 128

    @given(st.lists(st.integers(0, 2**63), max_size=50))
    def test_roundtrip_property(self, values):
        data = ser.encode_int_seq(tuple(values), 8)
        assert ser.decode_int_seq(data, 8) == tuple(values)

    @given(
        st.integers(1, 40).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(st.integers(0, 2 ** (8 * width) - 1), max_size=30),
                st.integers(-8, 8),
            )
        )
    )
    def test_exact_slices_roundtrip_and_refuse_wrong_lengths(self, case):
        """Any width, the empty sequence included, round-trips; a blob
        one or more bytes off its count's length is refused."""
        width, values, delta = case
        data = ser.encode_int_seq(tuple(values), width)
        assert ser.decode_int_seq(data, width) == tuple(values)
        if delta and len(data) + delta >= 4:
            mangled = data + bytes(delta) if delta > 0 else data[:delta]
            with pytest.raises(ValueError, match="expected %d" % len(data)):
                ser.decode_int_seq(mangled, width)


class TestSizeFormulas:
    def test_paper_key_size(self):
        # 512-bit keys: ciphertexts in Z_{n^2} are 1024 bits = 128 bytes.
        assert ser.ciphertext_bytes(512) == 128
        assert ser.public_key_bytes(512) == 64

    def test_frame_overhead(self):
        assert ser.frame_overhead_bytes() == 8
