"""Tests for :mod:`repro.crypto.rng`."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.rng import (
    DeterministicRandom,
    RandomSource,
    SecureRandom,
    as_random_source,
)


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom("seed")
        b = DeterministicRandom("seed")
        assert [a.randbits(64) for _ in range(10)] == [
            b.randbits(64) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRandom("seed-1")
        b = DeterministicRandom("seed-2")
        assert [a.randbits(64) for _ in range(4)] != [
            b.randbits(64) for _ in range(4)
        ]

    def test_seed_types(self):
        for seed in (b"bytes", "string", 12345, 0, -7):
            assert isinstance(DeterministicRandom(seed).randbits(32), int)

    def test_negative_and_positive_int_seeds_distinct(self):
        a = DeterministicRandom(7)
        b = DeterministicRandom(-7)
        assert a.randbits(128) != b.randbits(128)

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            DeterministicRandom(3.14)  # type: ignore[arg-type]

    def test_randbits_range(self):
        rng = DeterministicRandom("range")
        for bits in (1, 7, 8, 9, 63, 64, 65, 512):
            for _ in range(20):
                v = rng.randbits(bits)
                assert 0 <= v < (1 << bits)

    def test_randbits_zero(self):
        assert DeterministicRandom("z").randbits(0) == 0

    def test_randbits_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom("z").randbits(-1)

    def test_randbytes_length(self):
        rng = DeterministicRandom("bytes")
        assert rng.randbytes(0) == b""
        assert len(rng.randbytes(33)) == 33

    def test_bit_coverage(self):
        # Over many draws every bit position of an 8-bit draw is hit.
        rng = DeterministicRandom("coverage")
        seen_or = 0
        seen_and = 0xFF
        for _ in range(500):
            v = rng.randbits(8)
            seen_or |= v
            seen_and &= v
        assert seen_or == 0xFF
        assert seen_and == 0


class TestRangeHelpers:
    def test_randbelow_bounds(self):
        rng = DeterministicRandom("below")
        values = {rng.randbelow(10) for _ in range(300)}
        assert values == set(range(10))

    def test_randbelow_one(self):
        assert DeterministicRandom("one").randbelow(1) == 0

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeterministicRandom("x").randbelow(0)

    def test_randrange(self):
        rng = DeterministicRandom("rr")
        for _ in range(100):
            v = rng.randrange(5, 9)
            assert 5 <= v < 9

    def test_randrange_empty(self):
        with pytest.raises(ValueError):
            DeterministicRandom("x").randrange(5, 5)

    @given(st.integers(1, 2**64))
    def test_randbelow_property(self, upper):
        rng = DeterministicRandom(upper)
        assert 0 <= rng.randbelow(upper) < upper


class _ScriptedBytes(RandomSource):
    """Serves fixed byte strings, one per ``randbytes`` call, and records
    each length asked for."""

    def __init__(self, *chunks):
        self._chunks = list(chunks)
        self.requests = []

    def randbytes(self, length):
        self.requests.append(length)
        chunk = self._chunks.pop(0)
        assert len(chunk) == length
        return chunk


def _slices(width, shift, *values):
    """Big-endian ``width``-byte slices that shift down to ``values``;
    the discarded low bits are all set, so a mask in place of the shift
    would read other values."""
    return b"".join(
        ((v << shift) | ((1 << shift) - 1)).to_bytes(width, "big") for v in values
    )


class TestRandbelowMany:
    def test_rejected_slices_skipped_accepted_used_once_in_order(self):
        # upper = 300: 9 bits, 2-byte slices shifted right by 7.
        source = _ScriptedBytes(
            _slices(2, 7, 10, 400, 299),
            _slices(2, 7, 511),
            _slices(2, 7, 0),
        )
        assert source.randbelow_many(300, 3) == [10, 299, 0]
        assert source.requests == [6, 2, 2]

    def test_one_round_when_every_slice_is_accepted(self):
        source = _ScriptedBytes(_slices(3, 0, 5, 1, 2**24 - 2, 5))
        assert source.randbelow_many(2**24 - 1, 4) == [5, 1, 2**24 - 2, 5]
        assert source.requests == [12]

    def test_zero_count_draws_nothing(self):
        source = _ScriptedBytes()
        assert source.randbelow_many(7, 0) == []
        assert source.requests == []

    @pytest.mark.parametrize("upper, count", [(0, 1), (-3, 1), (5, -1)])
    def test_rejects_bad_arguments(self, upper, count):
        with pytest.raises(ValueError):
            DeterministicRandom("x").randbelow_many(upper, count)

    @given(st.integers(1, 2**600), st.integers(0, 2**32))
    def test_one_value_reads_the_stream_as_randbelow_does(self, upper, seed):
        """A deterministic source's ``randbelow`` draws ``width`` bytes per
        attempt, so a batch of one reads the same bytes the same way."""
        assert DeterministicRandom(seed).randbelow_many(upper, 1) == [
            DeterministicRandom(seed).randbelow(upper)
        ]

    @pytest.mark.parametrize("source", [DeterministicRandom("many"), SecureRandom()])
    def test_values_in_range_and_cover_it(self, source):
        values = source.randbelow_many(10, 400)
        assert len(values) == 400
        assert set(values) == set(range(10))


class TestSecureRandom:
    def test_basic_ranges(self):
        rng = SecureRandom()
        assert 0 <= rng.randbits(128) < 2**128
        assert 0 <= rng.randbelow(1000) < 1000
        assert len(rng.randbytes(16)) == 16
        assert rng.randbits(0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SecureRandom().randbits(-1)
        with pytest.raises(ValueError):
            SecureRandom().randbytes(-1)

    def test_streams_differ(self):
        # Two 256-bit draws colliding would indicate a broken source.
        assert SecureRandom().randbits(256) != SecureRandom().randbits(256)


class TestCoercion:
    def test_none_gives_secure(self):
        assert isinstance(as_random_source(None), SecureRandom)

    def test_seed_gives_deterministic(self):
        src = as_random_source("seed")
        assert isinstance(src, DeterministicRandom)

    def test_passthrough(self):
        rng = DeterministicRandom("x")
        assert as_random_source(rng) is rng

    def test_abstract_interface(self):
        with pytest.raises(NotImplementedError):
            RandomSource().randbits(8)
