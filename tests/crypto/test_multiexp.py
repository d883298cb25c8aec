"""Property tests for the batch exponentiation kernels.

The kernels' whole contract is bit-for-bit agreement with the naive
loops they replace: ``multi_exponent`` against per-element ``pow()``
accumulation (reducing signed scalars exactly as ``ciphertext_scale``
does), ``FixedBaseTable.pow`` against ``pow(base, x, modulus)``.  The
hypothesis suites here drive both across random batches — including the
zero/one-weight fast paths, negative encoded scalars, and the
``initial`` accumulator argument — at tiny moduli where thousands of
examples are cheap.  The digit-plane accumulator (``plane_insert`` /
``plane_terms``) must match both, however its batches are split and
across a journal round trip of its buckets.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.multiexp import (
    PLANE_DIGITS,
    PLANE_WINDOW,
    FixedBaseTable,
    multi_exponent,
    plane_insert,
    plane_terms,
    select_window,
)
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import ParameterError
from repro.store.state import SessionRecord, StateStore


def naive_product(bases, exponents, modulus, initial=None):
    """The reference loop the kernel must match bit for bit."""
    acc = 1 if initial is None else initial % modulus
    for base, exponent in zip(bases, exponents):
        acc = acc * pow(base, exponent, modulus) % modulus
    return acc


# A tiny odd modulus keeps examples fast; the kernel never inspects the
# modulus structure, so agreement at small sizes implies it at 512 bits
# (the benchmark suite re-checks agreement there anyway).
moduli = st.integers(3, 1 << 64).map(lambda v: v | 1)


class TestMultiExponent:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_naive_loop(self, data):
        modulus = data.draw(moduli)
        count = data.draw(st.integers(0, 24))
        bases = data.draw(
            st.lists(st.integers(0, modulus - 1), min_size=count, max_size=count)
        )
        exponents = data.draw(
            st.lists(st.integers(0, 1 << 40), min_size=count, max_size=count)
        )
        assert multi_exponent(bases, exponents, modulus) == naive_product(
            bases, exponents, modulus
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_initial_accumulator_folds_once(self, data):
        # A regression guard for the subtle bug class: folding `initial`
        # into the bucket accumulator before the squaring chain would
        # square it along with the partial products.
        modulus = data.draw(moduli)
        initial = data.draw(st.integers(0, modulus - 1))
        bases = data.draw(st.lists(st.integers(0, modulus - 1), max_size=12))
        exponents = data.draw(
            st.lists(
                st.integers(0, 1 << 33),
                min_size=len(bases),
                max_size=len(bases),
            )
        )
        assert multi_exponent(
            bases, exponents, modulus, initial=initial
        ) == naive_product(bases, exponents, modulus, initial=initial)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_zero_and_one_weights_match_fast_paths(self, data):
        modulus = data.draw(moduli)
        bases = data.draw(
            st.lists(st.integers(0, modulus - 1), min_size=1, max_size=16)
        )
        # Force the trivial-exponent paths to dominate the batch.
        exponents = data.draw(
            st.lists(
                st.sampled_from([0, 0, 0, 1, 1, 2, 7]),
                min_size=len(bases),
                max_size=len(bases),
            )
        )
        assert multi_exponent(bases, exponents, modulus) == naive_product(
            bases, exponents, modulus
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.data())
    def test_window_override_is_result_invariant(self, window, data):
        modulus = data.draw(moduli)
        bases = data.draw(st.lists(st.integers(0, modulus - 1), max_size=10))
        exponents = data.draw(
            st.lists(
                st.integers(0, 1 << 24),
                min_size=len(bases),
                max_size=len(bases),
            )
        )
        assert multi_exponent(
            bases, exponents, modulus, window=window
        ) == naive_product(bases, exponents, modulus)

    def test_negative_encoded_scalars_reduce_like_ciphertext_scale(self):
        # Signed weights enter the kernel after `% n` reduction — exactly
        # what the naive ciphertext_scale loop does.  The decrypted result
        # must match the signed arithmetic.
        keypair = generate_keypair(128, "multiexp-signed")
        public, private = keypair.public, keypair.private
        rng = DeterministicRandom("multiexp-signed-ct")
        values = [5, 9, 2]
        weights = [-3, 4, -1]
        cts = [public.encrypt_raw(public.encode_signed(v), rng) for v in values]
        aggregate = multi_exponent(
            cts, [w % public.n for w in weights], public.nsquare
        )
        expected = sum(v * w for v, w in zip(values, weights))
        assert public.decode_signed(private.raw_decrypt(aggregate)) == expected

    def test_rejects_negative_exponent(self):
        with pytest.raises(ParameterError):
            multi_exponent([2], [-1], 101)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            multi_exponent([2, 3], [1], 101)

    def test_rejects_degenerate_modulus(self):
        with pytest.raises(ParameterError):
            multi_exponent([2], [1], 1)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ParameterError):
            multi_exponent([2, 3], [5, 6], 101, window=0)

    def test_empty_batch_returns_initial(self):
        assert multi_exponent([], [], 101) == 1
        assert multi_exponent([], [], 101, initial=42) == 42


WEIGHT_MAX = (1 << 32) - 1  # the paper's 32-bit database values

weights = st.one_of(
    st.sampled_from([0, 1, WEIGHT_MAX]), st.integers(0, WEIGHT_MAX)
)


def journal_round_trip(buckets, public_n, received, chunks_received):
    """Buckets as a restarted server reads them back from the journal."""
    with StateStore(":memory:") as store:
        store.save_session(
            SessionRecord(
                session_id=b"p" * 16,
                key_bits=public_n.bit_length(),
                chunk_size=1,
                public_n=public_n,
                aggregate=1,
                received=received,
                chunks_received=chunks_received,
                done=False,
                buckets=tuple(buckets),
            )
        )
        return list(store.load_session(b"p" * 16).buckets)


class TestDigitPlanes:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_chunked_folds_with_a_journal_restore(self, data):
        # n plays the Paillier modulus; the buckets live mod n^2.
        public_n = data.draw(st.integers(3, 1 << 48).map(lambda v: v | 1))
        modulus = public_n * public_n
        count = data.draw(st.integers(0, 30))
        bases = data.draw(
            st.lists(st.integers(1, modulus - 1), min_size=count, max_size=count)
        )
        exponents = data.draw(st.lists(weights, min_size=count, max_size=count))
        cuts = sorted(data.draw(st.sets(st.integers(0, count), max_size=6)))
        bounds = [0] + cuts + [count]
        chunks = list(zip(bounds, bounds[1:]))
        restore_at = data.draw(st.integers(0, len(chunks)))

        buckets = []
        for index, (start, stop) in enumerate(chunks):
            if index == restore_at:
                buckets = journal_round_trip(buckets, public_n, start, index)
            plane_insert(buckets, bases[start:stop], exponents[start:stop], modulus)
        if restore_at == len(chunks):
            buckets = journal_round_trip(buckets, public_n, count, len(chunks))

        closed = multi_exponent(*plane_terms(buckets), modulus)
        assert closed == naive_product(bases, exponents, modulus)
        assert closed == multi_exponent(bases, exponents, modulus)

    def test_planes_cover_each_nonzero_digit(self):
        two_planes = (2 << PLANE_WINDOW) | 1  # digit 1, then digit 2
        buckets = []
        plane_insert(buckets, [3, 5, 7], [two_planes, 0x1, 0x0], 1009)
        assert len(buckets) == 2 * PLANE_DIGITS
        assert buckets[0] == 3 * 5 % 1009  # digit 1 of plane 0
        assert buckets[PLANE_DIGITS + 1] == 3  # digit 2 of plane 1
        assert plane_terms(buckets) == ([15, 3], [1, 2 << PLANE_WINDOW])

    def test_exponents_wider_than_32_bits_grow_planes(self):
        buckets = []
        plane_insert(buckets, [2], [1 << 40], 10007)
        plane_insert(buckets, [3], [5], 10007)
        planes = -(-41 // PLANE_WINDOW)  # 1 << 40 is 41 bits wide
        assert len(buckets) == planes * PLANE_DIGITS
        assert multi_exponent(*plane_terms(buckets), 10007) == (
            pow(2, 1 << 40, 10007) * 3**5 % 10007
        )

    def test_plane_terms_read_buckets_laid_out_at_another_window(self):
        # Two 4-bit planes, as a journal row from an older release holds.
        buckets = [1] * 30
        buckets[0] = 3  # digit 1 of plane 0
        buckets[15 + 1] = 5  # digit 2 of plane 1
        assert plane_terms(buckets, 4) == ([3, 5], [1, 2 << 4])
        assert multi_exponent(*plane_terms(buckets, 4), 1009, window=4) == (
            3 * pow(5, 2 << 4, 1009) % 1009
        )

    def test_empty_and_invalid_input(self):
        buckets = []
        plane_insert(buckets, [], [], 101)
        assert buckets == [] and plane_terms(buckets) == ([], [])
        with pytest.raises(ParameterError):
            plane_insert(buckets, [2], [-1], 101)
        with pytest.raises(ParameterError):
            plane_insert(buckets, [2, 3], [1], 101)
        with pytest.raises(ParameterError):
            plane_insert(buckets, [2], [1], 1)


class TestSelectWindow:
    def test_grows_with_batch_size(self):
        small = select_window(4, 32)
        large = select_window(100_000, 32)
        assert 1 <= small <= large <= 16

    def test_degenerate_inputs(self):
        assert select_window(0, 32) == 1
        assert select_window(10, 0) == 1


#: exponent widths on and around the byte boundaries the table's rows
#: fall on, up to the 512-bit exponents of a 512-bit key's pool table
TABLE_BITS = [1, 7, 8, 9, 255, 256, 511, 512]


class TestFixedBaseTable:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_pow(self, data):
        modulus = data.draw(moduli)
        base = data.draw(st.integers(0, modulus - 1))
        bits = data.draw(
            st.one_of(st.sampled_from(TABLE_BITS), st.integers(1, 48))
        )
        table = FixedBaseTable(base, modulus, bits)
        exponent = data.draw(st.integers(0, table.capacity - 1))
        assert table.pow(exponent) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("bits", TABLE_BITS)
    def test_every_byte_digit_agrees_with_pow(self, bits):
        modulus, base = (1 << 61) - 1, 0x1234567
        table = FixedBaseTable(base, modulus, bits)
        full_bytes = (1 << (bits // 8 * 8)) - 1  # every whole byte 0xFF
        exponents = {0, table.capacity - 1, full_bytes}
        # each single nonzero byte: reads every entry of every row once
        exponents.update(
            digit << shift
            for shift in range(0, bits, 8)
            for digit in range(1, 256)
            if digit << shift < table.capacity
        )
        for exponent in sorted(exponents):
            assert table.pow(exponent) == pow(base, exponent, modulus), exponent

    def test_boundary_exponents(self):
        table = FixedBaseTable(7, 1009, 16)
        assert table.pow(0) == 1
        top = table.capacity - 1
        assert table.pow(top) == pow(7, top, 1009)

    def test_rejects_out_of_range_exponents(self):
        table = FixedBaseTable(7, 1009, 8)
        with pytest.raises(ParameterError):
            table.pow(-1)
        with pytest.raises(ParameterError):
            table.pow(table.capacity)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            FixedBaseTable(7, 1, 8)
        with pytest.raises(ParameterError):
            FixedBaseTable(7, 1009, 0)

    def test_matches_paillier_obfuscator_identity(self):
        # The fixed-base trick: (h^x mod n)^n == (h^n mod n^2)^x mod n^2,
        # so table powers of g = h^n are exact Paillier obfuscators.
        keypair = generate_keypair(96, "fixed-base-identity")
        public = keypair.public
        h = 12345 % public.n
        table = FixedBaseTable(
            pow(h, public.n, public.nsquare), public.nsquare, public.bits
        )
        for x in (1, 2, 77, (1 << public.bits) - 1):
            r = pow(h, x, public.n)
            assert table.pow(x) == pow(r, public.n, public.nsquare)

    def test_repr_and_entries(self):
        for bits in TABLE_BITS:
            table = FixedBaseTable(7, 1009, bits)
            assert table.entries == math.ceil(bits / 8) * 255
            assert repr(table) == (
                "FixedBaseTable(exponent_bits=%d, entries=%d)"
                % (bits, table.entries)
            )
