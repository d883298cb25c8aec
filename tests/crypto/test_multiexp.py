"""Property tests for the batch exponentiation kernels.

The kernels' whole contract is bit-for-bit agreement with the naive
loops they replace: the Bos–Coster fold (``FoldProgram``, ``fold_plan``
and ``multi_exponent``, which compiles a plan per call) against
per-element ``pow()`` accumulation (reducing signed scalars exactly as
``ciphertext_scale`` does), ``FixedBaseTable.pow`` against
``pow(base, x, modulus)``, and ``TeichmullerTable.pow`` against
``pow(g^p mod p^2, x, p^2)``.  The hypothesis suites here drive them
across random batches — including zero and one weights, negative
encoded scalars, the ``initial`` accumulator argument and row counts
around the fold's block boundaries — at small moduli where thousands
of examples are cheap.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.multiexp import (
    FOLD_CAP,
    FOLD_SINGLE,
    FixedBaseTable,
    FoldProgram,
    TeichmullerTable,
    fold_blocks,
    fold_plan,
    multi_exponent,
)
from repro.crypto.paillier import generate_keypair
from repro.crypto.primes import random_structured_prime, sieve_upto, smallest_generator
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import ParameterError


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


#: row counts below, on and above the fold's block boundaries
BOUNDARY_ROWS = [255, 256, 257, 511, 512, 513, 1100]

#: exponent draws ``(rng, n) -> exponent``: 32-bit database values,
#: selection bits, and signed 32-bit weights reduced mod ``n``, as
#: ``ciphertext_scale`` reduces them
BOUNDARY_EXPONENTS = {
    "32-bit": lambda rng, n: rng.randrange(0, 1 << 32),
    "bits": lambda rng, n: rng.randrange(0, 2),
    "signed-mod-n": lambda rng, n: rng.randrange(-(1 << 31), 1 << 31) % n,
}


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
        # into a register of the program instead of the accumulator
        # would raise it to that row's exponent.
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
        # Zero and one weights dominate the batch: zero rows never enter
        # a program, and ones tie with each other.
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

    @pytest.mark.parametrize("with_initial", [False, True], ids=["plain", "initial"])
    @pytest.mark.parametrize("kind", sorted(BOUNDARY_EXPONENTS))
    @pytest.mark.parametrize("rows", BOUNDARY_ROWS)
    def test_agrees_with_naive_loop_across_block_boundaries(
        self, rows, kind, with_initial
    ):
        """Row counts on and around the fold's block boundaries (one
        block up to 256 rows, two up to 1024, then three), on random
        bases, exponents and modulus drawn per case."""
        rng = DeterministicRandom("multiexp-blocks-%d-%s-%s" % (rows, kind, with_initial))
        n = rng.randrange(1 << 127, 1 << 128) | 1
        modulus = n * n
        exponents = [BOUNDARY_EXPONENTS[kind](rng, n) for _ in range(rows)]
        bases = [rng.randrange(0, modulus) for _ in range(rows)]
        initial = rng.randrange(0, modulus) if with_initial else None
        assert multi_exponent(
            bases, exponents, modulus, initial=initial
        ) == naive_product(bases, exponents, modulus, initial=initial)

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

    def test_empty_batch_returns_initial(self):
        assert multi_exponent([], [], 101) == 1
        assert multi_exponent([], [], 101, initial=42) == 42


WEIGHT_MAX = (1 << 32) - 1  # the paper's 32-bit database values

weights = st.one_of(
    st.sampled_from([0, 1, WEIGHT_MAX]), st.integers(0, WEIGHT_MAX)
)


# Exponents as the fold sees them: zeros, repeats, 32-bit database
# values and wider ones; 2**40 beside small values forces quotients
# above 1, which random 32-bit values almost never do.
fold_exponents = st.one_of(
    st.sampled_from([0, 1, 3, 2**40, WEIGHT_MAX, (1 << 64) - 1]),
    weights,
    st.integers(0, (1 << 64) - 1),
)


def check_layout(plan, rows):
    """The blocks tile ``[0, rows)``, none wider than the cap: one block
    for a small database, else the fewest near-equal blocks but at
    least two, so no block but the last is wider than the rows after
    it."""
    bounds = plan.bounds()
    assert plan.rows == rows
    reached = 0
    for (first, end), program in zip(bounds, plan.programs):
        assert first == reached and first < end <= first + FOLD_CAP
        assert program.rows == end - first
        assert end == rows or end - first <= rows - end
        reached = end
    assert reached == rows and len(plan.programs) == len(bounds)
    widths = [end - first for first, end in bounds]
    if rows <= FOLD_SINGLE:
        assert widths == [rows] * bool(rows)
    else:
        assert len(widths) == max(2, -(-rows // FOLD_CAP))
        assert max(widths) - min(widths) <= 1


class TestFoldProgram:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_agrees_with_multi_exponent_and_naive_loop(self, data):
        modulus = data.draw(moduli)
        count = data.draw(st.integers(0, 300))
        exponents = data.draw(
            st.one_of(
                st.lists(fold_exponents, min_size=count, max_size=count),
                # a small pool forces repeated exponents
                st.lists(
                    st.sampled_from([0, 5, 2**40, WEIGHT_MAX]),
                    min_size=count,
                    max_size=count,
                ),
            )
        )
        # A common factor leaves the last row standing with that factor
        # as its exponent (the programs run Euclid's algorithm).
        scale = data.draw(st.sampled_from([1, 6, 2**33]))
        exponents = [scale * e for e in exponents]
        bases = data.draw(
            st.lists(st.integers(0, modulus - 1), min_size=count, max_size=count)
        )
        plan = fold_plan(exponents)
        check_layout(plan, count)
        assert plan.run(bases, modulus) == naive_product(bases, exponents, modulus)

    @pytest.mark.parametrize(
        "exponents",
        [
            [],
            [0, 0, 0],
            [0, 12345, 0],  # one nonzero row: the survivor's power alone
            [2**40, 3],  # quotient 2**40 // 3, then the survivor
            [3, 2**40],
            [7, 7, 7, 7],
            [(1 << 64) - 1, 1, (1 << 63) + 5],
        ],
        ids=[
            "empty",
            "all-zero",
            "one-nonzero",
            "quotient-above-one",
            "quotient-above-one-reversed",
            "repeated",
            "64-bit",
        ],
    )
    def test_edge_cases(self, exponents):
        modulus = 1_000_003
        bases = [2 + 17 * i for i in range(len(exponents))]
        program = FoldProgram(exponents)
        assert program.run(bases, modulus) == naive_product(
            bases, exponents, modulus
        )

    def test_steps_follow_bos_coster(self):
        # (exponent@row): 9@0 6@1 4@2 -> reg1 *= reg0, 9 -> 3
        # 6@1 4@2 3@0 -> reg2 *= reg1, 6 -> 2
        # 4@2 3@0 2@1 -> reg0 *= reg2, 4 -> 1
        # 3@0 2@1 1@2 -> reg1 *= reg0, 3 -> 1
        # 2@1 1@0 1@2 -> reg0 *= reg1^2 (ties go to the lower row), 2 -> 0
        # 1@0 1@2     -> reg2 *= reg0, 1 -> 0; reg2 survives, exponent 1
        program = FoldProgram([9, 6, 4])
        assert list(program._dst) == [1, 2, 0, 1, 0, 2]
        assert list(program._src) == [0, 1, 2, 0, 1, 0]
        assert program._quotients == ((4, 2),)
        assert (program._survivor, program._exponent) == (2, 1)
        assert program.run([2, 3, 5], 10**9 + 7) == (
            2**9 * 3**6 * 5**4 % (10**9 + 7)
        )
        assert repr(program) == "FoldProgram(rows=3, steps=6)"

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(0, 5000), seed=st.integers(0, 2**32))
    def test_layout_tiles_the_rows_and_folds_the_product(self, rows, seed):
        """Any database size: the blocks tile the rows under the cap,
        and the plan folds to the naive loop's product."""
        rng = DeterministicRandom("layout-%d" % seed)
        modulus = rng.randrange(3, 1 << 64) | 1
        exponents = [rng.randrange(0, 1 << 32) for _ in range(rows)]
        bases = [rng.randrange(0, modulus) for _ in range(rows)]
        plan = fold_plan(exponents)
        assert plan.starts == fold_blocks(rows)
        check_layout(plan, rows)
        assert plan.run(bases, modulus) == naive_product(bases, exponents, modulus)

    def test_block_lookups_by_row(self):
        plan = fold_plan([1] * 1100)
        assert plan.bounds() == ((0, 366), (366, 733), (733, 1100))
        assert [plan.block_end(row) for row in (0, 365, 366, 732, 733, 1099)] == [
            366, 366, 733, 733, 1100, 1100,
        ]
        assert plan.program_at(366) is plan.programs[1]
        assert plan.program_at(0) is plan.programs[0]
        assert plan.program_at(365) is None and plan.program_at(734) is None

    def test_random_32_bit_blocks_cost_about_4_6_per_element(self):
        rng = DeterministicRandom("fold-cost")
        exponents = [rng.randrange(1, 1 << 32) for _ in range(1000)]
        steps = sum(p.steps for p in fold_plan(exponents).programs)
        assert 4.45 < steps / 1000 < 4.8

    def test_empty_and_invalid_input(self):
        assert fold_plan([]).programs == ()
        assert FoldProgram([]).run([], 101) == 1
        with pytest.raises(ParameterError):
            FoldProgram([2, -1])
        with pytest.raises(ParameterError):
            FoldProgram([1] * (FOLD_CAP + 1))
        with pytest.raises(ParameterError):
            FoldProgram([2, 3]).run([5], 101)
        with pytest.raises(ParameterError):
            FoldProgram([2, 3]).run([5, 7], 1)
        assert fold_plan([]).run([], 101, initial=142) == 41
        with pytest.raises(ParameterError):
            fold_plan([2, 3]).run([5], 101)
        with pytest.raises(ParameterError):
            fold_plan([]).run([], 1)


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


def _lift(prime):
    """``w = g^p mod p^2`` for the smallest generator ``g`` of Z_p*."""
    return pow(smallest_generator(prime), prime, prime**2)


#: structured primes ``2*r*q' + 1`` as key generation draws them, at the
#: 16-bit key floor's width, a mid width and a 512-bit key's width
STRUCTURED_PRIMES = {
    bits: random_structured_prime(bits, DeterministicRandom("teich-%d" % bits))
    for bits in (16, 64, 256)
}


class TestTeichmullerTable:
    """Half-width rows (residues mod p and their Fermat quotients) must
    give exactly the full-width lift's powers mod p^2."""

    @pytest.mark.parametrize("bits", sorted(STRUCTURED_PRIMES))
    def test_structured_primes_agree_with_pow(self, bits):
        prime = STRUCTURED_PRIMES[bits]
        assert prime.bit_length() == bits
        lift, modulus = _lift(prime), prime**2
        table = TeichmullerTable(smallest_generator(prime), prime)
        assert table.base == lift
        assert table.modulus == modulus
        exponents = {0, 1, prime - 2}
        # each single nonzero byte: reads every entry of every row once
        exponents.update(
            digit << shift
            for shift in range(0, bits, 8)
            for digit in range(1, 256)
            if digit << shift < table.capacity
        )
        for exponent in sorted(exponents):
            assert table.pow(exponent) == pow(lift, exponent, modulus), exponent

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(STRUCTURED_PRIMES)), st.data())
    def test_drawn_exponents_agree_with_pow(self, bits, data):
        prime = STRUCTURED_PRIMES[bits]
        table = TeichmullerTable(smallest_generator(prime), prime)
        exponent = data.draw(st.integers(0, table.capacity - 1))
        assert table.pow(exponent) == pow(_lift(prime), exponent, prime**2)

    def test_every_exponent_of_every_small_prime(self):
        for prime in sieve_upto(500)[1:]:
            lift, modulus = _lift(prime), prime**2
            table = TeichmullerTable(smallest_generator(prime), prime)
            assert [table.pow(x) for x in range(table.capacity)] == [
                pow(lift, x, modulus) for x in range(table.capacity)
            ], prime

    def test_any_unit_base_is_lifted(self):
        """Not only generators: the rows need ``base`` prime to ``p``."""
        prime = 1009
        for base in (1, 2, prime - 1, prime + 5, 3 * prime**2 + 7):
            table = TeichmullerTable(base, prime)
            lift = pow(base, prime, prime**2)
            assert table.base == lift
            for exponent in (0, 1, 2, 500, prime - 2, table.capacity - 1):
                assert table.pow(exponent) == pow(lift, exponent, prime**2)

    def test_stored_quotients_are_fermat_quotients(self):
        prime = 65537
        table = TeichmullerTable(smallest_generator(prime), prime)
        assert len(table._residues) == 3  # 17-bit exponents: three rows
        for residues, quotients in zip(table._residues, table._quotients):
            assert len(residues) == len(quotients) == 256
            for residue, quotient in zip(residues, quotients):
                assert 0 < residue < prime
                assert quotient == (pow(residue, prime - 1, prime * prime) - 1) // prime

    def test_rejects_out_of_range_exponents(self):
        table = TeichmullerTable(3, 1009)
        assert table.capacity == 1 << 10
        with pytest.raises(ParameterError):
            table.pow(-1)
        with pytest.raises(ParameterError):
            table.pow(table.capacity)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            TeichmullerTable(1, 2)
        with pytest.raises(ParameterError):
            TeichmullerTable(1009 * 4, 1009)

    def test_repr_shows_no_prime_and_no_generator(self):
        prime = STRUCTURED_PRIMES[256]
        generator = smallest_generator(prime)
        table = TeichmullerTable(generator, prime)
        assert repr(table) == "TeichmullerTable(exponent_bits=256, entries=8160)"
        for secret in (prime, prime**2, prime - 1, table.base):
            assert str(secret) not in repr(table)
