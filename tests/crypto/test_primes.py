"""Tests for :mod:`repro.crypto.primes`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import primes
from repro.crypto.ntheory import jacobi
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import KeyGenerationError


class TestSieve:
    def test_empty_below_two(self):
        assert primes.sieve_upto(0) == []
        assert primes.sieve_upto(2) == []

    def test_first_primes(self):
        assert primes.sieve_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_small_primes_table(self):
        assert primes.SMALL_PRIMES[0] == 2
        assert primes.SMALL_PRIMES[-1] < 10_000
        assert len(primes.SMALL_PRIMES) == 1229  # pi(10000)


class TestIsProbablePrime:
    def test_small_values(self):
        known = set(primes.sieve_upto(2000))
        for n in range(-5, 2000):
            assert primes.is_probable_prime(n) == (n in known)

    def test_carmichael_numbers_rejected(self):
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745):
            assert not primes.is_probable_prime(carmichael)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert primes.is_probable_prime(2**127 - 1)

    def test_large_known_composite(self):
        # 2^128 + 1 = 59649589127497217 * 5704689200685129054721
        assert not primes.is_probable_prime(2**128 + 1)

    def test_product_of_large_primes_rejected(self):
        p = primes.random_prime(96, DeterministicRandom("p"))
        q = primes.random_prime(96, DeterministicRandom("q"))
        assert not primes.is_probable_prime(p * q)

    @given(st.integers(3, 10**6))
    def test_agrees_with_solovay_strassen(self, n):
        if n % 2 == 0:
            n += 1
        # Solovay-Strassen with fixed bases as an independent oracle.
        def solovay(n):
            for a in (2, 3, 5, 7, 11, 13, 17):
                if a % n == 0:
                    continue
                j = jacobi(a, n) % n
                if j == 0 or pow(a, (n - 1) // 2, n) != j:
                    return False
            return True

        # Solovay-Strassen with few fixed bases can have false positives,
        # but never false negatives; a definite composite answer must agree.
        if not solovay(n):
            assert not primes.is_probable_prime(n)


class TestGeneration:
    def test_next_prime(self):
        assert primes.next_prime(1) == 2
        assert primes.next_prime(2) == 3
        assert primes.next_prime(14) == 17
        assert primes.next_prime(7919) == 7927

    def test_random_prime_has_exact_bits(self):
        for bits in (17, 32, 64, 128):
            p = primes.random_prime(bits, DeterministicRandom(bits))
            assert p.bit_length() == bits
            assert primes.is_probable_prime(p)

    def test_random_prime_rejects_tiny(self):
        with pytest.raises(KeyGenerationError):
            primes.random_prime(1)

    def test_random_prime_deterministic_with_seed(self):
        a = primes.random_prime(64, DeterministicRandom("fixed"))
        b = primes.random_prime(64, DeterministicRandom("fixed"))
        assert a == b

    def test_prime_pair_distinct(self):
        p, q = primes.random_prime_pair(48, DeterministicRandom("pair"))
        assert p != q
        assert p.bit_length() == q.bit_length() == 48

    def test_safe_prime(self):
        p = primes.random_safe_prime(40, DeterministicRandom("safe"))
        assert primes.is_probable_prime(p)
        assert primes.is_probable_prime((p - 1) // 2)
        assert p.bit_length() == 40

    @settings(max_examples=10, deadline=None)
    @given(st.integers(20, 80))
    def test_random_prime_property(self, bits):
        p = primes.random_prime(bits, DeterministicRandom(bits * 7))
        assert p.bit_length() == bits
        assert p % 2 == 1


class TestStructuredPrimes:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(8, 300))
    def test_structure_and_size(self, bits):
        """p = 2*r*q' + 1 with q' prime and r below 2^13, at exact size."""
        p = primes.random_structured_prime(bits, DeterministicRandom(bits))
        assert p.bit_length() == bits
        assert primes.is_probable_prime(p)
        largest = primes.smooth_factors(p - 1)[-1]
        assert (p - 1) // (2 * largest) < 1 << 13

    def test_rejects_tiny(self):
        with pytest.raises(KeyGenerationError):
            primes.random_structured_prime(7)

    def test_smooth_factors(self):
        assert primes.smooth_factors(2 * 3 * 3 * 9973) == (2, 3, 9973)
        big = primes.next_prime(1 << 80)
        assert primes.smooth_factors(4 * 7 * big) == (2, 7, big)
        with pytest.raises(KeyGenerationError):
            primes.smooth_factors(2 * 10007 * 10009)

    def test_smallest_generator_matches_brute_force(self):
        for p in primes.sieve_upto(600)[1:]:
            generators = [
                g for g in range(2, p)
                if len({pow(g, e, p) for e in range(p - 1)}) == p - 1
            ]
            assert primes.smallest_generator(p) == generators[0]


class TestMillerRabinDirect:
    def test_witness_proves_composite(self):
        # 221 = 13 * 17; 137 is a Miller-Rabin witness for it.
        assert not primes.miller_rabin(221, iter([137]))

    def test_liar_fools_single_round(self):
        # 174 is a strong liar for 221 — a single bad witness passes.
        assert primes.miller_rabin(221, iter([174]))
