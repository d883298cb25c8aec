"""Tests for :mod:`repro.crypto.paillier` — the paper's cryptosystem.

Key sizes here are small (64–256 bits) so the suite stays fast; the
arithmetic is size-independent.  The paper's 512-bit size is exercised
once in the integration tests and in the live microbenchmarks.
"""

import collections
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
    PaillierScheme,
    RandomnessPool,
    generate_keypair,
)
from repro.crypto.primes import sieve_upto, smallest_generator
from repro.crypto.rng import DeterministicRandom, RandomSource
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
    KeyMismatchError,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(128, "paillier-test-key")


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(128, "other-test-key")


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert 126 <= keypair.public.bits <= 128

    def test_rejects_tiny_keys(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(8)

    def test_deterministic_with_seed(self):
        a = generate_keypair(64, "same-seed")
        b = generate_keypair(64, "same-seed")
        assert a.public.n == b.public.n

    def test_private_key_validates_factors(self, keypair):
        with pytest.raises(KeyGenerationError):
            PaillierPrivateKey(keypair.public, 3, 5)

    def test_public_key_equality_and_hash(self, keypair, other_keypair):
        clone = PaillierPublicKey(keypair.public.n)
        assert clone == keypair.public
        assert hash(clone) == hash(keypair.public)
        assert clone != other_keypair.public


class TestRawRoundtrip:
    def test_zero_and_one(self, keypair):
        for m in (0, 1):
            c = keypair.public.encrypt_raw(m, DeterministicRandom(m))
            assert keypair.private.raw_decrypt(c) == m

    def test_rejects_out_of_range_plaintext(self, keypair):
        with pytest.raises(EncryptionError):
            keypair.public.raw_encrypt(keypair.public.n, 1)
        with pytest.raises(EncryptionError):
            keypair.public.raw_encrypt(-1, 1)

    def test_rejects_out_of_range_ciphertext(self, keypair):
        with pytest.raises(DecryptionError):
            keypair.private.raw_decrypt(keypair.public.nsquare)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**96))
    def test_roundtrip_property(self, keypair, m):
        m %= keypair.public.n
        c = keypair.public.encrypt_raw(m, DeterministicRandom(m))
        assert keypair.private.raw_decrypt(c) == m


class TestSemanticSecurityShape:
    def test_encryptions_are_randomized(self, keypair):
        rng = DeterministicRandom("randomized")
        cs = {keypair.public.encrypt_raw(7, rng) for _ in range(10)}
        assert len(cs) == 10  # same plaintext, all distinct ciphertexts

    def test_obfuscator_is_unit(self, keypair):
        # r^n must be invertible mod n^2 for decryption to work.
        from repro.crypto.ntheory import modinv

        ob = keypair.public.obfuscator(DeterministicRandom("ob"))
        assert modinv(ob, keypair.public.nsquare) is not None


class TestHomomorphism:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_additive(self, keypair, a, b):
        pk, sk = keypair
        ca = pk.encrypt_raw(a, DeterministicRandom(a))
        cb = pk.encrypt_raw(b, DeterministicRandom(b + 1))
        assert sk.raw_decrypt(ca * cb % pk.nsquare) == (a + b) % pk.n

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**40), st.integers(0, 2**32))
    def test_scalar(self, keypair, a, k):
        pk, sk = keypair
        ca = pk.encrypt_raw(a, DeterministicRandom(a))
        assert sk.raw_decrypt(pow(ca, k, pk.nsquare)) == a * k % pk.n

    def test_paper_protocol_identity(self, keypair):
        """The exact identity of paper §2: prod E(I_i)^{x_i} = E(sum I_i x_i)."""
        pk, sk = keypair
        rng = DeterministicRandom("protocol")
        indices = [1, 0, 1, 1, 0, 0, 1]
        data = [17, 23, 4, 99, 56, 3, 40]
        encrypted = [pk.encrypt_raw(i, rng) for i in indices]
        product = 1
        for c, x in zip(encrypted, data):
            product = product * pow(c, x, pk.nsquare) % pk.nsquare
        expected = sum(i * x for i, x in zip(indices, data))
        assert sk.raw_decrypt(product) == expected


class TestSignedEncoding:
    def test_roundtrip_signed(self, keypair):
        pk = keypair.public
        for v in (0, 1, -1, 12345, -12345, pk.max_int, -pk.max_int):
            assert pk.decode_signed(pk.encode_signed(v)) == v

    def test_rejects_overflow(self, keypair):
        with pytest.raises(EncryptionError):
            keypair.public.encode_signed(keypair.public.max_int + 1)

    def test_gap_detected(self, keypair):
        pk = keypair.public
        with pytest.raises(DecryptionError):
            pk.decode_signed(pk.max_int + 5)

    def test_decode_validates_range(self, keypair):
        with pytest.raises(DecryptionError):
            keypair.public.decode_signed(-1)


class TestEncryptedNumber:
    def test_add_encrypted(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 20, "a")
        b = EncryptedNumber.encrypt(keypair.public, 22, "b")
        assert (a + b).decrypt(keypair.private) == 42

    def test_add_plain(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 40, "a")
        assert (a + 2).decrypt(keypair.private) == 42
        assert (2 + a).decrypt(keypair.private) == 42

    def test_negative_values(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, -15, "a")
        b = EncryptedNumber.encrypt(keypair.public, 10, "b")
        assert (a + b).decrypt(keypair.private) == -5

    def test_scalar_multiplication(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 7, "a")
        assert (a * 6).decrypt(keypair.private) == 42
        assert (6 * a).decrypt(keypair.private) == 42
        assert (a * -2).decrypt(keypair.private) == -14

    def test_subtraction_and_negation(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 50, "a")
        b = EncryptedNumber.encrypt(keypair.public, 8, "b")
        assert (a - b).decrypt(keypair.private) == 42
        assert (-a).decrypt(keypair.private) == -50
        assert (100 - a).decrypt(keypair.private) == 50

    def test_key_mismatch_rejected(self, keypair, other_keypair):
        a = EncryptedNumber.encrypt(keypair.public, 1, "a")
        b = EncryptedNumber.encrypt(other_keypair.public, 1, "b")
        with pytest.raises(KeyMismatchError):
            _ = a + b
        with pytest.raises(KeyMismatchError):
            a.decrypt(other_keypair.private)

    def test_non_int_operands_rejected(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 1, "a")
        with pytest.raises(TypeError):
            _ = a * 1.5  # type: ignore[operator]

    def test_obfuscate_changes_ciphertext_not_plaintext(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 33, "a")
        b = a.obfuscate("fresh")
        assert b.ciphertext != a.ciphertext
        assert b.decrypt(keypair.private) == 33

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(-(2**30), 2**30),
        st.integers(-(2**30), 2**30),
        st.integers(-100, 100),
    )
    def test_affine_property(self, keypair, a, b, k):
        ea = EncryptedNumber.encrypt(keypair.public, a, DeterministicRandom(a))
        eb = EncryptedNumber.encrypt(keypair.public, b, DeterministicRandom(b))
        assert (ea * k + eb).decrypt(keypair.private) == a * k + b


class TestRandomnessPool:
    def test_precompute_and_take(self, keypair):
        pool = RandomnessPool(keypair.public, "pool")
        pool.precompute(5)
        assert len(pool) == 5
        c = EncryptedNumber.encrypt(keypair.public, 9, pool=pool)
        assert c.decrypt(keypair.private) == 9
        assert len(pool) == 4
        assert pool.misses == 0

    def test_miss_counting(self, keypair):
        pool = RandomnessPool(keypair.public, "pool2")
        c = EncryptedNumber.encrypt(keypair.public, 5, pool=pool)
        assert c.decrypt(keypair.private) == 5
        assert pool.misses == 1

    def test_rejects_negative_count(self, keypair):
        with pytest.raises(ValueError):
            RandomnessPool(keypair.public).precompute(-1)


class TestSchemeInterface:
    def test_roundtrip_and_algebra(self, keypair):
        scheme = PaillierScheme()
        pk, sk = keypair
        a = scheme.encrypt(pk, 30, "a")
        b = scheme.encrypt(pk, 12, "b")
        total = scheme.ciphertext_add(pk, a, b)
        assert scheme.decrypt(sk, total) == 42
        assert scheme.decrypt(sk, scheme.ciphertext_scale(pk, a, 3)) == 90
        assert scheme.decrypt(sk, scheme.identity(pk)) == 0

    def test_weighted_product(self, keypair):
        scheme = PaillierScheme()
        pk, sk = keypair
        bits = [1, 0, 1, 0]
        weights = [10, 20, 30, 40]
        cts = scheme.encrypt_vector(pk, bits, DeterministicRandom("wp"))
        agg = scheme.weighted_product(pk, cts, weights)
        assert scheme.decrypt(sk, agg) == 40

    def test_weighted_product_validates_lengths(self, keypair):
        scheme = PaillierScheme()
        with pytest.raises(ValueError):
            scheme.weighted_product(keypair.public, [1], [1, 2])

    def test_rerandomize(self, keypair):
        scheme = PaillierScheme()
        pk, sk = keypair
        c = scheme.encrypt(pk, 77, "r")
        c2 = scheme.rerandomize(pk, c, "r2")
        assert c2 != c
        assert scheme.decrypt(sk, c2) == 77

    def test_metadata(self, keypair):
        scheme = PaillierScheme()
        assert scheme.plaintext_modulus(keypair.public) == keypair.public.n
        assert scheme.ciphertext_size_bytes(keypair.public) == 32  # 2*128 bits
        assert scheme.name == "paillier"


class TestSerialization:
    def test_public_key_roundtrip(self, keypair):
        data = keypair.public.to_bytes()
        assert PaillierPublicKey.from_bytes(data) == keypair.public

    def test_ciphertext_roundtrip(self, keypair):
        pk = keypair.public
        c = pk.encrypt_raw(123, DeterministicRandom("ser"))
        data = pk.ciphertext_to_bytes(c)
        assert len(data) == 32
        assert pk.ciphertext_from_bytes(data) == c

    def test_ciphertext_range_validated(self, keypair):
        pk = keypair.public
        data = pk.nsquare.to_bytes(33, "big")  # value == n^2 is out of range
        with pytest.raises(DecryptionError):
            pk.ciphertext_from_bytes(data)


class TestUntrustedDeserialization:
    """from_bytes/ciphertext_from_bytes face wire data: reject, not accept."""

    def test_zero_ciphertext_rejected(self, keypair):
        pk = keypair.public
        with pytest.raises(DecryptionError):
            pk.ciphertext_from_bytes(b"\x00" * 32)

    def test_oversized_ciphertext_rejected(self, keypair):
        pk = keypair.public
        over = (pk.nsquare + 12345).to_bytes(33, "big")
        with pytest.raises(DecryptionError):
            pk.ciphertext_from_bytes(over)

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_modulus_rejected(self, n):
        from repro.exceptions import KeyGenerationError

        with pytest.raises(KeyGenerationError):
            PaillierPublicKey.from_bytes(n.to_bytes(8, "big"))

    def test_empty_key_serialization_rejected(self):
        from repro.exceptions import KeyGenerationError

        with pytest.raises(KeyGenerationError):
            PaillierPublicKey.from_bytes(b"")

    def test_honest_values_still_roundtrip(self, keypair):
        pk = keypair.public
        assert PaillierPublicKey.from_bytes(pk.to_bytes()) == pk
        c = pk.encrypt_raw(5, DeterministicRandom("untrusted"))
        assert pk.ciphertext_from_bytes(pk.ciphertext_to_bytes(c)) == c


class TestNonUnitCiphertextRejected:
    """ciphertext_from_bytes must reject non-units of Z_{n^2} (gcd > 1).

    A ciphertext sharing a factor with n is never produced by honest
    encryption; accepting one would poison aggregates (and hand a factor
    of the modulus to anyone who inspects it).  Regression test for the
    docstring/behaviour mismatch where only the range was checked.
    """

    def test_prime_factor_rejected(self, keypair):
        pk, sk = keypair.public, keypair.private
        data = pk.ciphertext_to_bytes(sk.p)
        with pytest.raises(DecryptionError):
            pk.ciphertext_from_bytes(data)

    def test_multiple_of_n_rejected(self, keypair):
        pk = keypair.public
        data = pk.ciphertext_to_bytes(pk.n * 7)
        with pytest.raises(DecryptionError):
            pk.ciphertext_from_bytes(data)

    def test_matches_protocol_validator(self, keypair):
        # The wire parser and repro.spfe.validation.check_ciphertext must
        # agree on what an acceptable ciphertext is.
        from repro.exceptions import ValidationError
        from repro.spfe.validation import check_ciphertext

        pk, sk = keypair.public, keypair.private
        with pytest.raises(ValidationError):
            check_ciphertext(sk.q, pk.n, pk.nsquare)


class TestSubtractionRegression:
    """enc - int and enc - enc, pinned against the rewritten __sub__."""

    def test_enc_minus_int(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 42, "sub-a")
        assert (a - 12).decrypt(keypair.private) == 30
        assert (a - (-8)).decrypt(keypair.private) == 50

    def test_enc_minus_enc(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 7, "sub-b")
        b = EncryptedNumber.encrypt(keypair.public, 19, "sub-c")
        assert (a - b).decrypt(keypair.private) == -12
        assert (b - a).decrypt(keypair.private) == 12

    def test_int_minus_enc(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 13, "sub-d")
        assert (100 - a).decrypt(keypair.private) == 87

    def test_unsupported_operand_rejected(self, keypair):
        a = EncryptedNumber.encrypt(keypair.public, 1, "sub-e")
        with pytest.raises(TypeError):
            _ = a - 1.5  # type: ignore[operator]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-(2**30), 2**30), st.integers(-(2**30), 2**30))
    def test_subtraction_property(self, keypair, a, b):
        ea = EncryptedNumber.encrypt(keypair.public, a, DeterministicRandom(a))
        eb = EncryptedNumber.encrypt(keypair.public, b, DeterministicRandom(b))
        assert (ea - eb).decrypt(keypair.private) == a - b
        assert (ea - b).decrypt(keypair.private) == a - b


class TestRandomnessPoolConcurrency:
    def test_concurrent_drain_keeps_accounting_exact(self, keypair):
        import threading

        pool = RandomnessPool(keypair.public, "pool-concurrent")
        pool.precompute(40)
        assert pool.generated == 40

        taken = []
        taken_lock = threading.Lock()

        def drain():
            for _ in range(20):
                value = pool.take()
                with taken_lock:
                    taken.append(value)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # 80 takes against 40 precomputed: exactly 40 misses, pool empty,
        # and every obfuscator handed out exactly once (no double-pop).
        assert len(taken) == 80
        assert pool.misses == 40
        assert pool.generated == 40
        assert len(pool) == 0

    def test_concurrent_precompute_counts_every_item(self, keypair):
        import threading

        pool = RandomnessPool(keypair.public, "pool-fill")
        threads = [
            threading.Thread(target=pool.precompute, args=(10,))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pool.generated == 40
        assert len(pool) == 40


class TestRandomnessPoolFixedBase:
    def test_fixed_base_obfuscators_encrypt_correctly(self, keypair):
        pool = RandomnessPool(keypair.public, "pool-fb", fixed_base=True)
        pool.precompute(6)
        for value in (0, 1, 12345):
            c = EncryptedNumber.encrypt(keypair.public, value, pool=pool)
            assert c.decrypt(keypair.private) == value

    def test_fixed_base_seeded_pool_is_deterministic(self, keypair):
        a = RandomnessPool(keypair.public, "pool-det", fixed_base=True)
        b = RandomnessPool(keypair.public, "pool-det", fixed_base=True)
        a.precompute(5)
        b.precompute(5)
        assert [a.take() for _ in range(5)] == [b.take() for _ in range(5)]

    def test_fixed_base_obfuscators_are_valid_powers(self, keypair):
        # Every fixed-base obfuscator must be r^n mod n^2 for some unit r
        # — decrypting E(0) with it must yield 0.
        pk, sk = keypair.public, keypair.private
        pool = RandomnessPool(keypair.public, "pool-valid", fixed_base=True)
        for _ in range(4):
            obf = pool.take()
            assert sk.raw_decrypt(pk.raw_encrypt(0, obf)) == 0


def _valid_prime_pairs(bound):
    """Every pair of distinct odd primes below ``bound`` with
    ``gcd(n, phi(n)) == 1``: the keys the sampler is exact for."""
    primes = [p for p in sieve_upto(bound) if p > 2]
    return [
        (p, q)
        for i, p in enumerate(primes)
        for q in primes[i + 1 :]
        if math.gcd(p * q, (p - 1) * (q - 1)) == 1
    ]


def _small_private_key(p, q):
    return PaillierPrivateKey(PaillierPublicKey(p * q), p, q)


class _EnumeratingRandom(RandomSource):
    """Stands in for a random source: its ``randrange`` returns each value
    of the first range it is asked for once, in order, and records every
    range requested."""

    def __init__(self):
        self.ranges = set()
        self._values = None

    def randrange(self, lower, upper):
        self.ranges.add((lower, upper))
        if self._values is None:
            self._values = iter(range(lower, upper))
        return next(self._values)


class _EveryValueBytes(RandomSource):
    """Stands in for a random source: its byte stream is every
    ``width``-byte big-endian value once, in order, served to
    successive ``randbytes`` calls; reading past the end fails."""

    def __init__(self, width):
        self._stream = b"".join(
            v.to_bytes(width, "big") for v in range(256**width)
        )
        self._offset = 0

    def randbytes(self, length):
        assert self._offset + length <= len(self._stream), "stream exhausted"
        chunk = self._stream[self._offset : self._offset + length]
        self._offset += length
        return chunk


def _crt_reference(sk, plaintext, index):
    """Textbook ciphertext for a table index: ``pow`` of each prime's
    lifted generator, a textbook CRT, then ``(1 + m*n) * r^n``."""
    p, q, p2, q2 = sk.p, sk.q, sk.p**2, sk.q**2
    n, nsquare = p * q, p2 * q2
    x, y = divmod(index, q - 1)
    cp = pow(pow(smallest_generator(p), p, p2), x, p2)
    cq = pow(pow(smallest_generator(q), q, q2), y, q2)
    obfuscator = (cp * q2 * pow(q2, -1, p2) + cq * p2 * pow(p2, -1, q2)) % nsquare
    return (1 + plaintext * n) * obfuscator % nsquare


class TestCrtEncryption:
    """Key-owner encryption: per-prime fixed-base tables of a certified
    generator, exact in distribution against ``r^n mod n^2``."""

    @pytest.mark.parametrize(
        "p, q", [(59, 83), (107, 167)] + _valid_prime_pairs(48)
    )
    def test_sampler_multiset_equals_textbook_obfuscators(self, p, q):
        """``encrypt_raw_crt(0)`` draws its index from exactly [0, phi(n)),
        and over all of that range the sampler hits every ``r^n mod n^2``
        as often as ``r`` ranging over Z*_n does."""
        sk = _small_private_key(p, q)
        n, nsquare = p * q, p * p * q * q
        phi = (p - 1) * (q - 1)
        textbook = collections.Counter(
            pow(r, n, nsquare) for r in range(1, n) if math.gcd(r, n) == 1
        )
        draws = _EnumeratingRandom()
        sampled = collections.Counter(
            sk.encrypt_raw_crt(0, draws) for _ in range(phi)
        )
        assert draws.ranges == {(0, phi)}
        assert sampled == textbook

    def test_refuses_gcd_n_phi_not_one(self):
        """23 divides 47 - 1, so r -> r^n is not onto the lifts."""
        with pytest.raises(KeyGenerationError):
            _small_private_key(23, 47)

    def test_unstructured_key_refused_at_first_encryption(self, plain_prime_keypair):
        keypair = plain_prime_keypair(256)
        with pytest.raises(KeyGenerationError) as excinfo:
            keypair.private.encrypt_raw_crt(1, "plain-encrypt")
        message = str(excinfo.value)
        for secret in (keypair.private.p, keypair.private.q):
            assert str(secret) not in message
            assert str(secret - 1) not in message

    def test_tables_are_a_function_of_the_primes(self, keypair):
        sk = keypair.private
        twin = PaillierPrivateKey(sk.public_key, sk.p, sk.q)
        assert [t.base for t in twin.sampler_tables()] == [
            t.base for t in sk.sampler_tables()
        ]
        assert sk.sampler_tables() is sk.sampler_tables()

    def test_secrets_stay_out_of_reprs(self, keypair):
        sk = keypair.private
        texts = [repr(sk)] + [repr(table) for table in sk.sampler_tables()]
        for text in texts:
            for secret in (sk.p, sk.q, sk.p * sk.p, sk.q * sk.q):
                assert str(secret) not in text

    @settings(max_examples=20, deadline=None)
    @given(st.integers(16, 160), st.integers(0, 3))
    def test_generated_keys_certify_and_roundtrip(self, bits, seed):
        """Every generated key, down to the 16-bit floor, has a sampler."""
        keypair = generate_keypair(bits, "sampler-%d-%d" % (bits, seed))
        pk, sk = keypair.public, keypair.private
        for m in (0, 1, pk.n - 1):
            assert sk.raw_decrypt(sk.encrypt_raw_crt(m, "m-%d" % m)) == m

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**64), st.integers())
    def test_crt_roundtrip_property(self, keypair, m, seed):
        pk, sk = keypair.public, keypair.private
        plaintext = m % pk.n
        ciphertext = sk.encrypt_raw_crt(plaintext, DeterministicRandom(seed))
        assert sk.raw_decrypt(ciphertext) == plaintext

    @pytest.mark.parametrize("bits", [16, 128, 512])
    def test_seeded_ciphertexts_equal_an_independent_reference(self, bits):
        """The seeded bytes are pinned without a digest: one draw below
        phi(n), split by divmod, ``pow`` of each prime's lifted generator
        and a textbook CRT give exactly what ``encrypt_raw_crt`` gives."""
        keypair = generate_keypair(bits, "crt-reference-%d" % bits)
        pk, sk = keypair.public, keypair.private
        p, q, p2, q2 = sk.p, sk.q, sk.p**2, sk.q**2
        w_p = pow(smallest_generator(p), p, p2)
        w_q = pow(smallest_generator(q), q, q2)
        plaintexts = [0, 1, 2, pk.n - 1] + list(range(1000, 1030))
        sampler = DeterministicRandom("crt-reference-draws")
        reference = DeterministicRandom("crt-reference-draws")
        for m in plaintexts:
            x, y = divmod(reference.randrange(0, (p - 1) * (q - 1)), q - 1)
            cp, cq = pow(w_p, x, p2), pow(w_q, y, q2)
            obfuscator = (
                cp * q2 * pow(q2, -1, p2) + cq * p2 * pow(p2, -1, q2)
            ) % pk.nsquare
            expected = (1 + m * pk.n) * obfuscator % pk.nsquare
            assert sk.encrypt_raw_crt(m, sampler) == expected, m


    @pytest.mark.parametrize("p, q", [(5, 7), (59, 83), (107, 167)])
    @pytest.mark.parametrize("plaintext", ["zero", "p+2", "n-1"])
    def test_batch_multiset_equals_textbook_times_plaintext(self, p, q, plaintext):
        """Fed every slice-width value once, the batch draw accepts every
        index below phi(n) equally often, and the batch's ciphertexts
        are the textbook ``r^n mod n^2`` multiset times ``1 + m*n``."""
        sk = _small_private_key(p, q)
        n, nsquare = p * q, p * p * q * q
        phi = (p - 1) * (q - 1)
        m = {"zero": 0, "p+2": p + 2, "n-1": n - 1}[plaintext]
        width = (phi.bit_length() + 7) // 8
        repeats = 2 ** (8 * width - phi.bit_length())
        count = repeats * phi
        indices = collections.Counter(
            _EveryValueBytes(width).randbelow_many(phi, count)
        )
        assert indices == {index: repeats for index in range(phi)}
        textbook = collections.Counter(
            (1 + m * n) * pow(r, n, nsquare) % nsquare
            for r in range(1, n)
            if math.gcd(r, n) == 1
        )
        sampled = collections.Counter(
            sk.encrypt_raw_crt_many([m] * count, _EveryValueBytes(width))
        )
        assert sampled == {c: repeats * k for c, k in textbook.items()}

    @pytest.mark.parametrize("bits", [16, 128, 512])
    def test_batch_equals_an_independent_reference(self, bits):
        """Each batch ciphertext is the textbook one for the index the
        batched draw gave it, weights of p and above included."""
        keypair = generate_keypair(bits, "crt-batch-reference-%d" % bits)
        pk, sk = keypair.public, keypair.private
        p, q = sk.p, sk.q
        plaintexts = [0, 1, 2, p - 1, p, p + 1, 3 * p + 7, q, 5 * q + 3]
        plaintexts += [pk.n - 1, pk.n, pk.n + p] + list(range(1000, 1020))
        indices = DeterministicRandom("crt-batch-draws").randbelow_many(
            (p - 1) * (q - 1), len(plaintexts)
        )
        batch = sk.encrypt_raw_crt_many(
            plaintexts, DeterministicRandom("crt-batch-draws")
        )
        assert batch == [
            _crt_reference(sk, m, index) for m, index in zip(plaintexts, indices)
        ]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2**200), max_size=40), st.integers())
    def test_weighted_batch_decrypts_exactly(self, keypair, weights, seed):
        """Weights of p and above, where ``m*q mod p`` wraps, decrypt to
        themselves mod n."""
        sk = keypair.private
        weights = weights + [sk.p, sk.q, sk.p * sk.q - 1, 7 * sk.p + 1]
        batch = sk.encrypt_raw_crt_many(weights, DeterministicRandom(seed))
        assert len(batch) == len(weights)
        n = keypair.public.n
        assert [sk.raw_decrypt(c) for c in batch] == [w % n for w in weights]

    def test_single_encryption_is_a_batch_of_one_index(self, keypair):
        """``encrypt_raw_crt`` draws its index with ``randrange`` and
        encrypts it as the batch path does."""
        sk = keypair.private
        phi = (sk.p - 1) * (sk.q - 1)
        index = DeterministicRandom("one-index").randrange(0, phi)
        single = sk.encrypt_raw_crt(12345, DeterministicRandom("one-index"))
        assert single == _crt_reference(sk, 12345, index)


class TestTakeMany:
    def test_matches_sequential_takes(self, keypair):
        a = RandomnessPool(keypair.public, "many-vs-take")
        b = RandomnessPool(keypair.public, "many-vs-take")
        a.precompute(6)
        b.precompute(6)
        assert a.take_many(6) == [b.take() for _ in range(6)]

    def test_shortfall_counts_misses(self, keypair):
        pool = RandomnessPool(keypair.public, "many-short")
        pool.precompute(3)
        values = pool.take_many(5)
        assert len(values) == 5
        assert pool.misses == 2
        assert len(pool) == 0
        # every value is a valid obfuscator: E(0) built from it decrypts to 0
        pk, sk = keypair.public, keypair.private
        for obf in values:
            assert sk.raw_decrypt(pk.raw_encrypt(0, obf)) == 0

    def test_zero_and_negative(self, keypair):
        pool = RandomnessPool(keypair.public, "many-edge")
        assert pool.take_many(0) == []
        with pytest.raises(ValueError):
            pool.take_many(-1)


class TestRefillDoesNotBlockConsumers:
    """Regression: generate-then-swap — the pool lock must be free while
    a refill runs its modular exponentiations."""

    def test_lock_is_free_during_refill_pow(self, keypair, monkeypatch):
        import builtins
        import threading

        pool = RandomnessPool(keypair.public, "refill-block")
        real_pow = builtins.pow
        in_pow = threading.Event()
        proceed = threading.Event()
        refill_thread_id = []

        def instrumented_pow(*args):
            if (
                len(args) == 3
                and args[2] == keypair.public.nsquare
                and threading.get_ident() in refill_thread_id
            ):
                in_pow.set()
                assert proceed.wait(timeout=10)
            return real_pow(*args)

        monkeypatch.setattr(builtins, "pow", instrumented_pow)
        refill_thread_id.append(None)  # placeholder filled in by the thread

        def run():
            refill_thread_id[0] = threading.get_ident()
            pool.precompute(1)

        refiller = threading.Thread(target=run)
        refiller.start()
        try:
            assert in_pow.wait(timeout=10), "refill never reached its pow"
            # The refill is mid-exponentiation.  Under the old
            # compute-under-lock design this acquire would block until
            # the pow finished; generate-then-swap keeps it free.
            acquired = pool._lock.acquire(timeout=1)
            assert acquired, "pool lock held during refill exponentiation"
            pool._lock.release()
        finally:
            proceed.set()
            refiller.join(timeout=10)
        assert not refiller.is_alive()
        assert len(pool) == 1

    def test_takes_complete_while_refill_hammers(self, keypair):
        import threading

        pool = RandomnessPool(keypair.public, "refill-hammer")
        stop = threading.Event()
        errors = []

        def refill():
            try:
                while not stop.is_set():
                    pool.precompute(RandomnessPool.REFILL_BATCH)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        refiller = threading.Thread(target=refill)
        refiller.start()
        try:
            pk, sk = keypair.public, keypair.private
            for _ in range(50):
                obf = pool.take()
                assert sk.raw_decrypt(pk.raw_encrypt(0, obf)) == 0
        finally:
            stop.set()
            refiller.join(timeout=30)
        assert not errors
        assert not refiller.is_alive()
        # accounting stays exact under the race: everything ever pooled
        # was either taken or is still pooled
        assert pool.generated + pool.misses >= 50


class TestSchemeRerandomizeVector:
    def test_base_path_preserves_plaintexts(self, keypair):
        scheme = PaillierScheme()
        pk, sk = keypair.public, keypair.private
        cts = [pk.encrypt_raw(m, "rrv-%d" % m) for m in (1, 2, 3)]
        fresh = scheme.rerandomize_vector(pk, cts, "rrv-seed")
        assert len(fresh) == 3
        assert all(a != b for a, b in zip(fresh, cts))
        assert [sk.raw_decrypt(c) for c in fresh] == [1, 2, 3]

    def test_pooled_path_drains_the_pool(self, keypair):
        pk, sk = keypair.public, keypair.private
        pool = RandomnessPool(pk, "rrv-pool")
        pool.precompute(4)
        scheme = PaillierScheme(pool=pool)
        cts = [pk.encrypt_raw(m, "rrvp-%d" % m) for m in (7, 8)]
        fresh = scheme.rerandomize_vector(pk, cts)
        assert [sk.raw_decrypt(c) for c in fresh] == [7, 8]
        assert len(pool) == 2  # two obfuscators drained
        assert pool.misses == 0

    def test_mismatched_pool_is_ignored(self, keypair, other_keypair):
        pool = RandomnessPool(other_keypair.public, "rrv-wrong")
        pool.precompute(2)
        scheme = PaillierScheme(pool=pool)
        pk, sk = keypair.public, keypair.private
        cts = [pk.encrypt_raw(5, "rrv-mismatch")]
        fresh = scheme.rerandomize_vector(pk, cts, "rrv-mismatch-2")
        assert sk.raw_decrypt(fresh[0]) == 5
        assert len(pool) == 2  # untouched: it belongs to another key
