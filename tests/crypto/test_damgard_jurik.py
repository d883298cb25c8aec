"""Tests for the Damgård–Jurik generalization of Paillier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.damgard_jurik import (
    DamgardJurikPublicKey,
    DamgardJurikScheme,
    generate_dj_keypair,
)
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import DecryptionError, EncryptionError, KeyGenerationError


@pytest.fixture(scope="module", params=[1, 2, 3])
def dj(request):
    s = request.param
    scheme = DamgardJurikScheme(s)
    keypair = scheme.generate(128, "dj-fixture-%d" % s)
    return scheme, keypair


class TestKeyGeneration:
    def test_rejects_bad_s(self):
        with pytest.raises(KeyGenerationError):
            DamgardJurikScheme(0)
        with pytest.raises(KeyGenerationError):
            DamgardJurikPublicKey(35, 0)

    def test_rejects_tiny_keys(self):
        with pytest.raises(KeyGenerationError):
            generate_dj_keypair(8)

    def test_plaintext_space_grows_with_s(self):
        sizes = []
        for s in (1, 2, 3):
            keypair = generate_dj_keypair(128, s, "grow")
            sizes.append(keypair.public.n_to_s.bit_length())
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[1] == pytest.approx(2 * sizes[0], abs=2)

    def test_private_key_validates_factors(self, dj):
        from repro.crypto.damgard_jurik import DamgardJurikPrivateKey

        _, keypair = dj
        with pytest.raises(KeyGenerationError):
            DamgardJurikPrivateKey(keypair.public, 3, 5)


class TestRoundtrip:
    def test_small_values(self, dj):
        scheme, keypair = dj
        for m in (0, 1, 2, 42, 9999):
            c = scheme.encrypt(keypair.public, m, DeterministicRandom(m))
            assert scheme.decrypt(keypair.private, c) == m

    def test_full_range_boundary(self, dj):
        scheme, keypair = dj
        top = keypair.public.n_to_s - 1
        c = scheme.encrypt(keypair.public, top, "top")
        assert scheme.decrypt(keypair.private, c) == top

    def test_beyond_paillier_range(self):
        """s=2 carries plaintexts that would not fit Paillier's Z_n."""
        scheme = DamgardJurikScheme(2)
        keypair = scheme.generate(128, "big")
        big = keypair.public.n + 12345  # > n: impossible at s=1
        c = scheme.encrypt(keypair.public, big, "r")
        assert scheme.decrypt(keypair.private, c) == big

    def test_out_of_range_rejected(self, dj):
        _, keypair = dj
        with pytest.raises(EncryptionError):
            keypair.public.raw_encrypt(keypair.public.n_to_s, 2)
        with pytest.raises(DecryptionError):
            keypair.private.raw_decrypt(keypair.public.modulus)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**200))
    def test_roundtrip_property(self, m):
        scheme = DamgardJurikScheme(2)
        keypair = scheme.generate(128, "prop")
        m %= keypair.public.n_to_s
        c = scheme.encrypt(keypair.public, m, DeterministicRandom(m))
        assert scheme.decrypt(keypair.private, c) == m


class TestHomomorphism:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**64), st.integers(0, 2**64), st.integers(0, 2**20))
    def test_identities(self, a, b, k):
        scheme = DamgardJurikScheme(2)
        keypair = scheme.generate(128, "hom")
        pk, sk = keypair
        ca = scheme.encrypt(pk, a, DeterministicRandom(a))
        cb = scheme.encrypt(pk, b, DeterministicRandom(b + 1))
        assert scheme.decrypt(sk, scheme.ciphertext_add(pk, ca, cb)) == (
            (a + b) % pk.n_to_s
        )
        assert scheme.decrypt(sk, scheme.ciphertext_scale(pk, ca, k)) == (
            a * k % pk.n_to_s
        )

    def test_identity_and_rerandomize(self, dj):
        scheme, keypair = dj
        pk, sk = keypair
        c = scheme.encrypt(pk, 77, "r")
        assert scheme.decrypt(sk, scheme.ciphertext_add(pk, c, scheme.identity(pk))) == 77
        c2 = scheme.rerandomize(pk, c, "r2")
        assert c2 != c
        assert scheme.decrypt(sk, c2) == 77


class TestPaillierCompatibility:
    def test_s1_matches_paillier_semantics(self):
        """s = 1 is Paillier: same modulus structure, same algebra."""
        dj_keypair = generate_dj_keypair(128, 1, "compat")
        p_keypair = generate_keypair(128, "compat")
        # Same deterministic seed ⇒ same primes ⇒ same modulus.
        assert dj_keypair.public.n == p_keypair.public.n
        # Cross-decryption: a Paillier ciphertext decrypts under DJ(s=1).
        ct = p_keypair.public.encrypt_raw(4242, DeterministicRandom("x"))
        assert dj_keypair.private.raw_decrypt(ct) == 4242

    def test_ciphertext_sizes(self):
        for s in (1, 2, 3):
            scheme = DamgardJurikScheme(s)
            keypair = scheme.generate(128, "size-%d" % s)
            assert scheme.ciphertext_size_bytes(keypair.public) == (s + 1) * 16


class TestProtocolIntegration:
    def test_selected_sum_over_dj(self):
        """The whole protocol stack runs over DJ unchanged."""
        from repro.datastore import WorkloadGenerator
        from repro.spfe.context import ExecutionContext
        from repro.spfe.selected_sum import SelectedSumProtocol

        generator = WorkloadGenerator("dj-proto")
        database = generator.database(15, value_bits=16)
        selection = generator.random_selection(15, 5)
        ctx = ExecutionContext(
            scheme=DamgardJurikScheme(2), key_bits=128, mode="measured", rng="dj"
        )
        result = SelectedSumProtocol(ctx).run(database, selection)
        assert result.value == database.select_sum(selection)
        assert result.scheme == "damgard-jurik"
