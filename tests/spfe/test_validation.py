"""Unit tests for the trust-boundary validation layer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom
from repro.exceptions import ParameterError, PolicyViolation, ValidationError
from repro.spfe.validation import (
    ServerPolicy,
    check_ciphertext,
    check_ciphertext_chunk,
    check_hello,
    check_public_key,
)
from repro.store.state import resume_state_bytes


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(128, DeterministicRandom("validation-tests"))


class TestServerPolicy:
    def test_defaults_are_consistent(self):
        policy = ServerPolicy()
        assert policy.min_key_bits <= policy.max_key_bits
        assert policy.max_frame_payload <= policy.max_session_bytes

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_key_bits": 0},
            {"min_key_bits": 2048, "max_key_bits": 512},
            {"max_frame_payload": 0},
            {"max_chunks": 0},
            {"max_session_bytes": 0},
            {"max_chunks": -1},
            {"max_session_bytes": -1},
            {"max_frame_payload": 100, "max_session_bytes": 50},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ServerPolicy(**kwargs)


class TestCheckHello:
    def test_honest_parameters_pass(self):
        check_hello(512, 1000, 64, ServerPolicy())

    def test_zero_chunk_size_is_validation_error(self):
        with pytest.raises(ValidationError):
            check_hello(512, 1000, 0, ServerPolicy())

    def test_key_bits_outside_policy(self):
        policy = ServerPolicy(min_key_bits=256, max_key_bits=1024)
        with pytest.raises(PolicyViolation):
            check_hello(128, 1000, 64, policy)
        with pytest.raises(PolicyViolation):
            check_hello(2048, 1000, 64, policy)

    def test_chunk_count_bound(self):
        policy = ServerPolicy(max_chunks=10)
        check_hello(512, 100, 10, policy)  # exactly 10 chunks
        with pytest.raises(PolicyViolation):
            check_hello(512, 101, 10, policy)  # 11 chunks


class TestCheckPublicKey:
    def test_honest_key_passes(self, keypair):
        check_public_key(keypair.public.n, 128)

    @pytest.mark.parametrize("n", [0, 1, -5])
    def test_degenerate_modulus(self, n):
        with pytest.raises(ValidationError):
            check_public_key(n, 128)

    def test_even_modulus(self):
        with pytest.raises(ValidationError):
            check_public_key(1 << 127, 128)

    def test_oversized_modulus(self, keypair):
        with pytest.raises(ValidationError):
            check_public_key(keypair.public.n, 64)

    def test_far_undersized_modulus(self):
        with pytest.raises(ValidationError):
            check_public_key((1 << 64) + 1, 512)


class TestCheckCiphertext:
    def test_honest_ciphertext_passes(self, keypair):
        public = keypair.public
        ct = public.encrypt_raw(7, DeterministicRandom("ct"))
        check_ciphertext(ct, public.n, public.nsquare)

    def test_zero_rejected(self, keypair):
        public = keypair.public
        with pytest.raises(ValidationError):
            check_ciphertext(0, public.n, public.nsquare)

    def test_out_of_range_rejected(self, keypair):
        public = keypair.public
        with pytest.raises(ValidationError):
            check_ciphertext(public.nsquare, public.n, public.nsquare)

    def test_factor_sharing_ciphertext_rejected(self, keypair):
        # c = n is in range but shares every factor with the modulus —
        # no honest encryption produces it.
        public = keypair.public
        with pytest.raises(ValidationError):
            check_ciphertext(public.n, public.n, public.nsquare)

    def test_exception_hierarchy(self):
        # PolicyViolation is a ValidationError is a ProtocolError, so a
        # single except clause can catch any trust-boundary rejection.
        from repro.exceptions import ProtocolError

        assert issubclass(PolicyViolation, ValidationError)
        assert issubclass(ValidationError, ProtocolError)


def _per_element_verdict(ciphertexts, n, nsquare):
    """The definition: every element in range and coprime to n."""
    return all(0 < c < nsquare and math.gcd(c, n) == 1 for c in ciphertexts)


class TestCheckCiphertextChunk:
    """One gcd of the chunk's product must accept exactly the chunks a
    per-element gcd accepts."""

    # n = 11 * 13: small enough that random elements often share a factor
    N, NSQUARE = 143, 143 * 143

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2, 143 * 143 + 1), min_size=1, max_size=12))
    def test_agrees_with_per_element_check(self, ciphertexts):
        n, nsquare = self.N, self.NSQUARE
        expected = _per_element_verdict(ciphertexts, n, nsquare)
        try:
            check_ciphertext_chunk(ciphertexts, n, nsquare)
        except ValidationError:
            assert not expected
        else:
            assert expected

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [11, 13 * 7, 143, 143 * 5])
    def test_bad_element_anywhere_rejected(self, position, bad):
        chunk = [1, 2, 3, 4, 5]
        chunk[position] = bad
        with pytest.raises(ValidationError, match="shares a factor"):
            check_ciphertext_chunk(chunk, self.N, self.NSQUARE)

    def test_honest_chunk_passes(self, keypair):
        public = keypair.public
        rng = DeterministicRandom("chunk")
        chunk = [public.encrypt_raw(v, rng) for v in range(8)]
        check_ciphertext_chunk(chunk, public.n, public.nsquare)

    def test_out_of_range_element_rejected(self, keypair):
        public = keypair.public
        with pytest.raises(ValidationError, match="outside"):
            check_ciphertext_chunk([1, public.nsquare], public.n, public.nsquare)


class TestResumeStateBytes:
    def test_scales_with_key_size(self):
        assert resume_state_bytes(1024) > resume_state_bytes(128)
        # three ciphertext-width integers at 512-bit keys = 3 * 128 B
        assert resume_state_bytes(512) == 3 * 128
