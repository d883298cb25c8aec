"""Contract tests: every AdditiveHomomorphicScheme obeys the same laws.

The protocols are written against the scheme interface, so each
implementation — real Paillier, Damgård–Jurik at several s, exponential
ElGamal, and the simulated stand-in — must satisfy identical algebraic
contracts.  One parametrized suite enforces that; adding a scheme means
adding one fixture entry.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.damgard_jurik import DamgardJurikScheme
from repro.crypto.elgamal import ExponentialElGamalScheme
from repro.crypto.paillier import PaillierScheme
from repro.crypto.rng import DeterministicRandom
from repro.crypto.scheme import AdditiveHomomorphicScheme
from repro.crypto.simulated import SimulatedPaillier

# (scheme factory, key bits, plaintext test bound)
_SCHEMES = {
    "paillier": (lambda: PaillierScheme(), 128, 2**64),
    "damgard-jurik-s1": (lambda: DamgardJurikScheme(1), 128, 2**64),
    "damgard-jurik-s2": (lambda: DamgardJurikScheme(2), 128, 2**64),
    "damgard-jurik-s3": (lambda: DamgardJurikScheme(3), 128, 2**64),
    "exp-elgamal": (lambda: ExponentialElGamalScheme(max_plaintext=1 << 17), 128, 1 << 16),
    "simulated": (lambda: SimulatedPaillier("contract"), 128, 2**64),
}


@pytest.fixture(params=sorted(_SCHEMES), scope="module")
def scheme_kit(request):
    factory, bits, bound = _SCHEMES[request.param]
    scheme = factory()
    keypair = scheme.generate(bits, "contract-%s" % request.param)
    return scheme, keypair, bound


class TestSchemeContract:
    def test_roundtrip(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        for m in (0, 1, 2, 1234, bound - 1):
            ct = scheme.encrypt(keypair.public, m, DeterministicRandom(m))
            assert scheme.decrypt(keypair.private, ct) == m

    def test_additive_homomorphism(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        a, b = bound // 3, bound // 5
        ca = scheme.encrypt(keypair.public, a, "a")
        cb = scheme.encrypt(keypair.public, b, "b")
        total = scheme.ciphertext_add(keypair.public, ca, cb)
        assert scheme.decrypt(keypair.private, total) == a + b

    def test_scalar_homomorphism(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        a = bound // 7
        ca = scheme.encrypt(keypair.public, a, "a")
        scaled = scheme.ciphertext_scale(keypair.public, ca, 6)
        assert scheme.decrypt(keypair.private, scaled) == 6 * a

    def test_identity_is_zero(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        a = bound // 2
        ca = scheme.encrypt(keypair.public, a, "a")
        combined = scheme.ciphertext_add(
            keypair.public, ca, scheme.identity(keypair.public)
        )
        assert scheme.decrypt(keypair.private, combined) == a

    def test_scale_by_zero_gives_zero(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        ca = scheme.encrypt(keypair.public, bound // 2, "a")
        zero = scheme.ciphertext_scale(keypair.public, ca, 0)
        assert scheme.decrypt(keypair.private, zero) == 0

    def test_rerandomize_preserves_plaintext(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        ca = scheme.encrypt(keypair.public, 77, "a")
        cb = scheme.rerandomize(keypair.public, ca, "fresh")
        assert cb != ca
        assert scheme.decrypt(keypair.private, cb) == 77

    def test_fresh_encryptions_distinct(self, scheme_kit):
        scheme, keypair, _ = scheme_kit
        rng = DeterministicRandom("distinct")
        cts = [scheme.encrypt(keypair.public, 5, rng) for _ in range(8)]
        assert len(set(map(repr, cts))) == 8

    def test_encrypt_vector(self, scheme_kit):
        scheme, keypair, _ = scheme_kit
        cts = scheme.encrypt_vector(keypair.public, [1, 0, 1], "v")
        decrypted = [scheme.decrypt(keypair.private, ct) for ct in cts]
        assert decrypted == [1, 0, 1]

    def test_seeded_vector_calls_draw_fresh_randomness(self, scheme_kit):
        """A seed drives one stream per call, not one restart per element."""
        scheme, keypair, _ = scheme_kit
        if isinstance(scheme, SimulatedPaillier):
            pytest.skip("simulated ciphertexts carry no randomness")
        cts = scheme.encrypt_vector(keypair.public, [1, 1, 1], "seed")
        assert len(set(map(repr, cts))) == 3
        assert [scheme.decrypt(keypair.private, ct) for ct in cts] == [1, 1, 1]
        fresh = scheme.rerandomize_vector(keypair.public, [cts[0]] * 2, "rr")
        assert len(set(map(repr, fresh))) == 2
        assert [scheme.decrypt(keypair.private, ct) for ct in fresh] == [1, 1]

    def test_weighted_product_is_selected_sum(self, scheme_kit):
        scheme, keypair, _ = scheme_kit
        bits = [1, 0, 1, 1, 0]
        data = [10, 20, 30, 40, 50]
        cts = scheme.encrypt_vector(keypair.public, bits, "wp")
        aggregate = scheme.weighted_product(keypair.public, cts, data)
        assert scheme.decrypt(keypair.private, aggregate) == 80

    def test_weighted_product_initial_accumulator(self, scheme_kit):
        scheme, keypair, _ = scheme_kit
        first = scheme.encrypt_vector(keypair.public, [1, 0], "w1")
        second = scheme.encrypt_vector(keypair.public, [0, 1], "w2")
        partial = scheme.weighted_product(keypair.public, first, [10, 20])
        total = scheme.weighted_product(
            keypair.public, second, [30, 40], initial=partial
        )
        assert scheme.decrypt(keypair.private, total) == 50

    def test_plaintext_modulus_bounds_everything(self, scheme_kit):
        scheme, keypair, bound = scheme_kit
        assert scheme.plaintext_modulus(keypair.public) > bound

    def test_ciphertext_size_positive(self, scheme_kit):
        scheme, keypair, _ = scheme_kit
        assert scheme.ciphertext_size_bytes(keypair.public) >= 16

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_affine_identity_property(self, scheme_kit, data):
        """D(E(a)^k (*) E(b)) == a*k + b for in-range operands."""
        scheme, keypair, bound = scheme_kit
        a = data.draw(st.integers(0, bound // 300))
        b = data.draw(st.integers(0, bound // 300))
        k = data.draw(st.integers(0, 100))
        ca = scheme.encrypt(keypair.public, a, DeterministicRandom(a))
        cb = scheme.encrypt(keypair.public, b, DeterministicRandom(b + 1))
        combined = scheme.ciphertext_add(
            keypair.public, scheme.ciphertext_scale(keypair.public, ca, k), cb
        )
        assert scheme.decrypt(keypair.private, combined) == a * k + b


@pytest.fixture(scope="module")
def multiexp_kits():
    """Paillier and Damgård–Jurik keys, each with eight fresh ciphertexts."""
    kits = []
    for scheme in (PaillierScheme(), DamgardJurikScheme(2)):
        public = scheme.generate(128, "naive-%s" % scheme.name).public
        cts = scheme.encrypt_vector(public, list(range(8)), "naive-cts")
        kits.append((scheme, public, cts))
    return kits


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_multiexp_fold_equals_the_naive_loop_bit_for_bit(multiexp_kits, data):
    """The kernel-backed folds return the base class's per-element loop's bytes.

    Weights are signed, often zero and up to 80 bits wide, and the fold
    sometimes continues from an ``initial`` partial product.
    """
    weight = st.one_of(st.just(0), st.just(1), st.just(-1), st.integers(-(2**80), 2**80))
    for scheme, public, cts in multiexp_kits:
        size = data.draw(st.integers(0, len(cts)))
        weights = data.draw(st.lists(weight, min_size=size, max_size=size))
        initial = data.draw(st.one_of(st.none(), st.sampled_from(cts)))
        naive = AdditiveHomomorphicScheme.weighted_product(
            scheme, public, cts[:size], weights, initial=initial
        )
        assert scheme.weighted_product(public, cts[:size], weights, initial=initial) == naive
