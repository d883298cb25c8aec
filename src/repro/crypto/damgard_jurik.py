"""The Damgård–Jurik generalization of Paillier.

Paillier works in Z*_{n^2} with plaintext space Z_n.  Damgård & Jurik
(PKC 2001) generalize to Z*_{n^{s+1}} with plaintext space Z_{n^s} for
any s >= 1 — the s = 1 case *is* Paillier.  The point for this library:
the selected-sum protocol's plaintext space bounds the largest sum (and
the largest weighted sum) it can carry; Damgård–Jurik raises that bound
without touching the key size, at a ciphertext-size and compute cost
linear in s.  The scheme ablation benches quantify the tradeoff.

Encryption: ``E(m; r) = (1 + n)^m * r^{n^s} mod n^{s+1}``.

Decryption uses the standard iterative algorithm: given
``c^d mod n^{s+1}`` with ``d ≡ 1 (mod n^s)`` and ``d ≡ 0 (mod λ)``,
extract ``m`` digit-by-digit in base n via the polynomial expansion of
``(1 + n)^m`` (Damgård–Jurik, §4.2).

The class implements :class:`~repro.crypto.scheme.
AdditiveHomomorphicScheme`, so every protocol in :mod:`repro.spfe` runs
over it unchanged — which the integration tests exercise.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from repro.crypto.multiexp import multi_exponent
from repro.crypto.ntheory import bytes_for_bits, lcm, modinv
from repro.crypto.primes import random_structured_prime_pair
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.scheme import AdditiveHomomorphicScheme, SchemeKeyPair
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
)

__all__ = [
    "DamgardJurikPublicKey",
    "DamgardJurikPrivateKey",
    "DamgardJurikScheme",
    "generate_dj_keypair",
]


class DamgardJurikPublicKey:
    """Public key ``(n, s)``: plaintexts in Z_{n^s}, ciphertexts in Z*_{n^{s+1}}."""

    __slots__ = ("n", "s", "n_to_s", "modulus", "bits")

    def __init__(self, n: int, s: int) -> None:
        if s < 1:
            raise KeyGenerationError("s must be at least 1")
        if n < 6:
            raise KeyGenerationError("modulus too small")
        self.n = n
        self.s = s
        self.n_to_s = n**s
        self.modulus = n ** (s + 1)
        self.bits = n.bit_length()

    def raw_encrypt(self, plaintext: int, r: int) -> int:
        """Encrypt ``plaintext`` in [0, n^s) with explicit randomness r."""
        if not 0 <= plaintext < self.n_to_s:
            raise EncryptionError("plaintext outside [0, n^s)")
        g_to_m = pow(1 + self.n, plaintext, self.modulus)
        return g_to_m * pow(r, self.n_to_s, self.modulus) % self.modulus

    def encrypt_raw(self, plaintext: int, rng: Optional[RandomSource] = None) -> int:
        """Encrypt a plaintext in [0, n^s) with explicit randomness ``r``."""
        source = as_random_source(rng)
        while True:
            r = source.randrange(1, self.n)
            if math.gcd(r, self.n) == 1:
                return self.raw_encrypt(plaintext % self.n_to_s, r)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DamgardJurikPublicKey)
            and (self.n, self.s) == (other.n, other.s)
        )

    def __hash__(self) -> int:
        return hash(("dj-pk", self.n, self.s))

    def __repr__(self) -> str:
        return "DamgardJurikPublicKey(bits=%d, s=%d)" % (self.bits, self.s)


class DamgardJurikPrivateKey:
    """Private key: λ = lcm(p-1, q-1) plus the digit-extraction decryptor."""

    __slots__ = ("public_key", "p", "q", "_d")

    def __init__(
        self, public_key: DamgardJurikPublicKey, p: int, q: int
    ) -> None:
        if p * q != public_key.n:
            raise KeyGenerationError("p * q does not match the public modulus")
        self.public_key = public_key
        self.p = p
        self.q = q
        lam = lcm(p - 1, q - 1)
        # d ≡ 0 (mod λ), d ≡ 1 (mod n^s)  — CRT over coprime moduli.
        n_to_s = public_key.n_to_s
        self._d = lam * (modinv(lam % n_to_s, n_to_s)) % (lam * n_to_s)
        if self._d % lam != 0 or self._d % n_to_s != 1:
            raise KeyGenerationError("failed to construct decryption exponent")

    def raw_decrypt(self, ciphertext: int) -> int:
        """Recover m in [0, n^s) by iterated discrete-log extraction."""
        pk = self.public_key
        if not 0 <= ciphertext < pk.modulus:
            raise DecryptionError("ciphertext outside Z_{n^{s+1}}")
        # c^d = (1 + n)^m mod n^{s+1}; extract m base-n digit block-wise.
        value = pow(ciphertext, self._d, pk.modulus)
        return self._log_one_plus_n(value)

    def _log_one_plus_n(self, value: int) -> int:
        """Discrete log of ``value`` to base (1 + n) in Z*_{n^{s+1}}.

        Damgård–Jurik's algorithm: for j = 1..s, reduce mod n^{j+1},
        compute L(·) = (· - 1)/n, and strip the known binomial tail of
        the digits recovered so far.
        """
        pk = self.public_key
        n = pk.n
        m = 0
        for j in range(1, pk.s + 1):
            mod_j1 = n ** (j + 1)
            mod_j = n**j
            u = value % mod_j1
            t1 = (u - 1) // n  # L(u mod n^{j+1})
            # Strip the binomial tail of the digits recovered so far:
            # m_j = t1 - sum_{k=2..j} C(m, k) n^{k-1}  (mod n^j).
            correction = 0
            for k in range(2, j + 1):
                correction = (
                    correction + _binomial(m, k) * pow(n, k - 1, mod_j)
                ) % mod_j
            m = (t1 - correction) % mod_j
        return m


def _binomial(m: int, k: int) -> int:
    """C(m, k) for non-negative k (m may be any non-negative int)."""
    result = 1
    for i in range(k):
        result = result * (m - i) // (i + 1)
    return result


def generate_dj_keypair(
    bits: int = 512,
    s: int = 2,
    rng: Union[RandomSource, bytes, str, int, None] = None,
) -> SchemeKeyPair:
    """Generate a Damgård–Jurik key pair (s = 1 is exactly Paillier).

    The primes are drawn as :func:`~repro.crypto.paillier.generate_keypair`
    draws them, so one seed gives both schemes the same modulus.
    """
    if bits < 16:
        raise KeyGenerationError("key size %d too small" % bits)
    source = as_random_source(rng)
    p, q = random_structured_prime_pair(bits // 2, source)
    public = DamgardJurikPublicKey(p * q, s)
    return SchemeKeyPair(public, DamgardJurikPrivateKey(public, p, q))


class DamgardJurikScheme(AdditiveHomomorphicScheme):
    """Scheme-interface adapter; plug into any :mod:`repro.spfe` protocol.

    The server aggregate uses the same simultaneous-multiexp kernel as
    Paillier — the homomorphic identities are identical with
    ``(n^{s+1}, n^s)`` in place of ``(n^2, n)``.
    """

    name = "damgard-jurik"

    def __init__(self, s: int = 2) -> None:
        if s < 1:
            raise KeyGenerationError("s must be at least 1")
        self.s = s

    def generate(self, bits: int = 512, rng: Union[RandomSource, bytes, str, int, None] = None) -> SchemeKeyPair:
        """Generate a key pair (scheme-interface hook)."""
        return generate_dj_keypair(bits, self.s, rng)

    def plaintext_modulus(self, public: DamgardJurikPublicKey) -> int:
        """The plaintext modulus M (scheme-interface hook)."""
        return public.n_to_s

    def ciphertext_size_bytes(self, public: DamgardJurikPublicKey) -> int:
        """Wire size of one ciphertext in bytes (scheme-interface hook)."""
        return bytes_for_bits((public.s + 1) * public.bits)

    def encrypt(
        self,
        public: DamgardJurikPublicKey,
        plaintext: int,
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> int:
        """Encrypt a plaintext into a fresh ciphertext (scheme-interface hook)."""
        return public.encrypt_raw(plaintext, as_random_source(rng))

    def decrypt(self, private: DamgardJurikPrivateKey, ciphertext: int) -> int:
        """Decrypt a ciphertext to its representative in [0, M) (scheme-interface hook)."""
        return private.raw_decrypt(ciphertext)

    def ciphertext_add(self, public: DamgardJurikPublicKey, a: int, b: int) -> int:
        """Homomorphic addition of two ciphertexts (scheme-interface hook)."""
        return a * b % public.modulus

    def ciphertext_scale(
        self, public: DamgardJurikPublicKey, a: int, scalar: int
    ) -> int:
        """Homomorphic scalar multiplication (scheme-interface hook)."""
        return pow(a, scalar % public.n_to_s, public.modulus)

    def identity(self, public: DamgardJurikPublicKey) -> int:
        """A deterministic encryption of zero (scheme-interface hook)."""
        return 1

    def rerandomize(
        self,
        public: DamgardJurikPublicKey,
        a: int,
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> int:
        """Refresh a ciphertext's randomness, preserving the plaintext (scheme-interface hook)."""
        zero = public.encrypt_raw(0, as_random_source(rng))
        return a * zero % public.modulus

    def weighted_product(
        self,
        public: DamgardJurikPublicKey,
        ciphertexts: Sequence[int],
        weights: Sequence[int],
        initial: Optional[int] = None,
    ) -> int:
        """The server aggregate ``prod_i c_i^{w_i} mod n^{s+1}``, batched.

        Compiles a :func:`~repro.crypto.multiexp.fold_plan` of the
        weights, reduced into Z_{n^s}, and runs it on the ciphertexts:
        bit-for-bit the naive loop's result.
        """
        if len(ciphertexts) != len(weights):
            raise ValueError("ciphertext/weight length mismatch")
        return multi_exponent(
            ciphertexts,
            [w % public.n_to_s for w in weights],
            public.modulus,
            initial=initial,
        )
