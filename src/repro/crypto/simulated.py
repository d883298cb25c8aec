"""Semantics-preserving simulated Paillier for paper-scale experiments.

The paper's experiments run the protocol on databases of up to 100,000
elements with 512-bit keys.  Doing that with pure-Python big-int
cryptography would take minutes per data point, and the timing would
reflect CPython's ``pow`` rather than the paper's 2004 hardware anyway.

:class:`SimulatedPaillier` solves both problems (DESIGN.md §3, substitution
1): it implements the *exact algebra* of Paillier — same plaintext
modulus structure, same homomorphic identities, same message sizes — but
represents a ciphertext as ``(plaintext mod M, nonce)``.  The nonce gives
every fresh encryption a distinct identity (mirroring semantic security's
randomised ciphertexts) without the modular exponentiation.

Protocol code cannot tell the difference: the test suite runs every
protocol against both the real and the simulated scheme and asserts the
transcript structure and results agree.  Timing for simulated runs comes
from the :mod:`repro.timing` cost model, never from the wall clock.

``SimulatedPaillier`` deliberately implements the same
:class:`~repro.crypto.scheme.AdditiveHomomorphicScheme` interface —
swapping it for the real scheme is a one-argument change.
"""

from __future__ import annotations

import itertools
from typing import Union

from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.scheme import AdditiveHomomorphicScheme, SchemeKeyPair
from repro.exceptions import DecryptionError, EncryptionError, KeyMismatchError

__all__ = ["SimulatedPublicKey", "SimulatedPrivateKey", "SimCiphertext", "SimulatedPaillier"]


class SimulatedPublicKey:
    """Stand-in public key: a modulus of the right size, no trapdoor.

    The modulus is an arbitrary odd integer with the top bit set — the
    protocols only need ``M`` for reduction and the bit size for wire
    accounting, not its factorisation.
    """

    __slots__ = ("n", "bits", "max_int", "key_id")

    _next_key_id = itertools.count(1)

    def __init__(self, n: int) -> None:
        self.n = n
        self.bits = n.bit_length()
        self.max_int = n // 3 - 1
        self.key_id = next(self._next_key_id)

    def encode_signed(self, value: int) -> int:
        """Map a signed integer into Z_n (mirrors real Paillier)."""
        if abs(value) > self.max_int:
            raise EncryptionError(
                "value %d exceeds signed capacity +/-%d" % (value, self.max_int)
            )
        return value % self.n

    def decode_signed(self, encoded: int) -> int:
        """Inverse of :meth:`encode_signed`; detects overflow."""
        if encoded <= self.max_int:
            return encoded
        if encoded >= self.n - self.max_int:
            return encoded - self.n
        raise DecryptionError("decoded plaintext fell in the overflow gap")

    def __repr__(self) -> str:
        return "SimulatedPublicKey(bits=%d)" % self.bits


class SimulatedPrivateKey:
    """Stand-in private key: just a capability reference to the public key."""

    __slots__ = ("public_key",)

    def __init__(self, public_key: SimulatedPublicKey) -> None:
        self.public_key = public_key


class SimCiphertext:
    """A simulated ciphertext: tracked plaintext plus a freshness nonce.

    Equality compares (key, plaintext, nonce): two independent encryptions
    of the same plaintext are *not* equal, mirroring semantic security.
    """

    __slots__ = ("key_id", "plaintext", "nonce")

    def __init__(self, key_id: int, plaintext: int, nonce: int) -> None:
        self.key_id = key_id
        self.plaintext = plaintext
        self.nonce = nonce

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimCiphertext)
            and (self.key_id, self.plaintext, self.nonce)
            == (other.key_id, other.plaintext, other.nonce)
        )

    def __hash__(self) -> int:
        return hash((self.key_id, self.plaintext, self.nonce))

    def __repr__(self) -> str:
        return "SimCiphertext(nonce=%d)" % self.nonce


class SimulatedPaillier(AdditiveHomomorphicScheme):
    """Drop-in Paillier substitute with identical algebra and sizes."""

    name = "simulated-paillier"

    def __init__(self, rng: Union[RandomSource, bytes, str, int, None] = None) -> None:
        self._rng = as_random_source(rng)
        self._nonce = itertools.count(1)

    # -- key management ---------------------------------------------------

    def generate(self, bits: int = 512, rng: Union[RandomSource, bytes, str, int, None] = None) -> SchemeKeyPair:
        """Generate a key pair (scheme-interface hook)."""
        source = as_random_source(rng) if rng is not None else self._rng
        # Any odd modulus of the right size; no primality needed without
        # a trapdoor to protect.
        n = source.randbits(bits) | (1 << (bits - 1)) | 1
        public = SimulatedPublicKey(n)
        return SchemeKeyPair(public, SimulatedPrivateKey(public))

    def plaintext_modulus(self, public: SimulatedPublicKey) -> int:
        """The plaintext modulus M (scheme-interface hook)."""
        return public.n

    def ciphertext_size_bytes(self, public: SimulatedPublicKey) -> int:
        # Same as real Paillier: ciphertexts live in Z_{n^2}.
        """Wire size of one ciphertext in bytes (scheme-interface hook)."""
        return bytes_for_bits(2 * public.bits)

    # -- operations ----------------------------------------------------------

    def encrypt(
        self,
        public: SimulatedPublicKey,
        plaintext: int,
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> SimCiphertext:
        """Encrypt a plaintext into a fresh ciphertext (scheme-interface hook)."""
        return SimCiphertext(public.key_id, plaintext % public.n, next(self._nonce))

    def decrypt(
        self, private: SimulatedPrivateKey, ciphertext: SimCiphertext
    ) -> int:
        """Decrypt a ciphertext to its representative in [0, M) (scheme-interface hook)."""
        if ciphertext.key_id != private.public_key.key_id:
            raise KeyMismatchError("ciphertext was produced under a different key")
        return ciphertext.plaintext

    def ciphertext_add(
        self, public: SimulatedPublicKey, a: SimCiphertext, b: SimCiphertext
    ) -> SimCiphertext:
        """Homomorphic addition of two ciphertexts (scheme-interface hook)."""
        self._check(public, a)
        self._check(public, b)
        return SimCiphertext(
            public.key_id, (a.plaintext + b.plaintext) % public.n, next(self._nonce)
        )

    def ciphertext_scale(
        self, public: SimulatedPublicKey, a: SimCiphertext, scalar: int
    ) -> SimCiphertext:
        """Homomorphic scalar multiplication (scheme-interface hook)."""
        self._check(public, a)
        return SimCiphertext(
            public.key_id, a.plaintext * (scalar % public.n) % public.n, next(self._nonce)
        )

    def identity(self, public: SimulatedPublicKey) -> SimCiphertext:
        # Deterministic, like Paillier's ciphertext 1 (= E(0) with r = 1).
        """A deterministic encryption of zero (scheme-interface hook)."""
        return SimCiphertext(public.key_id, 0, 0)

    def rerandomize(
        self,
        public: SimulatedPublicKey,
        a: SimCiphertext,
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> SimCiphertext:
        """Refresh a ciphertext's randomness, preserving the plaintext (scheme-interface hook)."""
        self._check(public, a)
        return SimCiphertext(public.key_id, a.plaintext, next(self._nonce))

    # -- helpers ----------------------------------------------------------------

    def _check(self, public: SimulatedPublicKey, c: SimCiphertext) -> None:
        if c.key_id != public.key_id:
            raise KeyMismatchError("ciphertext/key mismatch in simulated scheme")
