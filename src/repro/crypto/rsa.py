"""Minimal RSA: the trapdoor permutation underlying the EGL oblivious
transfer of the Yao baseline (:class:`repro.yao.protocol.BatchOT`).

This is *textbook* RSA on purpose — the oblivious-transfer construction
needs the raw trapdoor permutation ``x -> x^e mod n`` and its inverse,
not a padded encryption scheme.  It must not be used for general-purpose
encryption.  Private operations use the standard CRT speedup.
"""

from __future__ import annotations

from typing import Union

from repro.crypto.ntheory import crt_pair, modinv
from repro.crypto.primes import random_prime_pair
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.scheme import SchemeKeyPair
from repro.exceptions import KeyGenerationError

__all__ = ["RSAPublicKey", "RSAPrivateKey", "generate_rsa_keypair"]

_DEFAULT_E = 65537


class RSAPublicKey:
    """RSA public key ``(n, e)`` exposing the raw permutation."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int = _DEFAULT_E) -> None:
        self.n = n
        self.e = e

    def apply(self, x: int) -> int:
        """The trapdoor permutation: ``x^e mod n``."""
        return pow(x % self.n, self.e, self.n)

    def random_element(self, rng: Union[RandomSource, None] = None) -> int:
        """A uniform element of Z_n (good enough for OT blinding)."""
        return as_random_source(rng).randbelow(self.n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RSAPublicKey) and (self.n, self.e) == (other.n, other.e)

    def __hash__(self) -> int:
        return hash(("rsa-pk", self.n, self.e))


class RSAPrivateKey:
    """RSA private key with CRT-accelerated inversion."""

    __slots__ = ("public_key", "p", "q", "d", "_dp", "_dq")

    def __init__(self, public_key: RSAPublicKey, p: int, q: int, d: int) -> None:
        if p * q != public_key.n:
            raise KeyGenerationError("p * q does not match the public modulus")
        self.public_key = public_key
        self.p = p
        self.q = q
        self.d = d
        self._dp = d % (p - 1)
        self._dq = d % (q - 1)

    def invert(self, y: int) -> int:
        """The trapdoor inverse: ``y^d mod n`` via CRT."""
        mp = pow(y % self.p, self._dp, self.p)
        mq = pow(y % self.q, self._dq, self.q)
        return crt_pair(mp, self.p, mq, self.q)


def generate_rsa_keypair(
    bits: int = 512,
    rng: Union[RandomSource, bytes, str, int, None] = None,
    e: int = _DEFAULT_E,
) -> SchemeKeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus."""
    if bits < 32:
        raise KeyGenerationError("RSA modulus of %d bits is too small" % bits)
    source = as_random_source(rng)
    while True:
        p, q = random_prime_pair(bits // 2, source)
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except ValueError:
            continue  # e shares a factor with phi; redraw primes
        public = RSAPublicKey(p * q, e)
        return SchemeKeyPair(public, RSAPrivateKey(public, p, q, d))
