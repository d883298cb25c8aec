"""Prime generation and primality testing.

The Paillier, RSA and ElGamal key generators all pull their primes from
here.  Testing is Miller–Rabin with a deterministic
witness set for 64-bit inputs and random witnesses above that, preceded by
trial division against a precomputed table of small primes (the standard
speed/assurance tradeoff used by production crypto libraries).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.crypto.rng import RandomSource, as_random_source
from repro.exceptions import KeyGenerationError

__all__ = [
    "SMALL_PRIMES",
    "is_probable_prime",
    "miller_rabin",
    "next_prime",
    "random_prime",
    "random_prime_pair",
    "random_structured_prime",
    "random_structured_prime_pair",
    "smooth_factors",
    "smallest_generator",
    "random_safe_prime",
    "sieve_upto",
]

# Deterministic Miller-Rabin witness set: correct for all n < 3.3e24
# (Sorenson & Webster), which covers every input our 64-bit fast path sees.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_DEFAULT_ROUNDS = 40  # error probability <= 4^-40 per composite


def sieve_upto(limit: int) -> List[int]:
    """All primes strictly below ``limit`` via the sieve of Eratosthenes."""
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES: Tuple[int, ...] = tuple(sieve_upto(10_000))


def miller_rabin(n: int, witnesses: Iterator[int]) -> bool:
    """Miller–Rabin test of odd ``n > 2`` against explicit witnesses.

    Returns False as soon as any witness proves ``n`` composite.
    """
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(
    n: int, rng: Optional[RandomSource] = None, rounds: int = _DEFAULT_ROUNDS
) -> bool:
    """Probabilistic primality test.

    Deterministic (no false answers) for ``n`` below ~3.3e24; above that
    the error probability is at most ``4**-rounds`` per composite.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_BOUND:
        return miller_rabin(n, iter(_DETERMINISTIC_WITNESSES))
    source = as_random_source(rng)
    witnesses = (source.randrange(2, n - 1) for _ in range(rounds))
    return miller_rabin(n, witnesses)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate > 2 and candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 1 if candidate == 2 else 2
    return candidate


def random_prime(
    bits: int, rng: Optional[RandomSource] = None, max_attempts: int = 100_000
) -> int:
    """Random prime of exactly ``bits`` bits (top and bottom bits set).

    Setting the top bit guarantees products of two such primes have the
    expected modulus size; setting the bottom bit skips even candidates.
    """
    if bits < 2:
        raise KeyGenerationError("cannot generate a prime of %d bits" % bits)
    source = as_random_source(rng)
    for _ in range(max_attempts):
        candidate = source.randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, source):
            return candidate
    raise KeyGenerationError(
        "no %d-bit prime found in %d attempts" % (bits, max_attempts)
    )


def random_prime_pair(
    bits: int, rng: Optional[RandomSource] = None
) -> Tuple[int, int]:
    """Two distinct primes of ``bits`` bits each, suitable for an RSA or
    Paillier modulus of ``2*bits`` bits.

    Guarantees ``p != q`` and, for Paillier's simplified decryption
    (``g = n + 1``), that ``gcd(pq, (p-1)(q-1)) == 1`` — automatic when
    ``p`` and ``q`` are distinct primes of equal size, but asserted anyway.
    """
    source = as_random_source(rng)
    p = random_prime(bits, source)
    q = random_prime(bits, source)
    while q == p:
        q = random_prime(bits, source)
    n = p * q
    phi = (p - 1) * (q - 1)
    if _gcd(n, phi) != 1:  # pragma: no cover - impossible for equal-size primes
        raise KeyGenerationError("gcd(n, phi) != 1; regenerate primes")
    return p, q


#: Bits of the small cofactor ``r`` in a structured prime's
#: ``p = 2*r*q' + 1``: every ``r`` below 2^13 < 10000 factors over
#: :data:`SMALL_PRIMES`.
_STRUCTURE_BITS = 12

#: Cofactors ``q'`` :func:`random_structured_prime` tries before it gives up.
_STRUCTURED_ATTEMPTS = 10_000


def random_structured_prime(bits: int, rng: Optional[RandomSource] = None) -> int:
    """Random ``bits``-bit prime ``p = 2*r*q' + 1`` with ``q'`` prime and
    ``r < 2^13``, so ``p - 1`` factors over :data:`SMALL_PRIMES` and ``q'``.

    That factorisation is what certifies a generator of Z_p*
    (:func:`smallest_generator`); it costs about two plain prime
    searches, where a safe prime ``2q' + 1`` costs hundreds.  ``q'`` is
    drawn first, then ``r`` uniformly from the range that puts ``p`` at
    exactly ``bits`` bits; a ``q'`` whose range holds no prime is
    redrawn.
    """
    if bits < 8:
        raise KeyGenerationError("structured primes need at least 8 bits")
    source = as_random_source(rng)
    low, high = 1 << (bits - 1), 1 << bits
    for _ in range(_STRUCTURED_ATTEMPTS):
        cofactor = random_prime(bits - min(_STRUCTURE_BITS, bits // 2) - 1, source)
        step = 2 * cofactor
        r_low, r_high = -(-low // step), (high - 2) // step
        for _ in range(4 * (r_high - r_low + 1)):
            p = step * source.randrange(r_low, r_high + 1) + 1
            if is_probable_prime(p, source):
                return p
    raise KeyGenerationError(
        "no %d-bit structured prime found in %d attempts"
        % (bits, _STRUCTURED_ATTEMPTS)
    )


def random_structured_prime_pair(
    bits: int, rng: Optional[RandomSource] = None
) -> Tuple[int, int]:
    """Two distinct :func:`random_structured_prime` primes of ``bits``
    bits each: the Paillier (and Damgård–Jurik) modulus factors."""
    source = as_random_source(rng)
    p = random_structured_prime(bits, source)
    q = random_structured_prime(bits, source)
    while q == p:
        q = random_structured_prime(bits, source)
    return p, q


def smooth_factors(m: int) -> Tuple[int, ...]:
    """The distinct prime factors of ``m >= 2``, by trial division over
    :data:`SMALL_PRIMES` and one primality test of what is left.

    Raises :class:`KeyGenerationError` when the cofactor left after
    trial division is composite: ``m`` is then not a smooth part times
    one prime, and its factorisation is unknown.  The message carries no
    number, since ``m`` is usually derived from a secret prime.
    """
    factors: List[int] = []
    for prime in SMALL_PRIMES:
        if m % prime == 0:
            factors.append(prime)
            while m % prime == 0:
                m //= prime
            if m == 1:
                break
    if m > 1:
        if not is_probable_prime(m):
            raise KeyGenerationError(
                "cofactor is not prime after trial division; "
                "the factorisation is unknown"
            )
        factors.append(m)
    return tuple(factors)


def smallest_generator(p: int) -> int:
    """The smallest generator of Z_p* for an odd prime ``p``.

    ``g`` generates Z_p* exactly when ``g^((p-1)/l) != 1 mod p`` for
    every prime ``l`` dividing ``p - 1``, which :func:`smooth_factors`
    certifies (or refuses with :class:`KeyGenerationError`).  Taking the
    smallest makes the generator a function of ``p`` alone.
    """
    order = p - 1
    cofactors = [order // factor for factor in smooth_factors(order)]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in cofactors):
            return g
    raise KeyGenerationError("Z_p* has no generator; the modulus is not prime")


def random_safe_prime(
    bits: int, rng: Optional[RandomSource] = None, max_attempts: int = 1_000_000
) -> int:
    """Random safe prime ``p = 2q + 1`` with ``q`` prime, of ``bits`` bits.

    Safe primes give the ElGamal scheme a large prime-order subgroup.
    Generation is slow for large sizes, so the tests use modest sizes and
    the library caches a few precomputed groups
    (:mod:`repro.crypto.elgamal`).
    """
    if bits < 3:
        raise KeyGenerationError("safe primes need at least 3 bits")
    source = as_random_source(rng)
    for _ in range(max_attempts):
        q = random_prime(bits - 1, source)
        p = 2 * q + 1
        if is_probable_prime(p, source):
            return p
    raise KeyGenerationError(
        "no %d-bit safe prime found in %d attempts" % (bits, max_attempts)
    )


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
