"""Elementary number theory on Python big integers.

These routines are the arithmetic bedrock of every cryptosystem in
:mod:`repro.crypto`.  They are deliberately written against plain Python
``int`` so the library has no dependency on ``gmpy2``; CPython's built-in
``pow(base, exp, mod)`` already uses an efficient windowed exponentiation.

All functions validate their inputs and raise :class:`ValueError` (or a
subclass of :class:`repro.exceptions.ReproError` where appropriate) on
domain errors rather than returning sentinel values.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

__all__ = [
    "egcd",
    "modinv",
    "lcm",
    "crt_pair",
    "crt",
    "jacobi",
    "isqrt",
    "is_perfect_square",
    "int_bit_length",
    "bytes_for_bits",
    "product_mod",
    "fermat_quotient",
]


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    The returned ``g`` is always non-negative.

    >>> egcd(240, 46)
    (2, -9, 47)
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m``.

    Raises :class:`ValueError` if ``a`` is not invertible mod ``m`` —
    a condition the Paillier key generator relies on to reject bad moduli.

    >>> modinv(3, 11)
    4
    """
    if m <= 0:
        raise ValueError("modulus must be positive, got %d" % m)
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError("%d is not invertible modulo %d (gcd=%d)" % (a, m, g))
    return x % m


def lcm(a: int, b: int) -> int:
    """Least common multiple of two non-negative integers."""
    if a == 0 or b == 0:
        return 0
    return abs(a // math.gcd(a, b) * b)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Chinese remainder theorem for two *coprime* moduli.

    Returns the unique ``x`` in ``[0, m1*m2)`` with ``x ≡ r1 (mod m1)``
    and ``x ≡ r2 (mod m2)``.  Used by CRT-accelerated Paillier and RSA
    private-key operations.
    """
    g = math.gcd(m1, m2)
    if g != 1:
        raise ValueError("crt_pair requires coprime moduli (gcd=%d)" % g)
    # x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2)
    diff = (r2 - r1) % m2
    x = r1 + m1 * (diff * modinv(m1, m2) % m2)
    return x % (m1 * m2)


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Chinese remainder theorem for an arbitrary list of coprime moduli.

    >>> crt([2, 3, 2], [3, 5, 7])
    23
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    if not moduli:
        raise ValueError("crt requires at least one congruence")
    x, m = residues[0] % moduli[0], moduli[0]
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        x = crt_pair(x, m, r_i, m_i)
        m *= m_i
    return x


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``.

    Returns -1, 0, or 1.  No protocol uses it: it is the test oracle for
    the Solovay–Strassen check that cross-examines
    :func:`~repro.crypto.primes.is_probable_prime` in the test suite.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol is defined for odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def isqrt(n: int) -> int:
    """Integer square root (floor) of a non-negative integer."""
    if n < 0:
        raise ValueError("isqrt of negative number")
    return math.isqrt(n)


def is_perfect_square(n: int) -> bool:
    """Whether ``n`` is a perfect square.  Rejects negative inputs as False."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def int_bit_length(n: int) -> int:
    """Bit length of ``abs(n)``; zero has bit length 0 (as in Python)."""
    return abs(n).bit_length()


def bytes_for_bits(bits: int) -> int:
    """Number of bytes needed to hold ``bits`` bits (at least 1 for bits=0)."""
    if bits < 0:
        raise ValueError("bit count must be non-negative")
    return max(1, (bits + 7) // 8)


def product_mod(values: Iterable[int], modulus: int) -> int:
    """Product of ``values`` reduced modulo ``modulus``.

    This is the server-side aggregation primitive of the selected-sum
    protocol: multiplying homomorphic ciphertexts adds their plaintexts.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    acc = 1 % modulus
    for v in values:
        acc = acc * v % modulus
    return acc


def fermat_quotient(x: int, p: int) -> int:
    """The Fermat quotient ``(x^(p-1) mod p^2 - 1) // p`` of ``x`` at ``p``.

    For a prime ``p`` and ``x`` prime to it this lies in ``[0, p)`` and
    is a homomorphism from multiplication to addition:
    ``q(x*y) = q(x) + q(y) mod p``.  Paillier decryption reads the
    plaintext through it (the ``L`` function of one prime), and the
    key owner's sampler tables carry it beside each residue
    (:class:`repro.crypto.multiexp.TeichmullerTable`).

    >>> fermat_quotient(2, 7)  # 2^6 mod 49 = 15 = 1 + 2*7
    2
    """
    return (pow(x, p - 1, p * p) - 1) // p
