"""Trust-boundary validation for the server side of the wire protocol.

The server holds the sensitive database and answers arbitrary TCP
peers, so every byte it receives is untrusted.  The frame codec already
rejects *malformed* input (bad magic, CRC, lengths); this module rejects
*well-formed but hostile* input — keys and ciphertexts that parse fine
yet cannot have come from an honest client, and inputs that are honest
in shape but exceed what this server is willing to spend on one peer.

Two kinds of check, surfacing as two exception types:

* :class:`~repro.exceptions.ValidationError` — cryptographic sanity at
  the trust boundary.  A Paillier modulus must be odd, greater than 1,
  and inside its announced bit range; a ciphertext must lie in
  Z*_{n^2}, i.e. ``0 < c < n^2`` *and* ``gcd(c, n) == 1`` (a ciphertext
  sharing a factor with n is never produced by honest encryption, and
  folding one into the aggregate would corrupt the sum for free).
* :class:`~repro.exceptions.PolicyViolation` — resource limits from a
  :class:`ServerPolicy`: accepted key sizes, frame/payload caps, and
  per-session chunk and byte quotas.

:class:`ServerPolicy` is a frozen dataclass so a policy can be shared
across all connections of a :class:`~repro.net.server.SpfeServer`
without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ParameterError, PolicyViolation, ValidationError

__all__ = [
    "ServerPolicy",
    "check_public_key",
    "check_ciphertext",
    "check_ciphertext_chunk",
    "check_hello",
]

#: Slack allowed between the announced key size and the actual modulus
#: bit length: two random (bits/2)-bit primes can multiply to a modulus
#: one bit short of the target.
_KEY_BITS_SLACK = 8


@dataclass(frozen=True)
class ServerPolicy:
    """Resource and crypto-parameter limits for one server.

    Attributes:
        min_key_bits: smallest Paillier modulus accepted.  Tiny keys are
            trivially factorable and make the worst-case-sum capacity
            check meaningless; tests run at 128.
        max_key_bits: largest modulus accepted — bounds the CPU one
            connection can demand per ciphertext.
        max_frame_payload: largest frame payload parsed; anything bigger
            is rejected before it is buffered whole.
        max_chunks: most ENC_CHUNK frames one session may announce
            (``ceil(database_size / chunk_size)``), bounding per-session
            frame count independently of byte volume.
        max_session_bytes: inbound byte quota for one session, resumes
            included.  An honest session needs HELLO + key + one
            ciphertext per element; the default is sized for the paper's
            512-bit keys at n = 100k with generous headroom.
    """

    min_key_bits: int = 64
    max_key_bits: int = 4096
    max_frame_payload: int = 4 * 1024 * 1024
    max_chunks: int = 1 << 16
    max_session_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        """Validate the knobs against each other."""
        if not 0 < self.min_key_bits <= self.max_key_bits:
            raise ParameterError(
                "need 0 < min_key_bits <= max_key_bits, got %d..%d"
                % (self.min_key_bits, self.max_key_bits)
            )
        for name in (
            "max_frame_payload",
            "max_chunks",
            "max_session_bytes",
        ):
            if getattr(self, name) < 1:
                raise ParameterError("%s must be positive" % name)
        if self.max_frame_payload > self.max_session_bytes:
            raise ParameterError(
                "max_frame_payload exceeds the whole session byte quota"
            )


def check_hello(
    key_bits: int, database_size: int, chunk_size: int, policy: ServerPolicy
) -> None:
    """Validate HELLO parameters against ``policy``.

    Raises :class:`~repro.exceptions.PolicyViolation` for out-of-policy
    values, :class:`~repro.exceptions.ValidationError` for values no
    honest client can send (zero chunk size).
    """
    if chunk_size < 1:
        raise ValidationError("chunk size must be positive, got %d" % chunk_size)
    if not policy.min_key_bits <= key_bits <= policy.max_key_bits:
        raise PolicyViolation(
            "key size %d outside accepted range %d..%d"
            % (key_bits, policy.min_key_bits, policy.max_key_bits)
        )
    chunks = (database_size + chunk_size - 1) // chunk_size
    if chunks > policy.max_chunks:
        raise PolicyViolation(
            "%d chunks of %d elements exceeds the %d-chunk session limit"
            % (chunks, chunk_size, policy.max_chunks)
        )


def check_public_key(n: int, announced_bits: int) -> None:
    """Cryptographic sanity for an untrusted Paillier modulus.

    The modulus must be > 1, odd (a product of two odd primes always
    is; an even n is never a valid key), and within the announced bit
    range — larger would silently inflate every downstream buffer,
    much smaller means the capacity check in HELLO was a lie.
    """
    if n <= 1:
        raise ValidationError("public modulus must exceed 1, got %d" % n)
    if n % 2 == 0:
        raise ValidationError("public modulus is even; not a product of odd primes")
    bits = n.bit_length()
    if bits > announced_bits:
        raise ValidationError(
            "modulus has %d bits but %d were announced" % (bits, announced_bits)
        )
    if bits < announced_bits - _KEY_BITS_SLACK:
        raise ValidationError(
            "modulus has %d bits, far below the announced %d"
            % (bits, announced_bits)
        )


def check_ciphertext(ciphertext: int, n: int, nsquare: int) -> None:
    """Membership check for an untrusted ciphertext: c in Z*_{n^2}.

    ``0 < c < n^2`` keeps the aggregate arithmetic well-defined;
    ``gcd(c, n) == 1`` rejects values no honest encryption produces
    (``E(m; r) = (1+mn) r^n`` is always coprime to n when gcd(r, n)=1 —
    a non-coprime c either leaks a factor of n or poisons the sum).
    """
    check_ciphertext_chunk((ciphertext,), n, nsquare)


def check_ciphertext_chunk(
    ciphertexts: Sequence[int], n: int, nsquare: int
) -> None:
    """:func:`check_ciphertext` for every element of a chunk, one gcd.

    Each element gets the range check; coprimality is checked once, on
    the chunk's product mod n.  The two are equivalent: a prime factor
    of n divides the product exactly when it divides some element (an
    element that is 0 mod n makes the product 0, whose gcd with n is n).
    One big-int product per element costs about half a ``gcd``.  Each
    element is reduced mod n before the multiplication, so the product
    is of two n-sized numbers rather than one n-sized and one n²-sized;
    the product mod n, and so the verdict, is the same.
    """
    product = 1
    for ciphertext in ciphertexts:
        if not 0 < ciphertext < nsquare:
            raise ValidationError("ciphertext outside Z*_{n^2}")
        product = product * (ciphertext % n) % n
    if math.gcd(product, n) != 1:
        raise ValidationError("ciphertext shares a factor with the modulus")
