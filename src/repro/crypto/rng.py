"""Random-number sources for the cryptosystems.

Two sources are provided behind one tiny interface:

* :class:`SecureRandom` — wraps :mod:`secrets` / ``os.urandom`` and is the
  default for any real use of the cryptosystems.
* :class:`DeterministicRandom` — an HMAC-DRBG (NIST SP 800-90A style,
  HMAC-SHA256) seeded from caller-supplied bytes.  Experiments and tests
  use it so that every benchmark run and every regression test is exactly
  reproducible, which the paper's experimental methodology (fixed
  workloads, repeated sweeps) requires.

The interface is intentionally minimal — ``randbits``, ``randbelow``,
``randbelow_many``, ``randrange`` — because that is all the key
generators and encryptors need.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from typing import List, Union

__all__ = ["RandomSource", "SecureRandom", "DeterministicRandom", "as_random_source"]


class RandomSource:
    """Abstract source of uniformly random integers."""

    def randbits(self, bits: int) -> int:
        """Return a uniform integer in ``[0, 2**bits)``."""
        raise NotImplementedError

    def randbelow(self, upper: int) -> int:
        """Return a uniform integer in ``[0, upper)`` for ``upper >= 1``."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        bits = upper.bit_length()
        while True:
            candidate = self.randbits(bits)
            if candidate < upper:
                return candidate

    def randbelow_many(self, upper: int, count: int) -> List[int]:
        """``count`` uniform integers in ``[0, upper)``, one
        :meth:`randbytes` call per round of rejection sampling.

        Each round asks :meth:`randbytes` for ``width * need`` bytes at
        once (``width = (upper.bit_length() + 7) // 8`` and ``need`` the
        indices still missing), cuts them into ``width``-byte big-endian
        slices, shifts each right to ``upper.bit_length()`` bits and
        rejects it unless below ``upper`` — the test :meth:`randbelow`
        applies to each ``randbits`` draw.  Every accepted slice is used
        once, in stream order.  A deterministic source's stream is read
        in fewer, longer generate calls, so its values differ from
        ``count`` calls of :meth:`randbelow`; their distribution does
        not.
        """
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        if count < 0:
            raise ValueError("count must be non-negative")
        bits = upper.bit_length()
        width = (bits + 7) // 8
        shift = 8 * width - bits
        accepted: List[int] = []
        while len(accepted) < count:
            raw = self.randbytes(width * (count - len(accepted)))
            for start in range(0, len(raw), width):
                candidate = int.from_bytes(raw[start : start + width], "big") >> shift
                if candidate < upper:
                    accepted.append(candidate)
        return accepted

    def randrange(self, lower: int, upper: int) -> int:
        """Return a uniform integer in ``[lower, upper)``."""
        if upper <= lower:
            raise ValueError("empty range [%d, %d)" % (lower, upper))
        return lower + self.randbelow(upper - lower)

    def randbytes(self, length: int) -> bytes:
        """Return ``length`` uniform random bytes."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return self.randbits(8 * length).to_bytes(length, "big") if length else b""


class SecureRandom(RandomSource):
    """Cryptographically secure randomness from the operating system."""

    def randbits(self, bits: int) -> int:
        """Uniform integer in [0, 2**bits) from the OS CSPRNG."""
        if bits < 0:
            raise ValueError("bit count must be non-negative")
        if bits == 0:
            return 0
        return secrets.randbits(bits)

    def randbytes(self, length: int) -> bytes:
        """``length`` bytes from the OS CSPRNG."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return secrets.token_bytes(length)


class DeterministicRandom(RandomSource):
    """HMAC-SHA256 DRBG for reproducible experiments and tests.

    The generator follows the HMAC-DRBG construction: internal state
    ``(K, V)`` is updated with every reseed and every generate call, so
    output streams for different seeds are independent and a given seed
    always yields the same stream.

    This generator is *deterministic by design* and must not be used where
    real security is required; :class:`SecureRandom` is the default
    everywhere in the library.
    """

    _HASHLEN = 32  # SHA-256 output size in bytes

    def __init__(self, seed: Union[bytes, str, int]) -> None:
        self._key = b"\x00" * self._HASHLEN
        self._value = b"\x01" * self._HASHLEN
        self._update(_seed_to_bytes(seed))

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        return hmac.new(key, data, hashlib.sha256).digest()

    def _update(self, data: bytes = b"") -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + data)
        self._value = self._hmac(self._key, self._value)
        if data:
            self._key = self._hmac(self._key, self._value + b"\x01" + data)
            self._value = self._hmac(self._key, self._value)

    def randbytes(self, length: int) -> bytes:
        """``length`` bytes from the deterministic HMAC-DRBG stream."""
        if length < 0:
            raise ValueError("length must be non-negative")
        out = bytearray()
        while len(out) < length:
            self._value = self._hmac(self._key, self._value)
            out.extend(self._value)
        self._update()
        return bytes(out[:length])

    def randbits(self, bits: int) -> int:
        """Uniform integer in [0, 2**bits) from the DRBG stream."""
        if bits < 0:
            raise ValueError("bit count must be non-negative")
        if bits == 0:
            return 0
        raw = int.from_bytes(self.randbytes((bits + 7) // 8), "big")
        return raw >> ((8 - bits % 8) % 8)


def _seed_to_bytes(seed: Union[bytes, str, int]) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, int):
        if seed < 0:
            seed = -2 * seed + 1  # fold negatives into distinct positives
        length = max(1, (seed.bit_length() + 7) // 8)
        return seed.to_bytes(length, "big")
    raise TypeError("seed must be bytes, str, or int, got %r" % type(seed).__name__)


def as_random_source(rng: Union[RandomSource, bytes, str, int, None]) -> RandomSource:
    """Coerce a convenience value into a :class:`RandomSource`.

    ``None`` yields a fresh :class:`SecureRandom`; a seed value yields a
    :class:`DeterministicRandom`; an existing source passes through.
    """
    if rng is None:
        return SecureRandom()
    if isinstance(rng, RandomSource):
        return rng
    return DeterministicRandom(rng)
