"""The Paillier cryptosystem (Paillier, EUROCRYPT 1999).

This is the cryptosystem the paper implements: semantically secure,
additively homomorphic public-key encryption.  For public key
``n = p * q`` (distinct equal-size primes) and generator ``g = n + 1``:

* ``Encrypt(m; r) = g^m * r^n mod n^2`` with random ``r`` in Z*_n.
  With ``g = n + 1`` this simplifies to ``(1 + m*n) * r^n mod n^2``,
  replacing one full modular exponentiation with a multiplication.
* ``Decrypt(c) = L(c^lambda mod n^2) * mu mod n`` where
  ``L(u) = (u - 1) / n``.  We implement the standard CRT acceleration,
  decrypting mod ``p^2`` and ``q^2`` separately (~4x faster).

The homomorphic identities the selected-sum protocol relies on::

    E(a) * E(b) mod n^2 = E(a + b mod n)
    E(a) ^ k   mod n^2 = E(a * k mod n)

Two layers of API are provided:

* :class:`PaillierScheme` — the hook-style interface protocols consume
  (plain-int ciphertexts, explicit public key argument).
* :class:`EncryptedNumber` — an ergonomic wrapper supporting ``+`` and
  ``*`` with operator overloading and signed plaintexts, for library
  users writing statistics code.

A :class:`RandomnessPool` implements the precomputation the paper's §3.3
optimization needs at the crypto layer: the expensive part of encryption
is ``r^n mod n^2``, which does not depend on the plaintext and can be
computed offline.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.crypto.multiexp import FixedBaseTable, multi_exponent
from repro.crypto.ntheory import bytes_for_bits, modinv, crt_pair
from repro.crypto.primes import random_prime_pair
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.scheme import AdditiveHomomorphicScheme, SchemeKeyPair
from repro.crypto.serialization import ciphertext_bytes, decode_int, encode_int
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
    KeyMismatchError,
)

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierScheme",
    "EncryptedNumber",
    "RandomnessPool",
    "generate_keypair",
]

DEFAULT_KEY_BITS = 512  # the paper's key size


class PaillierPublicKey:
    """Paillier public key: the modulus ``n`` (with ``g = n + 1`` fixed).

    Attributes:
        n: the RSA-style modulus ``p * q``.
        nsquare: ``n ** 2``, the ciphertext modulus.
        max_int: largest magnitude representable by the signed encoding
            (``n // 3 - 1``); see :meth:`encode_signed`.
    """

    __slots__ = ("n", "nsquare", "bits", "max_int")

    def __init__(self, n: int) -> None:
        if n < 6:
            raise KeyGenerationError("Paillier modulus too small: %d" % n)
        self.n = n
        self.nsquare = n * n
        self.bits = n.bit_length()
        self.max_int = n // 3 - 1

    # -- raw operations ---------------------------------------------------

    def raw_encrypt(self, plaintext: int, r_to_n: int) -> int:
        """Encrypt with precomputed obfuscator ``r_to_n = r^n mod n^2``.

        ``plaintext`` must already be reduced into ``[0, n)``.
        """
        if not 0 <= plaintext < self.n:
            raise EncryptionError(
                "plaintext %d outside [0, n); encode it first" % plaintext
            )
        # g^m = (1 + n)^m = 1 + m*n (mod n^2)
        g_to_m = (1 + plaintext * self.n) % self.nsquare
        return g_to_m * r_to_n % self.nsquare

    def draw_r(self, source: RandomSource) -> int:
        """Draw the encryption randomness ``r`` uniformly from Z*_n.

        Every encryption path draws through here, so the public-key and
        key-owner paths consume ``source`` identically and produce
        byte-identical ciphertexts from the same seed.
        """
        while True:
            r = source.randrange(1, self.n)
            # gcd(r, n) != 1 happens with negligible probability for real
            # keys but is cheap to guard against (and matters for the tiny
            # keys the unit tests use).
            if math.gcd(r, self.n) == 1:
                return r

    def obfuscator(self, rng: Optional[RandomSource] = None) -> int:
        """Draw ``r`` uniformly from Z*_n and return ``r^n mod n^2``.

        This single exponentiation is the dominant cost of encryption and
        the quantity the §3.3 preprocessing optimization computes offline.
        """
        return pow(self.draw_r(as_random_source(rng)), self.n, self.nsquare)

    def encrypt_raw(self, plaintext: int, rng: Optional[RandomSource] = None) -> int:
        """One-shot raw encryption: fresh obfuscator + :meth:`raw_encrypt`."""
        return self.raw_encrypt(plaintext % self.n, self.obfuscator(rng))

    # -- signed plaintext encoding -----------------------------------------

    def encode_signed(self, value: int) -> int:
        """Map a signed integer into Z_n.

        Values in ``[0, max_int]`` map to themselves; values in
        ``[-max_int, 0)`` map to the top of the range.  The middle third
        of Z_n is left unused so overflow is detectable on decode.
        """
        if abs(value) > self.max_int:
            raise EncryptionError(
                "value %d exceeds signed capacity +/-%d" % (value, self.max_int)
            )
        return value % self.n

    def decode_signed(self, encoded: int) -> int:
        """Inverse of :meth:`encode_signed`; rejects overflowed values."""
        if not 0 <= encoded < self.n:
            raise DecryptionError("encoded value outside Z_n")
        if encoded <= self.max_int:
            return encoded
        if encoded >= self.n - self.max_int:
            return encoded - self.n
        raise DecryptionError(
            "decoded plaintext fell in the overflow gap; "
            "an addition or scaling overflowed the signed range"
        )

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the public key (just n, big-endian)."""
        return encode_int(self.n, bytes_for_bits(self.bits))

    @classmethod
    def from_bytes(cls, data: bytes) -> "PaillierPublicKey":
        """Parse an untrusted serialized key, rejecting degenerate moduli."""
        if not data:
            raise KeyGenerationError("empty public key serialization")
        n = decode_int(data)
        if n <= 1:
            raise KeyGenerationError(
                "public modulus must exceed 1, got %d" % n
            )
        return cls(n)

    def ciphertext_to_bytes(self, ciphertext: int) -> bytes:
        """Serialize a ciphertext to its fixed wire width."""
        return encode_int(ciphertext, ciphertext_bytes(self.bits))

    def ciphertext_from_bytes(self, data: bytes) -> int:
        """Parse a wire ciphertext, validating membership in Z*_{n^2}.

        Zero is rejected along with ``c >= n^2``: no honest encryption
        produces it, and folding it into an aggregate silently zeroes
        the whole product.  ``gcd(c, n) != 1`` is rejected for the same
        reason (matching :func:`repro.spfe.validation.check_ciphertext`):
        honest encryptions are always units of Z_{n^2}, and a non-unit
        either poisons the aggregate or leaks a factor of ``n``.
        """
        value = decode_int(data)
        if not 0 < value < self.nsquare:
            raise DecryptionError("ciphertext outside Z*_{n^2}")
        if math.gcd(value, self.n) != 1:
            raise DecryptionError("ciphertext shares a factor with the modulus")
        return value

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("paillier-pk", self.n))

    def __repr__(self) -> str:
        return "PaillierPublicKey(bits=%d)" % self.bits


class PaillierPrivateKey:
    """Paillier private key with CRT-accelerated decryption.

    Holds the prime factors ``p`` and ``q`` of the public modulus and the
    per-prime decryption constants; ``decrypt`` runs the two half-size
    exponentiations and recombines via the Chinese remainder theorem.
    """

    __slots__ = (
        "public_key",
        "p",
        "q",
        "_psquare",
        "_qsquare",
        "_hp",
        "_hq",
        "_ep",
        "_eq",
        "_inv_psquare",
    )

    def __init__(self, public_key: PaillierPublicKey, p: int, q: int) -> None:
        if p * q != public_key.n:
            raise KeyGenerationError("p * q does not match the public modulus")
        if p == q:
            raise KeyGenerationError("p and q must be distinct")
        self.public_key = public_key
        self.p = p
        self.q = q
        self._psquare = p * p
        self._qsquare = q * q
        self._hp = self._h(p, self._psquare)
        self._hq = self._h(q, self._qsquare)
        # Encryption constants for obfuscator_from_r: r^n mod p^2 is the
        # Teichmüller lift of r^q mod p, whose exponent reduces mod p - 1
        # (likewise for q).  modinv(p^2, q^2) is hoisted here because
        # crt_pair would otherwise recompute it on every single encryption.
        self._ep = q % (p - 1)
        self._eq = p % (q - 1)
        self._inv_psquare = modinv(self._psquare, self._qsquare)

    def _h(self, prime: int, prime_sq: int) -> int:
        # h = L_prime(g^{prime-1} mod prime^2)^{-1} mod prime, g = n + 1
        g_exp = pow(1 + self.public_key.n, prime - 1, prime_sq)
        return modinv((g_exp - 1) // prime, prime)

    def raw_decrypt(self, ciphertext: int) -> int:
        """Decrypt a raw ciphertext int to its representative in [0, n)."""
        if not 0 <= ciphertext < self.public_key.nsquare:
            raise DecryptionError("ciphertext outside Z_{n^2}")
        mp = (pow(ciphertext, self.p - 1, self._psquare) - 1) // self.p
        mp = mp * self._hp % self.p
        mq = (pow(ciphertext, self.q - 1, self._qsquare) - 1) // self.q
        mq = mq * self._hq % self.q
        return crt_pair(mp, self.p, mq, self.q)

    def decrypt_signed(self, ciphertext: int) -> int:
        """Decrypt and decode through the signed encoding."""
        return self.public_key.decode_signed(self.raw_decrypt(ciphertext))

    # -- CRT-split encryption (key-owning clients) -------------------------

    def obfuscator_from_r(self, r: int) -> int:
        """``r^n mod n^2`` from the factorisation, via the Teichmüller lift.

        (Z/p^2)* is mu_{p-1} x (1 + pZ), and raising to ``n = pq`` kills
        the second factor (it has order p), so ``r^n mod p^2`` is the
        Teichmüller lift ``s^p mod p^2`` of ``s = r^q mod p``, where the
        exponent ``q`` reduces mod ``p - 1``.  Likewise mod ``q^2``; one
        Garner step recombines the halves.  Each half is one
        exponentiation mod ``p`` with a half-width exponent plus one
        mod ``p^2`` with exponent ``p``, against one full-width
        exponent mod ``n^2`` for :meth:`PaillierPublicKey.obfuscator`:
        measured about 2x faster at 512-bit keys and 2.4x at 1024
        (``docs/performance.md`` § CRT-split encryption).  The result is
        bit-for-bit the same obfuscator, so ciphertexts are
        byte-identical to the public-key path.
        """
        p, q, psquare = self.p, self.q, self._psquare
        cp = pow(pow(r % p, self._ep, p), p, psquare)
        cq = pow(pow(r % q, self._eq, q), q, self._qsquare)
        return cp + psquare * ((cq - cp) * self._inv_psquare % self._qsquare)

    def encrypt_raw_crt(
        self, plaintext: int, rng: Optional[RandomSource] = None
    ) -> int:
        """One-shot raw encryption through :meth:`obfuscator_from_r`.

        Draws ``r`` through :meth:`PaillierPublicKey.draw_r`, exactly as
        :meth:`PaillierPublicKey.obfuscator` does, so with the same
        seeded source this produces *byte-identical* ciphertexts to
        ``public_key.encrypt_raw`` — only faster.  The property suite in
        ``tests/crypto/test_paillier.py`` pins that equality.
        """
        public = self.public_key
        r = public.draw_r(as_random_source(rng))
        return public.raw_encrypt(plaintext % public.n, self.obfuscator_from_r(r))

    def __repr__(self) -> str:
        return "PaillierPrivateKey(bits=%d)" % self.public_key.bits


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    rng: Union[RandomSource, bytes, str, int, None] = None,
) -> SchemeKeyPair:
    """Generate a Paillier key pair with an (approximately) ``bits``-bit n.

    Args:
        bits: modulus size; the paper uses 512.
        rng: a :class:`~repro.crypto.rng.RandomSource`, or a seed value for
            deterministic generation in tests/benches, or None for secure
            randomness.

    Returns:
        :class:`~repro.crypto.scheme.SchemeKeyPair` of
        (:class:`PaillierPublicKey`, :class:`PaillierPrivateKey`).
    """
    if bits < 16:
        raise KeyGenerationError("key size %d too small (minimum 16)" % bits)
    source = as_random_source(rng)
    p, q = random_prime_pair(bits // 2, source)
    public = PaillierPublicKey(p * q)
    return SchemeKeyPair(public, PaillierPrivateKey(public, p, q))


class RandomnessPool:
    """Pool of precomputed encryption obfuscators (``r^n mod n^2``).

    The modular exponentiation ``r^n`` dominates Paillier encryption and
    is independent of the plaintext, so it can be computed offline — this
    is the crypto-level half of the paper's §3.3 preprocessing
    optimization (the protocol-level half, pre-encrypted index bits,
    lives in :mod:`repro.spfe.preprocessing`).

    The pool refills on demand; :attr:`misses` counts how many
    obfuscators had to be computed online, which the timing layer uses to
    charge online vs offline cost correctly.

    With ``fixed_base=True`` the pool draws obfuscators through a
    per-key :class:`~repro.crypto.multiexp.FixedBaseTable`: a random
    ``h`` is fixed once, ``g = h^n mod n^2`` is precomputed in windowed
    form, and each obfuscator is ``g^x`` for fresh random ``x`` — table
    lookups and multiplications only, ~6x faster than a full ``pow``.
    (``g^x = (h^x mod n)^n mod n^2``, so these are exact Paillier
    obfuscators; the randomness ``r = h^x`` ranges over the subgroup
    generated by ``h`` rather than all of Z*_n — ``docs/performance.md``
    discusses the assumption.)

    The pool is thread-safe: ``take``/``precompute``/``len`` may be
    called from concurrent sessions (e.g. under a
    :class:`~repro.crypto.engine.CryptoEngine`-backed server), and the
    ``generated``/``misses`` accounting stays exact under concurrent
    drains.  Draws from the shared RNG also happen under the lock — an
    HMAC-DRBG mutates state on every draw and is not itself
    thread-safe.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        rng: Union[RandomSource, bytes, str, int, None] = None,
        fixed_base: bool = False,
        window: Optional[int] = None,
        table: Optional[FixedBaseTable] = None,
    ) -> None:
        if table is not None and table.modulus != public_key.nsquare:
            raise KeyMismatchError(
                "injected fixed-base table modulus does not match n^2"
            )
        self.public_key = public_key
        self._rng = as_random_source(rng)
        self._pool: List[int] = []
        self._lock = threading.Lock()
        self._fixed_base = fixed_base or table is not None
        self._window = window
        self._table: Optional[FixedBaseTable] = table
        self.generated = 0
        self.misses = 0
        #: obfuscators restored from a persistent store (warm start),
        #: counted separately from ``generated`` so cost accounting can
        #: tell offline-this-process from offline-a-previous-process.
        self.restored = 0

    def _ensure_table_locked(self) -> FixedBaseTable:
        """Build the per-key fixed-base table once; caller holds the lock."""
        if self._table is None:
            public = self.public_key
            while True:
                h = self._rng.randrange(2, public.n)
                if math.gcd(h, public.n) == 1:
                    break
            self._table = FixedBaseTable(
                pow(h, public.n, public.nsquare),
                public.nsquare,
                public.bits,
                self._window,
            )
        return self._table

    def _obfuscator_locked(self) -> int:
        """One obfuscator; caller holds the lock (RNG state is shared)."""
        if not self._fixed_base:
            return self.public_key.obfuscator(self._rng)
        table = self._ensure_table_locked()
        return table.pow(self._rng.randrange(1, table.capacity))

    def _compute_batch(self, count: int) -> List[int]:
        """``count`` fresh obfuscators, exponentiating OUTSIDE the lock.

        Generate-then-swap: the lock is held only for the (cheap) RNG
        draws, the dominant modular exponentiations run unlocked, and
        the caller swaps the finished batch in under one short critical
        section.  Concurrent ``take()`` callers therefore never stall
        behind a large refill — the regression test in
        ``tests/crypto/test_paillier.py`` hammers exactly this.
        """
        if count <= 0:
            return []
        if self._fixed_base:
            with self._lock:
                table = self._ensure_table_locked()
                exponents = [
                    self._rng.randrange(1, table.capacity) for _ in range(count)
                ]
            return [table.pow(x) for x in exponents]
        public = self.public_key
        with self._lock:
            residues = [public.draw_r(self._rng) for _ in range(count)]
        return [pow(r, public.n, public.nsquare) for r in residues]

    #: Obfuscators computed per lock-swap during a refill; bounds how
    #: stale a concurrent ``len()``/``take()`` view of a refill can be.
    REFILL_BATCH = 32

    def precompute(self, count: int) -> None:
        """Generate ``count`` obfuscators now (the offline phase).

        Refills land in :attr:`REFILL_BATCH`-sized swaps so concurrent
        consumers see the pool grow incrementally instead of blocking on
        one long critical section.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        remaining = count
        while remaining > 0:
            batch = self._compute_batch(min(remaining, self.REFILL_BATCH))
            remaining -= len(batch)
            with self._lock:
                self._pool.extend(batch)
                self.generated += len(batch)

    def ensure(self, count: int) -> None:
        """Top the pool up to at least ``count`` pooled obfuscators."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            shortfall = count - len(self._pool)
        if shortfall > 0:
            self.precompute(shortfall)

    def take(self) -> int:
        """Pop one obfuscator, computing it on the spot if the pool is dry."""
        with self._lock:
            if self._pool:
                return self._pool.pop()
            self.misses += 1
        # Dry pool: compute the miss outside the lock as well, so an
        # unlucky consumer never serialises the others behind a pow().
        return self._compute_batch(1)[0]

    def take_many(self, count: int) -> List[int]:
        """Pop ``count`` obfuscators, computing any shortfall on the spot.

        The batched draw the engine's rerandomisation path uses: one
        lock round-trip for the pooled portion, and misses are computed
        unlocked in one batch rather than one ``take()`` at a time.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            available = min(count, len(self._pool))
            taken = self._pool[len(self._pool) - available :]
            del self._pool[len(self._pool) - available :]
            taken.reverse()  # match take()'s LIFO pop order
            shortfall = count - available
            self.misses += shortfall
        if shortfall:
            taken.extend(self._compute_batch(shortfall))
        return taken

    def __len__(self) -> int:
        with self._lock:
            return len(self._pool)

    # -- persistence hooks (see repro.store.state.StateStore) -------------

    def restore(self, obfuscators: Iterable[int]) -> None:
        """Refill the pool from obfuscators persisted by an earlier run.

        The caller (the state store) guarantees single-use semantics:
        restored values were removed from durable storage before being
        handed here, so no obfuscator can be restored twice.
        """
        values = list(obfuscators)
        with self._lock:
            self._pool.extend(values)
            self.restored += len(values)

    def export_obfuscators(self) -> List[int]:
        """Drain and return every unused pooled obfuscator.

        Draining (rather than copying) keeps single-use semantics: once
        exported for persistence, an obfuscator is no longer available
        in this process.
        """
        with self._lock:
            values, self._pool = self._pool, []
        return values

    def export_table(self) -> Optional[FixedBaseTable]:
        """The pool's fixed-base table, if one has been built yet."""
        with self._lock:
            return self._table


class EncryptedNumber:
    """A Paillier ciphertext with operator sugar and signed plaintexts.

    Supports ``enc + enc``, ``enc + int``, ``enc * int``, ``-enc``,
    ``enc - enc``; all operations stay on ciphertexts.  Adding a plain
    integer encrypts it with a *deterministic* obfuscator of 1 (no fresh
    randomness is needed because the sum is rerandomized by the encrypted
    operand); call :meth:`obfuscate` before sending a result over a
    channel if the recipient must not learn the operand structure.
    """

    __slots__ = ("public_key", "ciphertext", "is_obfuscated")

    def __init__(
        self,
        public_key: PaillierPublicKey,
        ciphertext: int,
        is_obfuscated: bool = False,
    ) -> None:
        self.public_key = public_key
        self.ciphertext = ciphertext % public_key.nsquare
        self.is_obfuscated = is_obfuscated

    # -- construction -----------------------------------------------------

    @classmethod
    def encrypt(
        cls,
        public_key: PaillierPublicKey,
        value: int,
        rng: Union[RandomSource, bytes, str, int, None] = None,
        pool: Optional[RandomnessPool] = None,
    ) -> "EncryptedNumber":
        """Encrypt a signed integer, drawing randomness from ``pool`` if given."""
        encoded = public_key.encode_signed(value)
        if pool is not None:
            obfuscator = pool.take()
        else:
            obfuscator = public_key.obfuscator(as_random_source(rng))
        return cls(public_key, public_key.raw_encrypt(encoded, obfuscator), True)

    # -- homomorphic operations --------------------------------------------

    def __add__(
        self, other: Union["EncryptedNumber", int]
    ) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            self._check_key(other)
            product = self.ciphertext * other.ciphertext % self.public_key.nsquare
            return EncryptedNumber(
                self.public_key,
                product,
                self.is_obfuscated or other.is_obfuscated,
            )
        if isinstance(other, int):
            encoded = self.public_key.encode_signed(other)
            plain_cipher = (1 + encoded * self.public_key.n) % self.public_key.nsquare
            product = self.ciphertext * plain_cipher % self.public_key.nsquare
            return EncryptedNumber(self.public_key, product, self.is_obfuscated)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar: int) -> "EncryptedNumber":
        if not isinstance(scalar, int):
            return NotImplemented
        encoded = self.public_key.encode_signed(scalar)
        return EncryptedNumber(
            self.public_key,
            pow(self.ciphertext, encoded, self.public_key.nsquare),
            self.is_obfuscated,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "EncryptedNumber":
        return self * -1

    def __sub__(self, other: Union["EncryptedNumber", int]) -> "EncryptedNumber":
        if not isinstance(other, (EncryptedNumber, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "EncryptedNumber":
        return (-self) + other

    def obfuscate(
        self, rng: Union[RandomSource, bytes, str, int, None] = None
    ) -> "EncryptedNumber":
        """Multiply in a fresh encryption of zero (rerandomization)."""
        fresh = self.public_key.obfuscator(as_random_source(rng))
        return EncryptedNumber(
            self.public_key,
            self.ciphertext * fresh % self.public_key.nsquare,
            True,
        )

    # -- decryption ----------------------------------------------------------

    def decrypt(self, private_key: PaillierPrivateKey) -> int:
        """Decrypt with the matching private key (signed decode)."""
        if private_key.public_key != self.public_key:
            raise KeyMismatchError("private key does not match ciphertext key")
        return private_key.decrypt_signed(self.ciphertext)

    # -- helpers ------------------------------------------------------------

    def _check_key(self, other: "EncryptedNumber") -> None:
        if self.public_key != other.public_key:
            raise KeyMismatchError(
                "cannot combine ciphertexts under different public keys"
            )

    def __repr__(self) -> str:
        return "EncryptedNumber(bits=%d, obfuscated=%s)" % (
            self.public_key.bits,
            self.is_obfuscated,
        )


class PaillierScheme(AdditiveHomomorphicScheme):
    """Hook-style Paillier implementation of the scheme interface.

    Ciphertexts are plain ints; the public key argument is a
    :class:`PaillierPublicKey`.  Protocol code in :mod:`repro.spfe` uses
    this interface so it can also run against
    :class:`repro.crypto.simulated.SimulatedPaillier`.

    The two batch hooks are kernel-backed: :meth:`weighted_product`
    runs the :func:`~repro.crypto.multiexp.multi_exponent` bucket
    kernel (one shared squaring chain for the whole batch) unless
    ``use_multiexp=False`` restores the naive per-element loop, and an
    optional :class:`~repro.crypto.engine.CryptoEngine` parallelises
    both vector encryption and aggregation across processes.
    """

    name = "paillier"

    def __init__(
        self,
        engine: Optional[object] = None,
        use_multiexp: bool = True,
        pool: Optional[RandomnessPool] = None,
    ) -> None:
        #: optional :class:`~repro.crypto.engine.CryptoEngine` (duck-typed
        #: so this module never imports the engine; None = in-process)
        self.engine = engine
        self.use_multiexp = use_multiexp
        #: optional :class:`RandomnessPool` batched rerandomisation draws
        #: obfuscators from (the persistent §3.3 offline tier)
        self.pool = pool

    def generate(
        self, bits: int = DEFAULT_KEY_BITS, rng: Union[RandomSource, bytes, str, int, None] = None
    ) -> SchemeKeyPair:
        """Generate a key pair (scheme-interface hook)."""
        return generate_keypair(bits, rng)

    def plaintext_modulus(self, public: PaillierPublicKey) -> int:
        """The plaintext modulus M (scheme-interface hook)."""
        return public.n

    def ciphertext_size_bytes(self, public: PaillierPublicKey) -> int:
        """Wire size of one ciphertext in bytes (scheme-interface hook)."""
        return ciphertext_bytes(public.bits)

    def encrypt(
        self,
        public: PaillierPublicKey,
        plaintext: int,
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> int:
        """Encrypt a plaintext into a fresh ciphertext (scheme-interface hook)."""
        return public.encrypt_raw(plaintext, as_random_source(rng))

    def decrypt(self, private: PaillierPrivateKey, ciphertext: int) -> int:
        """Decrypt a ciphertext to its representative in [0, M) (scheme-interface hook)."""
        return private.raw_decrypt(ciphertext)

    def ciphertext_add(self, public: PaillierPublicKey, a: int, b: int) -> int:
        """Homomorphic addition of two ciphertexts (scheme-interface hook)."""
        return a * b % public.nsquare

    def ciphertext_scale(self, public: PaillierPublicKey, a: int, scalar: int) -> int:
        """Homomorphic scalar multiplication (scheme-interface hook)."""
        return pow(a, scalar % public.n, public.nsquare)

    def identity(self, public: PaillierPublicKey) -> int:
        """A deterministic encryption of zero (scheme-interface hook)."""
        return 1

    def rerandomize(
        self,
        public: PaillierPublicKey,
        a: int,
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> int:
        """Refresh a ciphertext's randomness, preserving the plaintext (scheme-interface hook)."""
        return a * public.obfuscator(as_random_source(rng)) % public.nsquare

    # -- kernel-backed batch hooks ----------------------------------------

    def encrypt_vector(
        self,
        public: PaillierPublicKey,
        plaintexts: Sequence[int],
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> Tuple[int, ...]:
        """Encrypt a plaintext vector, through the engine when one is set."""
        if self.engine is not None and self.engine.supports_key(public):
            return self.engine.encrypt_vector(public, plaintexts, rng)
        return super().encrypt_vector(public, plaintexts, rng)

    def rerandomize_vector(
        self,
        public: PaillierPublicKey,
        ciphertexts: Sequence[int],
        rng: Union[RandomSource, bytes, str, int, None] = None,
    ) -> Tuple[int, ...]:
        """Batched rerandomisation, pooled and engine-backed when possible.

        With an engine configured, the whole vector goes through one
        :meth:`~repro.crypto.engine.CryptoEngine.rerandomize_vector`
        call; a matching :class:`RandomnessPool` supplies precomputed
        obfuscators in one batched drain.  Falls back to the per-element
        base path otherwise.
        """
        pool = (
            self.pool
            if self.pool is not None and self.pool.public_key == public
            else None
        )
        if self.engine is not None and self.engine.supports_key(public):
            return self.engine.rerandomize_vector(
                public, ciphertexts, rng, pool=pool
            )
        if pool is not None:
            nsquare = public.nsquare
            return tuple(
                ct * ob % nsquare
                for ct, ob in zip(
                    ciphertexts, pool.take_many(len(ciphertexts))
                )
            )
        return super().rerandomize_vector(public, ciphertexts, rng)

    def weighted_product(
        self,
        public: PaillierPublicKey,
        ciphertexts: Sequence[int],
        weights: Sequence[int],
        initial: Optional[int] = None,
    ) -> int:
        """The server aggregate ``prod_i c_i^{w_i} mod n^2``, batched.

        Runs the simultaneous-multiexp bucket kernel (weights reduced
        into Z_n exactly as ``ciphertext_scale`` does, so the result is
        bit-for-bit the naive loop's); a configured engine partitions
        the batch across worker processes as well.
        """
        if not self.use_multiexp and self.engine is None:
            return super().weighted_product(public, ciphertexts, weights, initial)
        if len(ciphertexts) != len(weights):
            raise ValueError("ciphertext/weight length mismatch")
        if self.engine is not None:
            return self.engine.weighted_product(
                public.nsquare, public.n, ciphertexts, weights, initial
            )
        return multi_exponent(
            ciphertexts,
            [w % public.n for w in weights],
            public.nsquare,
            initial=initial,
        )
