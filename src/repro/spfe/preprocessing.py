"""Index-vector preprocessing — paper §3.3.

The client's dominant cost is the n public-key encryptions of its index
bits.  But those encryptions do not depend on anything the client learns
online: "Even if the client does not yet know which indices will be 0
and which will be 1, it can simply encrypt a large number of 0s and a
large number of 1s to use later."  The online phase then just *fetches*
the right stored ciphertexts and ships them.

The paper motivates this for weak devices with ample storage (PDAs) and
reports the online runtime dropping ~82 % on the cluster, with the
server's computation becoming the dominant online component (Figure 5);
over the modem, communication dominates instead (Figure 6).

Security note: each pooled encryption is used at most once.  Reusing a
ciphertext would let the server link equal index positions across
queries (the whole point of randomised encryption is that it cannot do
this for *fresh* encryptions).  :class:`EncryptionPool` enforces
single-use and counts underflows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.rng import as_random_source
from repro.crypto.scheme import AdditiveHomomorphicScheme
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError, ProtocolError
from repro.spfe.base import SelectedSumBase
from repro.spfe.context import CLIENT
from repro.spfe.selected_sum import SelectedSumProtocol
from repro.timing.costmodel import Op

__all__ = ["EncryptionPool", "PreprocessedSelectedSumProtocol"]


class EncryptionPool:
    """A store of pre-encrypted index bits (0s and 1s), single-use.

    Built offline with :meth:`fill`; consumed online with :meth:`take`.
    ``misses`` counts ciphertexts that had to be encrypted online because
    the pool ran dry — the timing layer charges those at full encryption
    cost, so an undersized pool shows up honestly in results.
    """

    def __init__(
        self,
        scheme: AdditiveHomomorphicScheme,
        public_key: Any,
        rng: Any = None,
    ) -> None:
        self.scheme = scheme
        self.public_key = public_key
        # One source for every fill and miss: a seed must not restart
        # its stream on each call, or equal bits would encrypt equally.
        self._rng = as_random_source(rng)
        self._store: Dict[int, List[Any]] = {0: [], 1: []}
        self.misses = 0

    def fill(self, zeros: int, ones: int) -> None:
        """Encrypt and store ``zeros`` 0-bits and ``ones`` 1-bits (offline)."""
        if zeros < 0 or ones < 0:
            raise ParameterError("pool sizes must be non-negative")
        for bit, count in ((0, zeros), (1, ones)):
            if not count:
                continue
            self._store[bit].extend(
                self.scheme.encrypt_vector(
                    self.public_key, [bit] * count, self._rng
                )
            )

    def take(self, bit: int) -> Any:
        """Pop one stored encryption of ``bit``; encrypt online if dry."""
        if bit not in (0, 1):
            raise ParameterError("pool holds encrypted bits, got %r" % (bit,))
        store = self._store[bit]
        if store:
            return store.pop()
        self.misses += 1
        return self.scheme.encrypt(self.public_key, bit, self._rng)

    def available(self, bit: int) -> int:
        """Stored encryptions left for ``bit``."""
        return len(self._store[bit])


class PooledClient(SelectedSumBase):
    """The §3.3 ciphertext source, for any round that takes the
    :meth:`~repro.spfe.base.SelectedSumBase.client_ciphertexts` hook.

    Offline, the client fills an :class:`EncryptionPool` with
    ``pool_zeros`` 0-bits and ``pool_ones`` 1-bits (each defaults to the
    database size, enough for any selection: the paper's "large
    number"), charged at :attr:`Op.ENCRYPT`.  Online it fetches one
    pooled ciphertext per bit, charged at :attr:`Op.POOL_FETCH`; a bit
    the dry pool had to encrypt online is charged at full encryption
    cost on top.

    Only 0/1 selections are supported: the preprocessing trick relies on
    the index alphabet being tiny.  (Weighted sums would need a pool per
    weight value; the paper does not pursue that and neither do we.)
    """

    pool_zeros: Optional[int]
    pool_ones: Optional[int]

    def validate_inputs(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> int:
        """The base checks, plus a 0/1 selection (pools are per bit)."""
        m = super().validate_inputs(database, selection)
        if any(w not in (0, 1) for w in selection):
            raise ProtocolError(
                "%s protocol requires a 0/1 selection vector "
                "(pools are per index value)" % self.protocol_name
            )
        return m

    def pool_sizes(self, database: ServerDatabase) -> Tuple[int, int]:
        """How many 0-bits and 1-bits the offline phase encrypts."""
        zeros = self.pool_zeros if self.pool_zeros is not None else len(database)
        ones = self.pool_ones if self.pool_ones is not None else len(database)
        return zeros, ones

    def prepare_client(
        self, database: ServerDatabase, public_key: Any
    ) -> Tuple[EncryptionPool, float]:
        """Offline: fill the pool, charged at :attr:`Op.ENCRYPT` and
        traced as ``offline_precompute``."""
        zeros, ones = self.pool_sizes(database)
        pool = EncryptionPool(self.ctx.scheme, public_key, self.ctx.rng)
        with self.ctx.compute(
            CLIENT, Op.ENCRYPT, zeros + ones, phase="offline_precompute"
        ) as block:
            pool.fill(zeros, ones)
        return pool, block.seconds

    def client_ciphertexts(
        self, prepared: EncryptionPool, public_key: Any, weights: Sequence[int]
    ) -> Tuple[List[Any], float]:
        """Online: one pooled ciphertext per bit, plus any dry-pool
        encryptions charged at full cost; both traced as ``encrypt``,
        the client's online phase."""
        ctx = self.ctx
        misses_before = prepared.misses
        with ctx.compute(
            CLIENT, Op.POOL_FETCH, len(weights), phase="encrypt"
        ) as fetch_block:
            ciphertexts = [prepared.take(bit) for bit in weights]
        seconds = fetch_block.seconds
        new_misses = prepared.misses - misses_before
        if new_misses:
            with ctx.compute(CLIENT, Op.ENCRYPT, new_misses) as miss_block:
                pass
            seconds += miss_block.seconds
        return ciphertexts, seconds

    def client_metadata(
        self, database: ServerDatabase, prepared: EncryptionPool
    ) -> Dict[str, Any]:
        """How many bits the dry pool had to encrypt online."""
        return {"pool_misses": prepared.misses}


class PreprocessedSelectedSumProtocol(PooledClient, SelectedSumProtocol):
    """Selected sum with the §3.3 offline-encryption optimization: the
    plain round of :class:`~repro.spfe.selected_sum.SelectedSumProtocol`
    over a :class:`PooledClient` ciphertext source.

    The online client time (``client_encrypt_s``) is the pool fetches
    plus any dry-pool encryptions; the fill is ``offline_precompute_s``.
    """

    protocol_name = "preprocessed"

    def __init__(
        self,
        context=None,
        pool_zeros: Optional[int] = None,
        pool_ones: Optional[int] = None,
    ) -> None:
        """``pool_zeros`` / ``pool_ones`` default to the database size —
        enough for any selection, matching the paper's "large number"."""
        super().__init__(context)
        self.pool_zeros = pool_zeros
        self.pool_ones = pool_ones

    def client_metadata(
        self, database: ServerDatabase, prepared: EncryptionPool
    ) -> Dict[str, Any]:
        """The pool's fill sizes as well as its misses."""
        zeros, ones = self.pool_sizes(database)
        return {
            "pool_zeros": zeros,
            "pool_ones": ones,
            **super().client_metadata(database, prepared),
        }
