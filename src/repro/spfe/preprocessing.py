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

from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.rng import as_random_source
from repro.crypto.scheme import AdditiveHomomorphicScheme, SchemeKeyPair
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError, ProtocolError
from repro.spfe.base import MSG_ENC_INDEX, MSG_RESULT, SelectedSumBase
from repro.spfe.context import CLIENT, SERVER
from repro.spfe.result import SumRunResult
from repro.timing.clock import VirtualClock
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

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


class PreprocessedSelectedSumProtocol(SelectedSumBase):
    """Selected sum with the §3.3 offline-encryption optimization.

    Only 0/1 selections are supported: the preprocessing trick relies on
    the index alphabet being tiny.  (Weighted sums would need a pool per
    weight value; the paper does not pursue that and neither do we.)
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

    def run(
        self,
        database: ServerDatabase,
        selection: Sequence[int],
        keypair: Optional[SchemeKeyPair] = None,
    ) -> SumRunResult:
        """Fill the pool offline, then run the online phase (see class docstring)."""
        ctx = self.ctx
        scheme = ctx.scheme
        m = self.validate_inputs(database, selection)
        if any(w not in (0, 1) for w in selection):
            raise ProtocolError(
                "preprocessing requires a 0/1 selection vector "
                "(pools are per index value)"
            )

        keygen_s = 0.0
        if keypair is None:
            keypair, keygen_s = ctx.generate_keypair(CLIENT)
        public, private = keypair.public, keypair.private
        self.check_capacity(database, selection, public)

        # ---- offline phase: fill the pool before the query exists ----
        zeros = self.pool_zeros if self.pool_zeros is not None else len(database)
        ones = self.pool_ones if self.pool_ones is not None else len(database)
        pool = EncryptionPool(scheme, public, ctx.rng)
        with ctx.compute(CLIENT, Op.ENCRYPT, zeros + ones) as off_block:
            pool.fill(zeros, ones)
        offline_s = off_block.seconds

        # ---- online phase -------------------------------------------------
        channel = ctx.new_channel()
        client_clock = VirtualClock()
        server_clock = VirtualClock()

        t_pk = channel.client_send(self.public_key_message(public), client_clock.now)
        server_clock.wait_until(t_pk)
        channel.server_recv()

        with ctx.compute(CLIENT, Op.POOL_FETCH, len(selection)) as fetch_block:
            ciphertexts = [pool.take(bit) for bit in selection]
        client_clock.advance(fetch_block.seconds)
        online_misses = pool.misses
        if online_misses:  # charge dry-pool encryptions at full cost
            with ctx.compute(CLIENT, Op.ENCRYPT, online_misses) as miss_block:
                pass
            client_clock.advance(miss_block.seconds)
            fetch_block.seconds += miss_block.seconds

        send_started = client_clock.now
        last_arrival = send_started
        for ct in ciphertexts:
            message = self.ciphertext_message(MSG_ENC_INDEX, ct, public, CLIENT)
            last_arrival = channel.client_send(message, client_clock.now)
        comm_up_s = last_arrival - send_started
        server_clock.wait_until(last_arrival)
        received = [channel.server_recv()[0].payload for _ in ciphertexts]

        with ctx.compute(SERVER, Op.WEIGHTED_STEP, len(database)) as srv_block:
            aggregate = scheme.weighted_product(public, received, database.values)
        server_clock.advance(srv_block.seconds)

        result_message = self.ciphertext_message(MSG_RESULT, aggregate, public, SERVER)
        reply_started = server_clock.now
        arrival = channel.server_send(result_message, server_clock.now)
        comm_down_s = arrival - reply_started
        client_clock.wait_until(arrival)
        payload = channel.client_recv()[0].payload

        with ctx.compute(CLIENT, Op.DECRYPT, 1) as dec_block:
            value = scheme.decrypt(private, payload)
        client_clock.advance(dec_block.seconds)

        breakdown = TimingBreakdown(
            client_encrypt_s=fetch_block.seconds,  # online client processing
            server_compute_s=srv_block.seconds,
            communication_s=comm_up_s + comm_down_s,
            client_decrypt_s=dec_block.seconds,
            offline_precompute_s=offline_s,
        )
        return self.build_result(
            value=value,
            database=database,
            m=m,
            breakdown=breakdown,
            makespan_s=client_clock.now,
            channel=channel,
            metadata={
                "keygen_s": keygen_s,
                "pool_zeros": zeros,
                "pool_ones": ones,
                "pool_misses": online_misses,
                "channel": channel,
            },
        )
