"""The private selected-sum protocol — paper §2, Figure 1.

The client holds a weight vector ``I`` (0/1 for plain selection, larger
integers for weighted sums); the server holds the database ``x``.

1. The client encrypts its weights under its own Paillier key and sends
   ``E(I_1), ..., E(I_n)`` to the server.
2. The server computes ``v = prod_i E(I_i)^{x_i} mod n^2`` — by the
   homomorphic property, ``v = E(sum_i I_i * x_i)`` — touching *every*
   element (anything less would leak information about the selection).
3. The server returns ``v``; the client decrypts the sum.

Client privacy: the server sees only semantically secure ciphertexts.
Database privacy: the client receives only an encryption of the sum.

This module implements the *unoptimized* version measured in Figures 2
and 3: the client encrypts the whole vector, then ships it (one framed
message per ciphertext, as a 2004 socket implementation would), then the
server computes, then replies.  No phase overlaps — which is exactly why
the optimizations of §3.2–§3.5 (sibling modules) pay off.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.scheme import SchemeKeyPair
from repro.datastore.database import ServerDatabase
from repro.spfe.base import SelectedSumBase
from repro.spfe.context import SERVER, ExecutionContext
from repro.spfe.result import SumRunResult
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["SelectedSumProtocol", "private_selected_sum"]


class SelectedSumProtocol(SelectedSumBase):
    """The plain (unoptimized) client/server protocol of Figure 1.

    Its :meth:`run` is the unpipelined round for any ciphertext source:
    :class:`~repro.spfe.preprocessing.PreprocessedSelectedSumProtocol`
    runs it with pooled ciphertexts.
    """

    protocol_name = "plain"

    def run(
        self,
        database: ServerDatabase,
        selection: Sequence[int],
        keypair: Optional[SchemeKeyPair] = None,
    ) -> SumRunResult:
        """Execute the protocol end to end.

        Args:
            database: the server's data.
            selection: the client's weight vector (0/1 for plain sums).
            keypair: reuse an existing key pair (key generation is
                one-time in practice and excluded from the paper's
                component timings; pass None to generate and have the
                time recorded in ``metadata["keygen_s"]``).

        Returns:
            :class:`~repro.spfe.result.SumRunResult` with the sum and the
            component breakdown of Figures 2/3.
        """
        ctx = self.ctx
        m = self.validate_inputs(database, selection)
        keypair, keygen_s = self.setup_keys(database, selection, keypair)
        public = keypair.public
        prepared, offline_s = self.prepare_client(database, public)
        rnd = self.open_round(keypair)

        # Phase 1 — the client produces its whole ciphertext vector.
        ciphertexts, client_s = self.client_ciphertexts(prepared, public, selection)
        rnd.client.advance(client_s)

        # Phase 2 — ship every ciphertext (one framed message each).
        received, comm_up_s = self.upload(rnd, ciphertexts)

        # Phase 3 — the server's single pass: v = prod E(I_i)^{x_i}.
        with ctx.compute(SERVER, Op.WEIGHTED_STEP, len(database)) as srv_block:
            aggregate = ctx.scheme.weighted_product(public, received, database.values)
        rnd.server.advance(srv_block.seconds)

        # Phase 4 — return the (single) encrypted sum; the client decrypts.
        value, comm_down_s, decrypt_s = self.reply_and_decrypt(rnd, aggregate)

        breakdown = TimingBreakdown(
            client_encrypt_s=client_s,
            server_compute_s=srv_block.seconds,
            communication_s=comm_up_s + comm_down_s,
            client_decrypt_s=decrypt_s,
            offline_precompute_s=offline_s,
        )
        return self.build_result(
            value=value,
            database=database,
            m=m,
            breakdown=breakdown,
            makespan_s=rnd.client.now,
            channels=[rnd.channel],
            metadata={
                "keygen_s": keygen_s,
                **self.client_metadata(database, prepared),
                "channel": rnd.channel,
            },
        )


def private_selected_sum(
    database: ServerDatabase,
    selection: Sequence[int],
    context: Optional[ExecutionContext] = None,
) -> SumRunResult:
    """One-call convenience wrapper around :class:`SelectedSumProtocol`.

    >>> from repro.datastore import ServerDatabase
    >>> db = ServerDatabase([17, 4, 23, 8, 15])
    >>> private_selected_sum(db, [1, 0, 1, 0, 1]).value
    55
    """
    return SelectedSumProtocol(context).run(database, selection)
