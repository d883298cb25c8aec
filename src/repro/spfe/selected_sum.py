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
from repro.spfe.base import (
    MSG_ENC_INDEX,
    MSG_RESULT,
    SelectedSumBase,
)
from repro.spfe.context import CLIENT, SERVER, ExecutionContext
from repro.spfe.result import SumRunResult
from repro.timing.clock import VirtualClock
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["SelectedSumProtocol", "private_selected_sum"]


class SelectedSumProtocol(SelectedSumBase):
    """The plain (unoptimized) client/server protocol of Figure 1."""

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
        scheme = ctx.scheme
        m = self.validate_inputs(database, selection)

        keygen_s = 0.0
        if keypair is None:
            keypair, keygen_s = ctx.generate_keypair(CLIENT)
        public, private = keypair.public, keypair.private
        self.check_capacity(database, selection, public)

        channel = ctx.new_channel()
        client_clock = VirtualClock()
        server_clock = VirtualClock()

        # Client announces its public key (tiny, one-time).
        t_pk = channel.client_send(self.public_key_message(public), client_clock.now)
        server_clock.wait_until(t_pk)
        channel.server_recv()

        # Phase 1 — client encrypts its whole weight vector.
        with ctx.compute(CLIENT, Op.ENCRYPT, len(selection)) as enc_block:
            ciphertexts = scheme.encrypt_vector(public, selection, ctx.rng)
        client_clock.advance(enc_block.seconds)

        # Phase 2 — ship every ciphertext (one framed message each).
        send_started = client_clock.now
        last_arrival = send_started
        for ct in ciphertexts:
            message = self.ciphertext_message(MSG_ENC_INDEX, ct, public, CLIENT)
            last_arrival = channel.client_send(message, client_clock.now)
        comm_up_s = last_arrival - send_started
        server_clock.wait_until(last_arrival)

        received = [channel.server_recv()[0].payload for _ in ciphertexts]

        # Phase 3 — the server's single pass: v = prod E(I_i)^{x_i}.
        with ctx.compute(SERVER, Op.WEIGHTED_STEP, len(database)) as srv_block:
            aggregate = scheme.weighted_product(public, received, database.values)
        server_clock.advance(srv_block.seconds)

        # Phase 4 — return the (single) encrypted sum.
        result_message = self.ciphertext_message(MSG_RESULT, aggregate, public, SERVER)
        reply_started = server_clock.now
        arrival = channel.server_send(result_message, server_clock.now)
        comm_down_s = arrival - reply_started
        client_clock.wait_until(arrival)
        payload = channel.client_recv()[0].payload

        # Phase 5 — client decrypts the sum.
        with ctx.compute(CLIENT, Op.DECRYPT, 1) as dec_block:
            value = scheme.decrypt(private, payload)
        client_clock.advance(dec_block.seconds)

        breakdown = TimingBreakdown(
            client_encrypt_s=enc_block.seconds,
            server_compute_s=srv_block.seconds,
            communication_s=comm_up_s + comm_down_s,
            client_decrypt_s=dec_block.seconds,
        )
        return self.build_result(
            value=value,
            database=database,
            m=m,
            breakdown=breakdown,
            makespan_s=client_clock.now,
            channel=channel,
            metadata={"keygen_s": keygen_s, "channel": channel},
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
