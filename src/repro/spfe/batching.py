"""Single-pass batching with pipeline parallelism — paper §3.2.

Both the client's encryption and the server's product are single-pass,
so the client can process its index vector in chunks, sending each chunk
as soon as it is encrypted; the server folds each chunk into its partial
product on arrival.  Three activities overlap: encryption of chunk
*i+1*, transfer of chunk *i*, server processing of chunk *i-1*.

Side benefits the paper notes: bounded memory on both sides (one chunk
at a time), and — in our wire accounting — far fewer framed messages
(one per chunk instead of one per element).

The paper uses a batch size of 100 and reports ~10 % overall-runtime
reduction on the cluster; since client encryption dominates there, the
pipeline's makespan approaches the encryption total, and the ~10 % saved
is the communication + server time that now overlaps it.  The batch-size
ablation bench sweeps this parameter (the paper: "the optimal chunk size
will depend on the relative communication and computation speeds").
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.scheme import SchemeKeyPair
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError
from repro.spfe.base import MSG_ENC_INDEX, SelectedSumBase
from repro.spfe.context import CLIENT, SERVER
from repro.spfe.result import SumRunResult
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["BatchedSelectedSumProtocol", "PAPER_BATCH_SIZE"]

PAPER_BATCH_SIZE = 100  # "we took a batch size of 100 elements" (§3.2)


class BatchedSelectedSumProtocol(SelectedSumBase):
    """The pipelined chunked variant of the selected-sum protocol.

    Its :meth:`run` is the pipelined round for any ciphertext source:
    :class:`~repro.spfe.combined.CombinedSelectedSumProtocol` runs it
    with pooled ciphertexts.
    """

    protocol_name = "batched"

    def __init__(self, context=None, batch_size: int = PAPER_BATCH_SIZE) -> None:
        super().__init__(context)
        if batch_size < 1:
            raise ParameterError("batch size must be positive")
        self.batch_size = batch_size

    def run(
        self,
        database: ServerDatabase,
        selection: Sequence[int],
        keypair: Optional[SchemeKeyPair] = None,
    ) -> SumRunResult:
        """Execute the pipelined protocol (see the class docstring)."""
        ctx = self.ctx
        scheme = ctx.scheme
        m = self.validate_inputs(database, selection)
        keypair, keygen_s = self.setup_keys(database, selection, keypair)
        public = keypair.public
        prepared, offline_s = self.prepare_client(database, public)
        rnd = self.open_round(keypair)
        comm_s = rnd.key_arrival  # pk transfer time (sender started at 0)

        client_s = 0.0
        server_s = 0.0
        aggregate = scheme.identity(public)

        # The pipeline: produce chunk -> ship chunk -> fold chunk.
        for offset, values in database.chunks(self.batch_size):
            weights = selection[offset : offset + len(values)]
            chunk_cts, chunk_s = self.client_ciphertexts(prepared, public, weights)
            rnd.client.advance(chunk_s)
            client_s += chunk_s

            message = self.vector_message(MSG_ENC_INDEX, chunk_cts, public, CLIENT)
            arrival = rnd.channel.client_send(message, rnd.client.now)
            # the link's busy time for this chunk (sends overlap the pipeline)
            comm_s += ctx.link.seconds_per_message(message.wire_bytes)

            rnd.server.wait_until(arrival)
            received = rnd.channel.server_recv()[0].payload
            with ctx.compute(SERVER, Op.WEIGHTED_STEP, len(values)) as srv_block:
                aggregate = scheme.weighted_product(
                    public, received, values, initial=aggregate
                )
            rnd.server.advance(srv_block.seconds)
            server_s += srv_block.seconds

        value, comm_down_s, decrypt_s = self.reply_and_decrypt(rnd, aggregate)
        comm_s += comm_down_s

        breakdown = TimingBreakdown(
            client_encrypt_s=client_s,
            server_compute_s=server_s,
            communication_s=comm_s,
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
                "batch_size": self.batch_size,
                **self.client_metadata(database, prepared),
                "channel": rnd.channel,
            },
        )
