"""Multiple distributed databases — the extension the paper points at.

§1 of the paper: "This protocol, as well as some of the others of
Canetti et al. [5], can easily be extended to work for multiple
distributed databases."  This module is that extension: the data is
horizontally partitioned across k independent servers, and the client
computes one sum across all of them.

The client encrypts its index vector once (under its own key) and sends
each server the slice covering that server's partition.  Each server
computes its partial product ``E(P_j)``; because all partials are
encrypted under the *same* client key, the client simply multiplies the
k replies — homomorphically adding the partials — and decrypts once.

Two privacy postures for the partials:

* ``hide_partials=False`` (default): the client may decrypt each
  server's reply individually, learning per-server subtotals.  Each
  server's own guarantee ("the client learns only the agreed aggregate
  of *my* data") still holds — this is the natural setting when each
  server is an independent data owner.
* ``hide_partials=True``: the servers jointly insist the client learn
  only the *global* sum.  Server 0 acts as coordinator and distributes
  blinding values R_1..R_k with sum 0 (mod B) over server-to-server
  channels (the §3.5 multi-client protocol's statistical blinding,
  :mod:`repro.spfe.blinding`; see DESIGN.md §3 substitution 6); each server
  adds E(R_j) before replying, so individual replies decrypt to noise
  while their homomorphic sum is exact.

Timing model: the k client→server transfers and the k server passes
proceed in parallel (independent machines); the client's encryption is
the sequential prefix, as in the plain protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.scheme import SchemeKeyPair
from repro.crypto.serialization import FRAME_HEADER_BYTES
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError, ProtocolError
from repro.spfe.base import SelectedSumBase
from repro.spfe.blinding import DEFAULT_SIGMA, blinding_modulus, blinding_shares
from repro.spfe.context import CLIENT, SERVER, ExecutionContext
from repro.spfe.result import SumRunResult
from repro.timing.clock import VirtualClock
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["DistributedSelectedSumProtocol"]


class DistributedSelectedSumProtocol(SelectedSumBase):
    """One private sum over k horizontally partitioned databases."""

    protocol_name = "multidatabase"

    def __init__(
        self,
        context: Optional[ExecutionContext] = None,
        hide_partials: bool = False,
        sigma: int = DEFAULT_SIGMA,
    ) -> None:
        super().__init__(context)
        if sigma < 1:
            raise ParameterError("sigma must be positive")
        self.hide_partials = hide_partials
        self.sigma = sigma

    def run_distributed(
        self,
        databases: Sequence[ServerDatabase],
        selection: Sequence[int],
        keypair: Optional[SchemeKeyPair] = None,
    ) -> SumRunResult:
        """Compute the selected sum over the concatenation of ``databases``.

        Args:
            databases: one partition per server (at least 2).
            selection: weights over the concatenated index space.
            keypair: optional key reuse, as in the single-server protocols.
        """
        ctx = self.ctx
        scheme = ctx.scheme
        if len(databases) < 2:
            raise ParameterError(
                "distributed protocol needs at least 2 servers; "
                "use SelectedSumProtocol for one"
            )
        value_bits = {db.value_bits for db in databases}
        if len(value_bits) != 1:
            raise ProtocolError("partitions must share a value width")
        total_n = sum(len(db) for db in databases)
        if len(selection) != total_n:
            raise ParameterError(
                "selection length %d != total database size %d"
                % (len(selection), total_n)
            )
        combined = ServerDatabase(
            [v for db in databases for v in db.values],
            value_bits=value_bits.pop(),
        )
        m = self.validate_inputs(combined, selection)

        keypair, keygen_s = self.setup_keys(combined, selection, keypair)
        public = keypair.public

        blind_modulus = blinding_modulus(combined, self.sigma)
        blinds = (
            blinding_shares(blind_modulus, len(databases), ctx.rng)
            if self.hide_partials
            else None
        )
        if blinds is not None:
            worst = sum(selection) * (2**combined.value_bits - 1) + len(
                databases
            ) * blind_modulus
            if worst >= scheme.plaintext_modulus(public):
                raise ProtocolError(
                    "blinded distributed sum can wrap the plaintext space"
                )

        # Client encrypts the whole vector once.
        client_clock = VirtualClock()
        ciphertexts, encrypt_s = self.encrypt(public, selection)
        client_clock.advance(encrypt_s)

        # Coordinator blinding distribution: server 0 sends each peer its
        # share over server-to-server links (same medium), off the
        # client's channels.  Accounted as communication time + bytes.
        blind_comm_s = 0.0
        blind_bytes = 0
        if blinds is not None:
            share_bytes = (
                bytes_for_bits(blind_modulus.bit_length()) + FRAME_HEADER_BYTES
            )
            for _ in range(1, len(databases)):
                blind_comm_s += ctx.link.seconds_per_message(share_bytes)
                blind_bytes += share_bytes
            blind_comm_s += ctx.link.latency_s

        # Fan out every slice first (the k uplinks run in parallel; the
        # client's sends are free once the ciphertexts exist), then let
        # each server compute, then collect all replies.  The client's
        # clock advances to the *latest* reply arrival, so the makespan
        # reflects genuinely parallel servers.
        server_s = comm_s = 0.0
        rounds = []
        reply_arrivals = []
        offset = 0
        for j, database in enumerate(databases):
            rnd = self.open_round(keypair, client=client_clock)
            rounds.append(rnd)
            received, comm_up_s = self.upload(
                rnd, ciphertexts[offset : offset + len(database)]
            )
            comm_s += comm_up_s

            with ctx.compute(SERVER, Op.WEIGHTED_STEP, len(database)) as srv_block:
                partial = scheme.weighted_product(public, received, database.values)
            step_s = srv_block.seconds
            if blinds is not None:
                with ctx.compute(SERVER, Op.ENCRYPT, 1) as blind_enc:
                    enc_blind = scheme.encrypt(public, blinds[j], ctx.rng)
                with ctx.compute(SERVER, Op.CIPHER_ADD, 1) as blind_add:
                    partial = scheme.ciphertext_add(public, partial, enc_blind)
                step_s += blind_enc.seconds + blind_add.seconds
            rnd.server.advance(step_s)
            server_s += step_s

            reply_started = rnd.server.now
            arrival = self.reply(rnd, partial)
            comm_s += arrival - reply_started
            reply_arrivals.append(arrival)
            offset += len(database)

        client_clock.wait_until(max(reply_arrivals))
        replies = [rnd.channel.client_recv()[0].payload for rnd in rounds]

        # Client combines the k encrypted partials and decrypts once.
        with ctx.compute(CLIENT, Op.CIPHER_ADD, len(replies) - 1) as add_block:
            aggregate = replies[0]
            for reply in replies[1:]:
                aggregate = scheme.ciphertext_add(public, aggregate, reply)
        client_clock.advance(add_block.seconds)

        # every round runs on the one client clock under the one key pair
        raw_value, decrypt_s = self.decrypt(rounds[0], aggregate)

        if blinds is not None:
            # Sum of blinds ≡ 0 (mod B); the raw value carries the exact
            # integer sum of (partials + blinds), so reduce mod B.
            value = raw_value % blind_modulus
        else:
            value = raw_value

        channels = [rnd.channel for rnd in rounds]
        breakdown = TimingBreakdown(
            client_encrypt_s=encrypt_s,
            server_compute_s=server_s,
            communication_s=comm_s + blind_comm_s,
            client_decrypt_s=decrypt_s,
            combine_s=add_block.seconds,
        )
        return self.build_result(
            value=value,
            database=combined,
            m=m,
            breakdown=breakdown,
            makespan_s=client_clock.now,
            channels=channels,
            metadata={
                "keygen_s": keygen_s,
                "num_servers": len(databases),
                "hide_partials": self.hide_partials,
                "blind_coordination_bytes": blind_bytes if blinds is not None else 0,
                "partition_sizes": [len(db) for db in databases],
                "channels": channels,
            },
        )

    def run(self, database: ServerDatabase, selection: Sequence[int]) -> SumRunResult:
        """Not supported directly; use :meth:`run_distributed`."""
        raise ProtocolError(
            "use run_distributed(databases, selection) for the multi-server protocol"
        )
