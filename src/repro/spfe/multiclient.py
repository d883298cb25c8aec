"""Multiple clients in parallel with blinded partial sums — paper §3.5.

k cooperating clients each hold the index vector for 1/k of the
database and run the selected-sum protocol on their share in parallel,
cutting the dominant client-encryption time by ~k.  The challenge the
paper identifies: the partial sums P_1..P_k must stay hidden (learning
them would violate database privacy), so the server *blinds* each one —
it homomorphically adds a random R_i to client i's encrypted partial
sum, choosing the R_i to cancel: sum_i R_i ≡ 0 (mod M).

Phase two combines: C_1 sends its blinded sum to C_2; each C_i adds its
own and forwards; C_k obtains the unblinded total (the R_i cancel) and
broadcasts it (Figure 8).

**Blinding modulus (implementation note).**  The paper's description
assumes a common plaintext modulus M, but each client generates its own
key (with its own M_i).  We therefore blind over a server-published
*combining modulus* ``B = 2**(value_bits + ceil(log2 n) + sigma)``:
R_1..R_{k-1} are uniform mod B, R_k makes the sum 0 mod B
(:mod:`repro.spfe.blinding`, shared with the multi-database
extension).  Because ``B`` (with sigma = 40 statistical-hiding bits of
headroom) is far below every client's M_i, the homomorphic addition
P_i + R_i never wraps M_i, decryption recovers the exact integer, and
combining mod B unblinds exactly.  Each partial sum is statistically
hidden (to within 2^-sigma) from its own client.  DESIGN.md §3
records this substitution.

**Server concurrency (modelling note).**  The paper's ~2.99x speedup at
k = 3 implies the server overlaps its per-client work (its experiments
ran on an HPC cluster); we model one server worker per client.  The
paper measured this optimization only in Java, hence Figure 9's Java
(~5x) profile.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.ntheory import bytes_for_bits
from repro.crypto.serialization import FRAME_HEADER_BYTES
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError, ProtocolError
from repro.net.wire import Message
from repro.spfe.base import SelectedSumBase
from repro.spfe.blinding import DEFAULT_SIGMA, blinding_modulus, blinding_shares
from repro.spfe.context import SERVER
from repro.spfe.result import SumRunResult
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["MultiClientSelectedSumProtocol", "PAPER_CLIENT_COUNT"]

PAPER_CLIENT_COUNT = 3  # Figure 9 measures k = 3

MSG_BLINDED_PARTIAL = "blinded-partial"
MSG_RING_FORWARD = "ring-forward"
MSG_BROADCAST_TOTAL = "broadcast-total"


class MultiClientSelectedSumProtocol(SelectedSumBase):
    """k-client parallel selected sum with server-side blinding."""

    protocol_name = "multiclient"

    def __init__(
        self,
        context=None,
        num_clients: int = PAPER_CLIENT_COUNT,
        sigma: int = DEFAULT_SIGMA,
    ) -> None:
        super().__init__(context)
        if num_clients < 2:
            raise ParameterError("multi-client protocol needs at least 2 clients")
        if sigma < 1:
            raise ParameterError("sigma must be positive")
        self.num_clients = num_clients
        self.sigma = sigma

    # -- helpers ---------------------------------------------------------------

    def _slices(self, n: int) -> List[range]:
        """Split [0, n) into num_clients near-equal contiguous slices."""
        k = self.num_clients
        base, extra = divmod(n, k)
        slices = []
        start = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            slices.append(range(start, start + size))
            start += size
        return slices

    # -- the protocol ------------------------------------------------------------

    def run(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> SumRunResult:
        """Execute both phases of the k-client protocol (see class docstring)."""
        ctx = self.ctx
        scheme = ctx.scheme
        m = self.validate_inputs(database, selection)
        n = len(database)
        if self.num_clients > n:
            raise ProtocolError(
                "more clients (%d) than database elements (%d)"
                % (self.num_clients, n)
            )

        blind_modulus = blinding_modulus(database, self.sigma)
        slices = self._slices(n)
        k = self.num_clients

        # The server draws blinding values summing to 0 mod B.
        blinds = blinding_shares(blind_modulus, k, ctx.rng)

        # ---- phase 1: k independent client/server interactions -------------
        # one server worker per client, so each round has its own clocks
        rounds = []
        blinded_values: List[int] = []
        encrypt_s = server_s = comm_s = decrypt_s = 0.0
        keygen_total = 0.0

        for i, sl in enumerate(slices):
            party = "client-%d" % i
            keypair, keygen_s = ctx.generate_keypair(party)
            keygen_total += keygen_s
            public = keypair.public

            # The blinded partial sum must fit the client's plaintext space.
            worst = sum(selection) * (2**database.value_bits - 1) + blind_modulus
            if worst >= scheme.plaintext_modulus(public):
                raise ProtocolError(
                    "blinded sum can wrap client %d's plaintext modulus; "
                    "use larger keys or smaller sigma" % i
                )

            rnd = self.open_round(keypair)
            rounds.append(rnd)

            weights = [selection[j] for j in sl]
            values = [database[j] for j in sl]

            cts, slice_encrypt_s = self.encrypt(public, weights, party)
            rnd.client.advance(slice_encrypt_s)
            encrypt_s += slice_encrypt_s

            received, comm_up_s = self.upload(rnd, cts, sender=party)
            comm_s += comm_up_s

            # Server worker i: partial product, then blinding.
            with ctx.compute(SERVER, Op.WEIGHTED_STEP, len(values)) as srv_block:
                partial = scheme.weighted_product(public, received, values)
            with ctx.compute(SERVER, Op.ENCRYPT, 1) as blind_enc:
                enc_blind = scheme.encrypt(public, blinds[i], ctx.rng)
            with ctx.compute(SERVER, Op.CIPHER_ADD, 1) as blind_add:
                blinded = scheme.ciphertext_add(public, partial, enc_blind)
            srv_step = srv_block.seconds + blind_enc.seconds + blind_add.seconds
            rnd.server.advance(srv_step)
            server_s += srv_step

            value, comm_down_s, partial_decrypt_s = self.reply_and_decrypt(
                rnd, blinded, kind=MSG_BLINDED_PARTIAL, party=party
            )
            comm_s += comm_down_s
            blinded_values.append(value)
            decrypt_s += partial_decrypt_s

        channels = [rnd.channel for rnd in rounds]
        client_clocks = [rnd.client for rnd in rounds]
        phase1_end = max(clock.now for clock in client_clocks)

        # ---- phase 2: ring combination and broadcast -------------------------
        ring_bytes = bytes_for_bits(blind_modulus.bit_length()) + FRAME_HEADER_BYTES
        ring_channels = [ctx.new_channel() for _ in range(k)]  # i -> i+1, k-1 used
        combine_comm_s = 0.0

        running = blinded_values[0] % blind_modulus
        for i in range(1, k):
            msg = Message(MSG_RING_FORWARD, running, ring_bytes, "client-%d" % (i - 1))
            sent_at = client_clocks[i - 1].now
            arrival = ring_channels[i - 1].client_send(msg, sent_at)
            combine_comm_s += arrival - sent_at
            client_clocks[i].wait_until(arrival)
            ring_channels[i - 1].server_recv()
            with ctx.compute("client-%d" % i, Op.PLAIN_ADD, 1) as add_block:
                running = (running + blinded_values[i]) % blind_modulus
            client_clocks[i].advance(add_block.seconds)

        total = running  # blinding cancelled: sum R_i ≡ 0 (mod B)

        # C_k broadcasts the total to the other clients.
        broadcaster = client_clocks[k - 1]
        for i in range(k - 1):
            msg = Message(MSG_BROADCAST_TOTAL, total, ring_bytes, "client-%d" % (k - 1))
            sent_at = broadcaster.now
            arrival = ring_channels[k - 1].client_send(msg, sent_at)
            combine_comm_s += arrival - sent_at
            ring_channels[k - 1].server_recv()
            client_clocks[i].wait_until(arrival)

        makespan = max(clock.now for clock in client_clocks)
        combine_s = makespan - phase1_end

        breakdown = TimingBreakdown(
            client_encrypt_s=encrypt_s,
            server_compute_s=server_s,
            communication_s=comm_s + combine_comm_s,
            client_decrypt_s=decrypt_s,
            combine_s=combine_s,
        )
        return self.build_result(
            value=total,
            database=database,
            m=m,
            breakdown=breakdown,
            makespan_s=makespan,
            channels=channels + ring_channels,
            metadata={
                "num_clients": k,
                "blind_modulus_bits": blind_modulus.bit_length() - 1,  # B = 2^k
                "keygen_s": keygen_total,
                "phase1_s": phase1_end,
                "channels": channels,
                "ring_channels": ring_channels,
            },
        )
