"""Quantifiable privacy/performance tradeoff — the paper's future work.

§4: "we plan to investigate ... methods that give up some quantifiable
amount of privacy in order to achieve significant performance
improvements."  This module implements the natural such method for the
selected-sum protocol:

Instead of encrypting an index bit for *every* database element, the
client reveals (in the clear) a **superset** T of its true selection S —
padded with decoys — and runs the private protocol only over T.  Costs
scale with |T| = s instead of n; what is given up is exactly "the
selection is hidden within T" rather than "within the whole database".

The privacy loss is quantifiable, and we quantify it:

* **anonymity ratio** ``m / s`` — the server's posterior probability
  that a given member of T is truly selected (uniform decoys);
* **candidate-set shrinkage** ``s / n`` — how much of the database the
  server can rule out.

With ``s = n`` this degenerates to the fully private protocol; with
``s = m`` it degenerates to the non-private send-indices baseline.  The
tradeoff bench sweeps the full curve.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.crypto.serialization import FRAME_HEADER_BYTES
from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError
from repro.net.wire import Message
from repro.spfe.base import MSG_ENC_INDEX, MSG_RESULT, SelectedSumBase
from repro.spfe.context import CLIENT, SERVER
from repro.spfe.result import SumRunResult
from repro.timing.clock import VirtualClock
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["PartialPrivacySumProtocol"]

_INDEX_BYTES = 4


class PartialPrivacySumProtocol(SelectedSumBase):
    """Selected sum over a revealed decoy superset.

    Args:
        context: execution context.
        superset_factor: |T| / m — how many decoys per true index
            (>= 1.0; 1.0 means no privacy, n/m means full privacy).
    """

    protocol_name = "partial-privacy"

    def __init__(self, context=None, superset_factor: float = 4.0) -> None:
        super().__init__(context)
        if superset_factor < 1.0:
            raise ParameterError("superset factor must be >= 1")
        self.superset_factor = superset_factor

    def build_superset(
        self, n: int, selection: Sequence[int]
    ) -> List[int]:
        """The revealed candidate set: true indices plus uniform decoys."""
        true_indices = [i for i, w in enumerate(selection) if w]
        m = len(true_indices)
        target = min(n, max(m, int(round(m * self.superset_factor))))
        chosen: Set[int] = set(true_indices)
        while len(chosen) < target:
            chosen.add(self.ctx.rng.randbelow(n))
        return sorted(chosen)

    def run(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> SumRunResult:
        """Reveal the decoy superset, then run the private sum over it."""
        ctx = self.ctx
        scheme = ctx.scheme
        m = self.validate_inputs(database, selection)
        if any(w not in (0, 1) for w in selection):
            raise ParameterError("partial-privacy protocol needs a 0/1 selection")
        if m == 0:
            raise ParameterError("empty selection")

        keypair, keygen_s = ctx.generate_keypair(CLIENT)
        public, private = keypair.public, keypair.private
        self.check_capacity(database, selection, public)

        superset = self.build_superset(len(database), selection)
        s = len(superset)

        channel = ctx.new_channel()
        client_clock = VirtualClock()
        server_clock = VirtualClock()

        t_pk = channel.client_send(self.public_key_message(public), client_clock.now)
        server_clock.wait_until(t_pk)
        channel.server_recv()

        # The superset travels in the clear — this is the revealed part.
        superset_msg = Message(
            "candidate-set",
            tuple(superset),
            s * _INDEX_BYTES + FRAME_HEADER_BYTES,
            CLIENT,
        )
        arrival = channel.client_send(superset_msg, client_clock.now)
        comm_s = arrival - client_clock.now + t_pk
        server_clock.wait_until(arrival)
        channel.server_recv()

        # Private protocol over the s candidates only.
        sub_selection = [selection[i] for i in superset]
        with ctx.compute(CLIENT, Op.ENCRYPT, s) as enc_block:
            ciphertexts = scheme.encrypt_vector(public, sub_selection, ctx.rng)
        client_clock.advance(enc_block.seconds)

        send_started = client_clock.now
        last_arrival = send_started
        for ct in ciphertexts:
            msg = self.ciphertext_message(MSG_ENC_INDEX, ct, public, CLIENT)
            last_arrival = channel.client_send(msg, client_clock.now)
        comm_s += last_arrival - send_started
        server_clock.wait_until(last_arrival)
        received = [channel.server_recv()[0].payload for _ in ciphertexts]

        sub_values = [database[i] for i in superset]
        with ctx.compute(SERVER, Op.WEIGHTED_STEP, s) as srv_block:
            aggregate = scheme.weighted_product(public, received, sub_values)
        server_clock.advance(srv_block.seconds)

        result_msg = self.ciphertext_message(MSG_RESULT, aggregate, public, SERVER)
        reply_started = server_clock.now
        arrival = channel.server_send(result_msg, server_clock.now)
        comm_s += arrival - reply_started
        client_clock.wait_until(arrival)
        payload = channel.client_recv()[0].payload

        with ctx.compute(CLIENT, Op.DECRYPT, 1) as dec_block:
            value = scheme.decrypt(private, payload)
        client_clock.advance(dec_block.seconds)

        breakdown = TimingBreakdown(
            client_encrypt_s=enc_block.seconds,
            server_compute_s=srv_block.seconds,
            communication_s=comm_s,
            client_decrypt_s=dec_block.seconds,
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
                "superset_size": s,
                "anonymity_ratio": m / s,
                "candidate_fraction": s / len(database),
                "leaks": ["candidate-superset"],
                "channel": channel,
            },
        )
