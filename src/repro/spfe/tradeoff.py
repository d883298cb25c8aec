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
from repro.spfe.base import SelectedSumBase
from repro.spfe.context import CLIENT, SERVER
from repro.spfe.result import SumRunResult
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
        m = self.validate_inputs(database, selection)
        if any(w not in (0, 1) for w in selection):
            raise ParameterError("partial-privacy protocol needs a 0/1 selection")
        if m == 0:
            raise ParameterError("empty selection")

        keypair, keygen_s = self.setup_keys(database, selection)
        public = keypair.public

        superset = self.build_superset(len(database), selection)
        s = len(superset)

        rnd = self.open_round(keypair)

        # The superset travels in the clear — this is the revealed part.
        superset_msg = Message(
            "candidate-set",
            tuple(superset),
            s * _INDEX_BYTES + FRAME_HEADER_BYTES,
            CLIENT,
        )
        arrival = rnd.channel.client_send(superset_msg, rnd.client.now)
        comm_s = arrival - rnd.client.now + rnd.key_arrival
        rnd.server.wait_until(arrival)
        rnd.channel.server_recv()

        # Private protocol over the s candidates only.
        sub_selection = [selection[i] for i in superset]
        ciphertexts, encrypt_s = self.encrypt(public, sub_selection)
        rnd.client.advance(encrypt_s)
        received, comm_up_s = self.upload(rnd, ciphertexts)
        comm_s += comm_up_s

        sub_values = [database[i] for i in superset]
        with ctx.compute(SERVER, Op.WEIGHTED_STEP, s) as srv_block:
            aggregate = ctx.scheme.weighted_product(public, received, sub_values)
        rnd.server.advance(srv_block.seconds)

        value, comm_down_s, decrypt_s = self.reply_and_decrypt(rnd, aggregate)
        comm_s += comm_down_s

        breakdown = TimingBreakdown(
            client_encrypt_s=encrypt_s,
            server_compute_s=srv_block.seconds,
            communication_s=comm_s,
            client_decrypt_s=decrypt_s,
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
                "superset_size": s,
                "anonymity_ratio": m / s,
                "candidate_fraction": s / len(database),
                "leaks": ["candidate-superset"],
                "channel": rnd.channel,
            },
        )
