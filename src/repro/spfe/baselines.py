"""Baseline protocols — the paper's §2 comparison points.

Two *trivial but non-private* solutions frame the problem:

* **send-indices**: the client ships its m indices in the clear; the
  server sums and replies.  Nearly free, but the server learns the
  client's entire selection (client privacy violated).
* **download-database**: the server ships the whole database; the client
  sums locally.  Client privacy is perfect, but the client learns every
  element (database privacy violated).

And one *private but generic* solution:

* **Yao garbled circuits** (Fairplay-style), wrapped from
  :mod:`repro.yao` — private in both directions but with a cost profile
  that is impractical at database scale (≥15 minutes at n = 100 on 2004
  hardware, per the paper's quote [16]).

Each baseline returns the same :class:`~repro.spfe.result.SumRunResult`
shape as the real protocols, with ``metadata["leaks"]`` stating exactly
what privacy it gives up — the tests assert these flags, and the benches
print them alongside the timings.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.serialization import FRAME_HEADER_BYTES
from repro.datastore.database import ServerDatabase
from repro.net.wire import Message
from repro.spfe.base import SelectedSumBase
from repro.spfe.context import CLIENT, SERVER
from repro.spfe.result import SumRunResult
from repro.timing.clock import VirtualClock
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = [
    "NonPrivateIndexProtocol",
    "DownloadDatabaseProtocol",
    "YaoBaselineProtocol",
]

_INDEX_BYTES = 4  # a 32-bit index on the wire
_SUM_BYTES = 8


class NonPrivateIndexProtocol(SelectedSumBase):
    """Client sends indices in the clear; leaks the selection."""

    protocol_name = "baseline-send-indices"

    def run(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> SumRunResult:
        """Send the indices in the clear; the server sums and replies."""
        ctx = self.ctx
        m = self.validate_inputs(database, selection)
        channel = ctx.new_channel()
        client_clock = VirtualClock()
        server_clock = VirtualClock()

        indices = [i for i, w in enumerate(selection) if w]
        request = Message(
            "plain-indices",
            tuple(indices),
            len(indices) * _INDEX_BYTES + FRAME_HEADER_BYTES,
            CLIENT,
        )
        sent = client_clock.now
        arrival = channel.client_send(request, sent)
        comm_s = arrival - sent
        server_clock.wait_until(arrival)
        payload = channel.server_recv()[0].payload

        with ctx.compute(SERVER, Op.PLAIN_ADD, len(payload)) as srv_block:
            total = sum(database[i] * selection[i] for i in payload)
        server_clock.advance(srv_block.seconds)

        reply = Message("plain-sum", total, _SUM_BYTES + FRAME_HEADER_BYTES, SERVER)
        reply_sent = server_clock.now
        arrival = channel.server_send(reply, reply_sent)
        comm_s += arrival - reply_sent
        client_clock.wait_until(arrival)
        value = channel.client_recv()[0].payload

        breakdown = TimingBreakdown(
            server_compute_s=srv_block.seconds, communication_s=comm_s
        )
        return self.build_result(
            value=value,
            database=database,
            m=m,
            breakdown=breakdown,
            makespan_s=client_clock.now,
            channels=[channel],
            metadata={"leaks": ["client-selection"], "channel": channel},
        )


class DownloadDatabaseProtocol(SelectedSumBase):
    """Server ships the whole database; leaks every element."""

    protocol_name = "baseline-download"

    def run(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> SumRunResult:
        """Fetch the whole database; the client sums locally."""
        ctx = self.ctx
        m = self.validate_inputs(database, selection)
        channel = ctx.new_channel()
        client_clock = VirtualClock()
        server_clock = VirtualClock()

        element_bytes = (database.value_bits + 7) // 8
        request = Message("fetch-all", None, FRAME_HEADER_BYTES, CLIENT)
        arrival = channel.client_send(request, client_clock.now)
        comm_s = arrival
        server_clock.wait_until(arrival)
        channel.server_recv()

        dump = Message(
            "database-dump",
            database.values,
            len(database) * element_bytes + FRAME_HEADER_BYTES,
            SERVER,
        )
        dump_sent = server_clock.now
        arrival = channel.server_send(dump, dump_sent)
        comm_s += arrival - dump_sent
        client_clock.wait_until(arrival)
        values = channel.client_recv()[0].payload

        with ctx.compute(CLIENT, Op.PLAIN_ADD, len(values)) as sum_block:
            value = sum(w * x for w, x in zip(selection, values))
        client_clock.advance(sum_block.seconds)

        breakdown = TimingBreakdown(communication_s=comm_s)
        return self.build_result(
            value=value,
            database=database,
            m=m,
            breakdown=breakdown,
            makespan_s=client_clock.now,
            channels=[channel],
            metadata={"leaks": ["entire-database"], "channel": channel},
        )


class YaoBaselineProtocol(SelectedSumBase):
    """The garbled-circuit comparator, adapted to the result shape.

    Runs the *real* garbled-circuit protocol (measured wall clock) and
    reports the modelled 2004-Fairplay runtime alongside, so benches can
    print both "our Python Yao, today" and "the paper's quoted Fairplay"
    for the same n.
    """

    protocol_name = "baseline-yao"

    def __init__(self, context=None, value_bits: Optional[int] = None) -> None:
        super().__init__(context)
        self.value_bits = value_bits

    def run(
        self, database: ServerDatabase, selection: Sequence[int]
    ) -> SumRunResult:
        """Run the real garbled-circuit protocol and adapt its result."""
        from repro.yao.protocol import YaoSelectedSum, fairplay_model_minutes

        m = self.validate_inputs(database, selection)
        bits = self.value_bits if self.value_bits is not None else database.value_bits
        runner = YaoSelectedSum(value_bits=bits, rng=self.ctx.rng)
        yao = runner.run(list(database.values), list(selection))

        comm_s = self.ctx.link.transfer_seconds(yao.total_bytes, messages=len(selection) + 2)
        breakdown = TimingBreakdown(
            client_encrypt_s=yao.ot_s,
            server_compute_s=yao.garble_s,
            communication_s=comm_s,
            client_decrypt_s=yao.evaluate_s,
        )
        return SumRunResult(
            value=yao.value,
            n=len(database),
            m=m,
            breakdown=breakdown,
            makespan_s=yao.total_s + comm_s,
            bytes_up=yao.ot_bytes,
            bytes_down=yao.garbled_bytes,
            messages=len(selection) + 2,
            scheme="yao-garbled-circuit",
            link=self.ctx.link.name,
            protocol=self.protocol_name,
            metadata={
                "leaks": [],
                "gate_count": yao.gate_count,
                "fairplay_model_minutes": fairplay_model_minutes(len(database)),
                "measured": True,
            },
        )
