"""Closed-form cost estimation for the protocol family.

The event-driven engine *executes* a protocol to find its cost; this
module *predicts* the cost from the parameters alone — the planning
question a deployment asks ("how long will a query over 10 million rows
take on this link?") without materialising a workload.

The formulas mirror the engine's accounting exactly (same link model,
same per-op costs, same message framing), and the test suite asserts
estimator-vs-engine agreement across protocols, sizes, environments,
and key sizes — which doubles as a regression net for the engine's
timing logic: if either side drifts, the cross-check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.serialization import (
    FRAME_HEADER_BYTES,
    ciphertext_bytes,
    public_key_bytes,
)
from repro.exceptions import ParameterError
from repro.spfe.batching import PAPER_BATCH_SIZE
from repro.spfe.context import ExecutionContext
from repro.timing.clock import PipelineSchedule
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["CostEstimate", "ProtocolCostEstimator"]


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one protocol run."""

    protocol: str
    n: int
    breakdown: TimingBreakdown
    makespan_s: float
    bytes_up: int
    bytes_down: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    def online_minutes(self) -> float:
        """Predicted online runtime in the paper's unit (minutes)."""
        return self.makespan_s / 60.0


class ProtocolCostEstimator:
    """Predicts run costs for a given execution context.

    The context supplies the link model, hardware profiles, and key
    size; the estimator never touches a database or a scheme.
    """

    def __init__(self, context: Optional[ExecutionContext] = None) -> None:
        self.ctx = context if context is not None else ExecutionContext()

    # -- shared building blocks ----------------------------------------------

    def _ct_bytes(self) -> int:
        return ciphertext_bytes(self.ctx.key_bits)

    def _pk_message_bytes(self) -> int:
        return public_key_bytes(self.ctx.key_bits) + FRAME_HEADER_BYTES

    def _per_element_message_bytes(self) -> int:
        return self._ct_bytes() + FRAME_HEADER_BYTES

    def _chunk_message_bytes(self, chunk: int) -> int:
        return chunk * self._ct_bytes() + FRAME_HEADER_BYTES

    def _stream_seconds(self, message_bytes: int, messages: int) -> float:
        """A pipelined stream: per-message busy time + one latency."""
        link = self.ctx.link
        return messages * link.seconds_per_message(message_bytes) + link.latency_s

    def _cost(self, party: str, op: Op) -> float:
        return self.ctx.op_cost(party, op)

    # -- protocol estimates -----------------------------------------------------

    def plain(self, n: int) -> CostEstimate:
        """The unoptimized protocol (Figure 2/3 configuration)."""
        self._validate(n)
        encrypt = n * self._cost("client", Op.ENCRYPT)
        server = n * self._cost("server", Op.WEIGHTED_STEP)
        comm_up = self._stream_seconds(self._per_element_message_bytes(), n)
        comm_down = self._stream_seconds(self._per_element_message_bytes(), 1)
        decrypt = self._cost("client", Op.DECRYPT)
        breakdown = TimingBreakdown(
            client_encrypt_s=encrypt,
            server_compute_s=server,
            communication_s=comm_up + comm_down,
            client_decrypt_s=decrypt,
        )
        return CostEstimate(
            protocol="plain",
            n=n,
            breakdown=breakdown,
            makespan_s=encrypt + comm_up + server + comm_down + decrypt,
            bytes_up=self._pk_message_bytes()
            + n * self._per_element_message_bytes(),
            bytes_down=self._per_element_message_bytes(),
        )

    def preprocessed(self, n: int) -> CostEstimate:
        """§3.3: pool fetches online, 2n encryptions offline."""
        self._validate(n)
        fetch = n * self._cost("client", Op.POOL_FETCH)
        offline = 2 * n * self._cost("client", Op.ENCRYPT)
        server = n * self._cost("server", Op.WEIGHTED_STEP)
        comm_up = self._stream_seconds(self._per_element_message_bytes(), n)
        comm_down = self._stream_seconds(self._per_element_message_bytes(), 1)
        decrypt = self._cost("client", Op.DECRYPT)
        breakdown = TimingBreakdown(
            client_encrypt_s=fetch,
            server_compute_s=server,
            communication_s=comm_up + comm_down,
            client_decrypt_s=decrypt,
            offline_precompute_s=offline,
        )
        return CostEstimate(
            protocol="preprocessed",
            n=n,
            breakdown=breakdown,
            makespan_s=fetch + comm_up + server + comm_down + decrypt,
            bytes_up=self._pk_message_bytes()
            + n * self._per_element_message_bytes(),
            bytes_down=self._per_element_message_bytes(),
        )

    def batched(self, n: int, batch_size: int = PAPER_BATCH_SIZE) -> CostEstimate:
        """§3.2: the flow-shop pipeline over ceil(n / batch) chunks."""
        return self._pipelined(n, batch_size, Op.ENCRYPT, "batched", offline=0.0)

    def combined(self, n: int, batch_size: int = PAPER_BATCH_SIZE) -> CostEstimate:
        """§3.4: pipeline with pool fetches; 2n encryptions offline."""
        offline = 2 * n * self._cost("client", Op.ENCRYPT)
        return self._pipelined(
            n, batch_size, Op.POOL_FETCH, "combined", offline=offline
        )

    def _pipelined(
        self, n: int, batch_size: int, client_op: Op, name: str, offline: float
    ) -> CostEstimate:
        self._validate(n)
        if batch_size < 1:
            raise ParameterError("batch size must be positive")
        link = self.ctx.link
        sizes = [
            min(batch_size, n - start) for start in range(0, n, batch_size)
        ]
        client_cost = self._cost("client", client_op)
        server_cost = self._cost("server", Op.WEIGHTED_STEP)
        client_stage = [s * client_cost for s in sizes]
        link_stage = [
            link.seconds_per_message(self._chunk_message_bytes(s)) for s in sizes
        ]
        server_stage = [s * server_cost for s in sizes]
        schedule = PipelineSchedule(client_stage, link_stage, server_stage)

        decrypt = self._cost("client", Op.DECRYPT)
        result_stream = self._stream_seconds(self._per_element_message_bytes(), 1)
        # The engine's first chunk also waits one propagation latency.
        makespan = schedule.makespan() + link.latency_s + result_stream + decrypt

        comm = sum(link_stage) + result_stream + link.seconds_per_message(
            self._pk_message_bytes()
        )
        breakdown = TimingBreakdown(
            client_encrypt_s=sum(client_stage),
            server_compute_s=sum(server_stage),
            communication_s=comm,
            client_decrypt_s=decrypt,
            offline_precompute_s=offline,
        )
        bytes_up = self._pk_message_bytes() + sum(
            self._chunk_message_bytes(s) for s in sizes
        )
        return CostEstimate(
            protocol=name,
            n=n,
            breakdown=breakdown,
            makespan_s=makespan,
            bytes_up=bytes_up,
            bytes_down=self._per_element_message_bytes(),
        )

    def multiclient(
        self,
        n: int,
        num_clients: int,
        value_bits: int = 32,
        sigma: int = 40,
    ) -> CostEstimate:
        """§3.5: k parallel clients; phase 1 dominated by the largest slice.

        ``value_bits`` and ``sigma`` size the blinding modulus (and thus
        the tiny ring messages of the combining phase), mirroring
        :class:`~repro.spfe.multiclient.MultiClientSelectedSumProtocol`.
        """
        self._validate(n)
        if num_clients < 2:
            raise ParameterError("multi-client estimate needs k >= 2")
        base, extra = divmod(n, num_clients)
        largest = base + (1 if extra else 0)
        link = self.ctx.link

        encrypt_each = largest * self._cost("client", Op.ENCRYPT)
        server_each = largest * self._cost("server", Op.WEIGHTED_STEP) + self._cost(
            "server", Op.ENCRYPT
        ) + self._cost("server", Op.CIPHER_ADD)
        comm_up = self._stream_seconds(self._per_element_message_bytes(), largest)
        comm_down = self._stream_seconds(self._per_element_message_bytes(), 1)
        decrypt = self._cost("client", Op.DECRYPT)
        phase1 = encrypt_each + comm_up + server_each + comm_down + decrypt

        # Ring combination: k-1 forwarding hops (own channel each, one
        # latency per hop) then k-1 broadcast messages down one channel.
        blind_bits = value_bits + max(1, n.bit_length()) + sigma
        ring_bytes = (blind_bits + 7) // 8 + FRAME_HEADER_BYTES
        hop = (
            link.seconds_per_message(ring_bytes)
            + link.latency_s
            + self._cost("client", Op.PLAIN_ADD)
        )
        broadcast = (num_clients - 1) * link.seconds_per_message(
            ring_bytes
        ) + link.latency_s
        combine = (num_clients - 1) * hop + broadcast
        makespan = phase1 + combine

        ring_comm = (2 * (num_clients - 1)) * link.seconds_per_message(
            ring_bytes
        ) + 2 * link.latency_s
        breakdown = TimingBreakdown(
            client_encrypt_s=n * self._cost("client", Op.ENCRYPT),
            server_compute_s=n * self._cost("server", Op.WEIGHTED_STEP)
            + num_clients
            * (
                self._cost("server", Op.ENCRYPT)
                + self._cost("server", Op.CIPHER_ADD)
            ),
            communication_s=num_clients * (comm_up + comm_down) + ring_comm,
            client_decrypt_s=num_clients * decrypt,
            combine_s=combine,
        )
        # Slices differ by at most one element; total uplink is exact.
        total_up = num_clients * self._pk_message_bytes() + n * (
            self._per_element_message_bytes()
        ) + 2 * (num_clients - 1) * ring_bytes
        return CostEstimate(
            protocol="multiclient",
            n=n,
            breakdown=breakdown,
            makespan_s=makespan,
            bytes_up=total_up,
            bytes_down=num_clients * self._per_element_message_bytes(),
        )

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _validate(n: int) -> None:
        if n < 1:
            raise ParameterError("database size must be positive")
