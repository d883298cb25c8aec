"""Run-result records for the SPFE protocols.

Every protocol run returns a :class:`SumRunResult`: the computed value,
the verification hook, the component timing breakdown the paper's
figures plot, the pipelined makespan where applicable, and byte/message
accounting from the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.timing.report import TimingBreakdown, seconds_to_minutes

__all__ = ["SumRunResult"]


@dataclass
class SumRunResult:
    """Outcome of one private-sum protocol run.

    Attributes:
        value: the decrypted sum the client obtained.
        n: database size.
        m: number of selected elements (or non-zero weights).
        breakdown: per-component busy times (the paper's figure series).
        makespan_s: end-to-end online runtime.  Equal to the sum of
            online components for sequential protocols; smaller for
            pipelined ones (that difference *is* the §3.2 optimization).
        bytes_up / bytes_down: wire bytes client->server / server->client.
        messages: total message count.
        scheme: scheme name ("paillier", "simulated-paillier", ...).
        link: link-model name ("cluster-gigabit", "modem-56k", ...).
        protocol: protocol identifier ("plain", "batched", ...).
        metadata: free-form extras (batch size, k, keygen time, ...).
    """

    value: int
    n: int
    m: int
    breakdown: TimingBreakdown
    makespan_s: float
    bytes_up: int
    bytes_down: int
    messages: int
    scheme: str
    link: str
    protocol: str
    metadata: Dict[str, Any] = field(default_factory=dict)

    def verify(self, expected: int) -> "SumRunResult":
        """Assert correctness against a ground-truth value (returns self)."""
        if self.value != expected:
            raise AssertionError(
                "protocol %r returned %d, expected %d"
                % (self.protocol, self.value, expected)
            )
        return self

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    def online_minutes(self) -> float:
        """The paper's headline unit for overall runtimes."""
        return seconds_to_minutes(self.makespan_s)

    def component_minutes(self) -> Dict[str, float]:
        """Component view in minutes (Figures 2, 3, 5, 6)."""
        return self.breakdown.as_minutes()

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            "%s: n=%d m=%d sum=%d online=%.2f min "
            "(enc=%.2f srv=%.2f comm=%.2f dec=%.4f) bytes=%d"
            % (
                self.protocol,
                self.n,
                self.m,
                self.value,
                self.online_minutes(),
                seconds_to_minutes(self.breakdown.client_encrypt_s),
                seconds_to_minutes(self.breakdown.server_compute_s),
                seconds_to_minutes(self.breakdown.communication_s),
                seconds_to_minutes(self.breakdown.client_decrypt_s),
                self.total_bytes,
            )
        )
