"""Timing breakdowns — the components every figure of the paper plots.

Figures 2, 3, 5, and 6 plot four series against database size:
client encryption time, server computation time, communication time, and
client decryption time.  :class:`TimingBreakdown` is that record, plus
the offline precomputation time (§3.3 makes the offline/online split the
whole point) and the multi-client combining time (§3.5's phase two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["TimingBreakdown", "seconds_to_minutes"]


def seconds_to_minutes(seconds: float) -> float:
    """The paper reports minutes; so do our tables."""
    return seconds / 60.0


@dataclass
class TimingBreakdown:
    """Component times (seconds) of one protocol run.

    ``total_sequential`` is the sum of online components — the runtime of
    the unoptimized protocol, whose phases do not overlap.  Pipelined
    protocols additionally report a measured/modelled ``makespan`` on
    their run result; the components here remain the per-resource busy
    times either way.
    """

    client_encrypt_s: float = 0.0
    server_compute_s: float = 0.0
    communication_s: float = 0.0
    client_decrypt_s: float = 0.0
    offline_precompute_s: float = 0.0
    combine_s: float = 0.0

    def total_online_s(self) -> float:
        """Online runtime, excluding offline precomputation."""
        return (
            self.client_encrypt_s
            + self.server_compute_s
            + self.communication_s
            + self.client_decrypt_s
            + self.combine_s
        )

    def total_s(self) -> float:
        """Everything, including offline work."""
        return self.total_online_s() + self.offline_precompute_s

    def as_minutes(self) -> Dict[str, float]:
        """The figure-ready view: component -> minutes."""
        return {
            "client_encrypt": seconds_to_minutes(self.client_encrypt_s),
            "server_compute": seconds_to_minutes(self.server_compute_s),
            "communication": seconds_to_minutes(self.communication_s),
            "client_decrypt": seconds_to_minutes(self.client_decrypt_s),
            "offline_precompute": seconds_to_minutes(self.offline_precompute_s),
            "combine": seconds_to_minutes(self.combine_s),
        }

    def add(self, other: "TimingBreakdown") -> "TimingBreakdown":
        """Component-wise sum (used to aggregate multi-client runs)."""
        return TimingBreakdown(
            client_encrypt_s=self.client_encrypt_s + other.client_encrypt_s,
            server_compute_s=self.server_compute_s + other.server_compute_s,
            communication_s=self.communication_s + other.communication_s,
            client_decrypt_s=self.client_decrypt_s + other.client_decrypt_s,
            offline_precompute_s=self.offline_precompute_s
            + other.offline_precompute_s,
            combine_s=self.combine_s + other.combine_s,
        )
