"""Clocks and pipeline scheduling for protocol timing.

Two ways a protocol run gets its durations:

* **Modelled** (the default for paper-scale experiments): a
  :class:`VirtualClock` advances by cost-model charges; nothing waits in
  real time.
* **Measured** (live runs of the real cryptosystem): each block of
  party work is timed with ``time.perf_counter`` by
  :class:`~repro.spfe.context.ComputeBlock`, and the clock advances by
  the measured seconds.

:class:`PipelineSchedule` implements the timing recurrence of the
paper's §3.2 batching optimization: three resources (client CPU, link,
server CPU) process a stream of batches, each batch flowing through all
three in order, each resource handling one batch at a time.  The overall
makespan is what Figure 4 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import ParameterError

__all__ = ["VirtualClock", "PipelineSchedule"]


class VirtualClock:
    """A per-party virtual clock advanced by explicit charges."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance by ``seconds`` (>= 0) and return the new time."""
        if seconds < 0:
            raise ParameterError("cannot advance a clock by negative time")
        self._now += seconds
        return self._now

    def wait_until(self, t: float) -> float:
        """Advance to ``t`` if it is in the future (blocking receive)."""
        if t > self._now:
            self._now = t
        return self._now


@dataclass
class PipelineSchedule:
    """Makespan of a three-stage pipeline over a stream of batches.

    Stage semantics (paper §3.2):

    1. client produces batch *i* (encrypt, or pool-fetch);
    2. the link carries batch *i*;
    3. the server folds batch *i* into its partial product.

    Each stage is a serial resource.  With per-batch stage durations
    ``a_i``, ``b_i``, ``c_i`` the completion times follow the classic
    flow-shop recurrence::

        A_i = A_{i-1} + a_i
        B_i = max(A_i, B_{i-1}) + b_i
        C_i = max(B_i, C_{i-1}) + c_i

    and the makespan is ``C_last``.  When one stage dominates, the
    makespan approaches that stage's total plus the fill/drain time of
    the others — which is why batching buys ~10 % in Figure 4 (encryption
    dominates) and ~94 % combined with preprocessing in Figure 7 (server
    computation dominates, everything else overlaps it).
    """

    client_stage: Sequence[float]
    link_stage: Sequence[float]
    server_stage: Sequence[float]

    def __post_init__(self) -> None:
        lengths = {
            len(self.client_stage),
            len(self.link_stage),
            len(self.server_stage),
        }
        if len(lengths) != 1:
            raise ParameterError("pipeline stages must have equal batch counts")
        for stage in (self.client_stage, self.link_stage, self.server_stage):
            if any(d < 0 for d in stage):
                raise ParameterError("stage durations must be non-negative")

    def completion_times(self) -> List[float]:
        """Completion time of each batch at the last stage."""
        a_done = 0.0
        b_done = 0.0
        c_done = 0.0
        out: List[float] = []
        for a, b, c in zip(self.client_stage, self.link_stage, self.server_stage):
            a_done += a
            b_done = max(a_done, b_done) + b
            c_done = max(b_done, c_done) + c
            out.append(c_done)
        return out

    def makespan(self) -> float:
        """End-to-end time for the whole stream (0.0 for no batches)."""
        times = self.completion_times()
        return times[-1] if times else 0.0

    def stage_totals(self) -> List[float]:
        """Total busy time per stage — the *component* times of Figure 2."""
        return [
            sum(self.client_stage),
            sum(self.link_stage),
            sum(self.server_stage),
        ]
