"""Combined optimizations: preprocessing + batching — paper §3.4.

"The batching of index vector optimization reduces the server's idle
time while preprocessing the vector of indices reduces the client's
on-line encryption time.  Combining these optimizations results in an
overall on-line runtime reduction of about 94%."

With the client's online work reduced to pool fetches and the chunks
pipelined, the makespan collapses to (roughly) the largest single
resource total — on the cluster that is the server's product pass, which
is why Figure 7 shows the combined runtime at a few percent of the
unoptimized one.
"""

from __future__ import annotations

from typing import Optional

from repro.spfe.batching import PAPER_BATCH_SIZE, BatchedSelectedSumProtocol
from repro.spfe.preprocessing import PooledClient

__all__ = ["CombinedSelectedSumProtocol"]


class CombinedSelectedSumProtocol(PooledClient, BatchedSelectedSumProtocol):
    """Preprocessed pool + chunked pipeline in one protocol: the
    pipelined round of
    :class:`~repro.spfe.batching.BatchedSelectedSumProtocol` over a
    :class:`~repro.spfe.preprocessing.PooledClient` ciphertext source.
    """

    protocol_name = "combined"

    def __init__(
        self,
        context=None,
        batch_size: int = PAPER_BATCH_SIZE,
        pool_zeros: Optional[int] = None,
        pool_ones: Optional[int] = None,
    ) -> None:
        super().__init__(context, batch_size)
        self.pool_zeros = pool_zeros
        self.pool_ones = pool_ones
