"""Reproducible workload generation for experiments.

The paper's databases are synthetic: n uniform 32-bit numbers, with n
swept from 10,000 to 100,000, and a client selection of m indices.
:class:`WorkloadGenerator` regenerates those — deterministically, from a
seed — plus the selection *patterns* the motivating applications imply
(random cohort, contiguous range, clustered hot-spots), so experiments
and property tests can exercise selection shapes beyond uniform.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.rng import DeterministicRandom, RandomSource
from repro.datastore.database import ServerDatabase, VALUE_BITS
from repro.exceptions import ParameterError

__all__ = ["WorkloadGenerator", "PAPER_DATABASE_SIZES", "indices_to_bits"]

#: The x-axis of every figure in the paper: 10k..100k elements.
PAPER_DATABASE_SIZES = tuple(range(10_000, 100_001, 10_000))


def indices_to_bits(n: int, selected: Sequence[int]) -> List[int]:
    """Convert a set of selected positions into the paper's 0/1 vector."""
    if len(set(selected)) != len(selected):
        raise ParameterError("selected indices contain duplicates")
    bits = [0] * n
    for i in selected:
        if not 0 <= i < n:
            raise ParameterError("selected index %d outside [0, %d)" % (i, n))
        bits[i] = 1
    return bits


class WorkloadGenerator:
    """Deterministic generator of databases and selection vectors.

    Every method is a pure function of ``(seed, arguments)``, so a bench
    rerun regenerates byte-identical workloads.
    """

    def __init__(self, seed: str = "paper-workload") -> None:
        self.seed = seed

    def _rng(self, *scope: object) -> RandomSource:
        return DeterministicRandom(
            # a workload seed is a public benchmark label ("paper-workload"),
            # not key material; deriving scoped DRBG seeds from it is its job
            "%s/%s" % (self.seed, "/".join(str(s) for s in scope))  # seclint: disable=SEC001 -- workload seeds are public benchmark labels
        )

    # -- databases --------------------------------------------------------

    def database(self, n: int, value_bits: int = VALUE_BITS) -> ServerDatabase:
        """A database of ``n`` uniform ``value_bits``-bit values."""
        if n < 1:
            raise ParameterError("database size must be positive")
        rng = self._rng("db", n, value_bits)
        return ServerDatabase(
            [rng.randbits(value_bits) for _ in range(n)], value_bits=value_bits
        )

    # -- selections --------------------------------------------------------

    def random_selection(self, n: int, m: int) -> List[int]:
        """The paper's workload: a uniform 0/1 vector with m ones."""
        self._check_m(n, m)
        rng = self._rng("sel-random", n, m)
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.randbelow(n))
        return indices_to_bits(n, sorted(chosen))

    def range_selection(self, n: int, m: int) -> List[int]:
        """A contiguous range of m indices at a random offset.

        Models range predicates ("patients aged 40-49") — the selection
        shape behind means/variances over cohorts.
        """
        self._check_m(n, m)
        rng = self._rng("sel-range", n, m)
        start = rng.randbelow(n - m + 1) if m < n else 0
        return indices_to_bits(n, list(range(start, start + m)))

    def clustered_selection(self, n: int, m: int, clusters: int = 4) -> List[int]:
        """m indices grouped into a few hot-spots (skewed access)."""
        self._check_m(n, m)
        if clusters < 1:
            raise ParameterError("cluster count must be positive")
        clusters = min(clusters, m) if m else clusters
        rng = self._rng("sel-clustered", n, m, clusters)
        chosen: set = set()
        per_cluster = max(1, m // clusters)
        while len(chosen) < m:
            center = rng.randbelow(n)
            for offset in range(per_cluster * 3):
                if len(chosen) >= m:
                    break
                candidate = (center + offset) % n
                chosen.add(candidate)
        return indices_to_bits(n, sorted(list(chosen)[:m]))

    def weights(self, n: int, max_weight: int = 100) -> List[int]:
        """Integer weights for weighted-sum / weighted-average protocols.

        The paper (§2) notes "integer weights in some larger range could
        be used to produce a weighted sum".
        """
        if max_weight < 1:
            raise ParameterError("max weight must be positive")
        rng = self._rng("weights", n, max_weight)
        return [rng.randbelow(max_weight + 1) for _ in range(n)]

    @staticmethod
    def _check_m(n: int, m: int) -> None:
        if n < 1:
            raise ParameterError("database size must be positive")
        if not 0 <= m <= n:
            raise ParameterError("selection size %d outside [0, %d]" % (m, n))
