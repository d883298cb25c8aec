"""repro — privacy-preserving statistics computation over remote databases.

A complete reproduction of Subramaniam, Wright & Yang, *Experimental
Analysis of Privacy-Preserving Statistics Computation* (Secure Data
Management workshop @ VLDB, 2004): the private selected-sum protocol
built on the Paillier cryptosystem, its practical optimizations
(batching, preprocessing, multi-client secret sharing), the statistics
layer it enables (means, variances, weighted averages), the generic-SMC
baseline (Yao garbled circuits over our own OT and circuit substrate),
and a deterministic performance model that regenerates every figure of
the paper's evaluation.

Quickstart::

    import repro

    db = repro.ServerDatabase([17, 4, 23, 8, 15])
    result = repro.private_selected_sum(db, [1, 0, 1, 0, 1])
    assert result.value == 17 + 23 + 15

See ``examples/quickstart.py`` for the tour, ``DESIGN.md`` for the
architecture, and ``EXPERIMENTS.md`` for paper-vs-measured numbers.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro._version import __version__

if TYPE_CHECKING:
    from repro.crypto.paillier import (
        EncryptedNumber,
        PaillierPrivateKey,
        PaillierPublicKey,
        PaillierScheme,
        RandomnessPool,
        generate_keypair,
    )
    from repro.crypto.simulated import SimulatedPaillier
    from repro.datastore.database import ServerDatabase
    from repro.datastore.workload import WorkloadGenerator
    from repro.net.link import LinkModel, links
    from repro.spfe.batching import BatchedSelectedSumProtocol
    from repro.spfe.combined import CombinedSelectedSumProtocol
    from repro.spfe.context import ExecutionContext
    from repro.spfe.multiclient import MultiClientSelectedSumProtocol
    from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
    from repro.spfe.result import SumRunResult
    from repro.spfe.selected_sum import SelectedSumProtocol, private_selected_sum
    from repro.spfe.statistics import PrivateStatisticsClient
    from repro.timing.costmodel import HardwareProfile, profiles

__all__ = [
    "BatchedSelectedSumProtocol",
    "CombinedSelectedSumProtocol",
    "EncryptedNumber",
    "ExecutionContext",
    "HardwareProfile",
    "LinkModel",
    "MultiClientSelectedSumProtocol",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "PaillierScheme",
    "PreprocessedSelectedSumProtocol",
    "PrivateStatisticsClient",
    "RandomnessPool",
    "SelectedSumProtocol",
    "ServerDatabase",
    "SimulatedPaillier",
    "SumRunResult",
    "WorkloadGenerator",
    "__version__",
    "generate_keypair",
    "links",
    "private_selected_sum",
    "profiles",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.crypto.paillier": (
        "EncryptedNumber",
        "PaillierPrivateKey",
        "PaillierPublicKey",
        "PaillierScheme",
        "RandomnessPool",
        "generate_keypair",
    ),
    "repro.crypto.simulated": ("SimulatedPaillier",),
    "repro.datastore.database": ("ServerDatabase",),
    "repro.datastore.workload": ("WorkloadGenerator",),
    "repro.net.link": ("LinkModel", "links"),
    "repro.spfe.batching": ("BatchedSelectedSumProtocol",),
    "repro.spfe.combined": ("CombinedSelectedSumProtocol",),
    "repro.spfe.context": ("ExecutionContext",),
    "repro.spfe.multiclient": ("MultiClientSelectedSumProtocol",),
    "repro.spfe.preprocessing": ("PreprocessedSelectedSumProtocol",),
    "repro.spfe.result": ("SumRunResult",),
    "repro.spfe.selected_sum": ("SelectedSumProtocol", "private_selected_sum"),
    "repro.spfe.statistics": ("PrivateStatisticsClient",),
    "repro.timing.costmodel": ("HardwareProfile", "profiles"),
})
