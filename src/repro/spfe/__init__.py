"""The paper's contribution: selective private function evaluation
protocols for private statistics over a remote database.

Protocol family (one module per paper section):

* :class:`SelectedSumProtocol` — the plain protocol (§2, Figure 1).
* :class:`BatchedSelectedSumProtocol` — pipeline batching (§3.2).
* :class:`PreprocessedSelectedSumProtocol` — offline encryption (§3.3).
* :class:`CombinedSelectedSumProtocol` — both (§3.4).
* :class:`MultiClientSelectedSumProtocol` — k blinded clients (§3.5).
* :class:`PrivateStatisticsClient` — means/variances/weighted averages (§1).
* baselines, the privacy/performance tradeoff (§4 future work), and PIR.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.spfe.base import SelectedSumBase
    from repro.spfe.baselines import (
        DownloadDatabaseProtocol,
        NonPrivateIndexProtocol,
        YaoBaselineProtocol,
    )
    from repro.spfe.batching import PAPER_BATCH_SIZE, BatchedSelectedSumProtocol
    from repro.spfe.combined import CombinedSelectedSumProtocol
    from repro.spfe.context import CLIENT, SERVER, ExecutionContext
    from repro.spfe.estimator import CostEstimate, ProtocolCostEstimator
    from repro.spfe.grouped import GroupedSumProtocol, GroupedSumResult, group_means
    from repro.spfe.multiclient import PAPER_CLIENT_COUNT, MultiClientSelectedSumProtocol
    from repro.spfe.multidatabase import DistributedSelectedSumProtocol
    from repro.spfe.pir import LinearPIRProtocol, SquareRootPIRProtocol
    from repro.spfe.planner import ProtocolPlanner, QueryPlan
    from repro.spfe.preprocessing import EncryptionPool, PreprocessedSelectedSumProtocol
    from repro.spfe.privacy import (
        audit_client_privacy,
        audit_database_privacy,
        audit_result,
    )
    from repro.spfe.result import SumRunResult
    from repro.spfe.selected_sum import SelectedSumProtocol, private_selected_sum
    from repro.spfe.session import (
        ClientSession,
        ServerSession,
        SessionRegistry,
        run_over_transport,
        run_resilient,
        run_sessions_in_memory,
        serve_over_transport,
    )
    from repro.spfe.statistics import (
        PrivateStatisticsClient,
        StatisticResult,
        elementwise_product,
    )
    from repro.spfe.table_client import PrivateTableClient
    from repro.spfe.tradeoff import PartialPrivacySumProtocol
    from repro.spfe.validation import (
        ServerPolicy,
        check_ciphertext,
        check_ciphertext_chunk,
        check_hello,
        check_public_key,
    )
    from repro.store.record import resume_state_bytes

__all__ = [
    "BatchedSelectedSumProtocol",
    "CLIENT",
    "ClientSession",
    "CostEstimate",
    "DistributedSelectedSumProtocol",
    "CombinedSelectedSumProtocol",
    "DownloadDatabaseProtocol",
    "EncryptionPool",
    "ExecutionContext",
    "GroupedSumProtocol",
    "GroupedSumResult",
    "LinearPIRProtocol",
    "MultiClientSelectedSumProtocol",
    "NonPrivateIndexProtocol",
    "PAPER_BATCH_SIZE",
    "PAPER_CLIENT_COUNT",
    "PartialPrivacySumProtocol",
    "PreprocessedSelectedSumProtocol",
    "PrivateStatisticsClient",
    "PrivateTableClient",
    "ProtocolCostEstimator",
    "ProtocolPlanner",
    "QueryPlan",
    "SERVER",
    "SelectedSumBase",
    "SelectedSumProtocol",
    "ServerPolicy",
    "ServerSession",
    "SessionRegistry",
    "SquareRootPIRProtocol",
    "StatisticResult",
    "SumRunResult",
    "YaoBaselineProtocol",
    "audit_client_privacy",
    "check_ciphertext",
    "check_ciphertext_chunk",
    "check_hello",
    "check_public_key",
    "resume_state_bytes",
    "audit_database_privacy",
    "audit_result",
    "elementwise_product",
    "group_means",
    "private_selected_sum",
    "run_over_transport",
    "run_resilient",
    "run_sessions_in_memory",
    "serve_over_transport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.spfe.base": ("SelectedSumBase",),
    "repro.spfe.baselines": (
        "DownloadDatabaseProtocol",
        "NonPrivateIndexProtocol",
        "YaoBaselineProtocol",
    ),
    "repro.spfe.batching": ("PAPER_BATCH_SIZE", "BatchedSelectedSumProtocol"),
    "repro.spfe.combined": ("CombinedSelectedSumProtocol",),
    "repro.spfe.context": ("CLIENT", "SERVER", "ExecutionContext"),
    "repro.spfe.estimator": ("CostEstimate", "ProtocolCostEstimator"),
    "repro.spfe.grouped": ("GroupedSumProtocol", "GroupedSumResult", "group_means"),
    "repro.spfe.multiclient": ("PAPER_CLIENT_COUNT", "MultiClientSelectedSumProtocol"),
    "repro.spfe.multidatabase": ("DistributedSelectedSumProtocol",),
    "repro.spfe.pir": ("LinearPIRProtocol", "SquareRootPIRProtocol"),
    "repro.spfe.planner": ("ProtocolPlanner", "QueryPlan"),
    "repro.spfe.preprocessing": ("EncryptionPool", "PreprocessedSelectedSumProtocol"),
    "repro.spfe.privacy": (
        "audit_client_privacy",
        "audit_database_privacy",
        "audit_result",
    ),
    "repro.spfe.result": ("SumRunResult",),
    "repro.spfe.selected_sum": ("SelectedSumProtocol", "private_selected_sum"),
    "repro.spfe.session": (
        "ClientSession",
        "ServerSession",
        "SessionRegistry",
        "run_over_transport",
        "run_resilient",
        "run_sessions_in_memory",
        "serve_over_transport",
    ),
    "repro.spfe.statistics": (
        "PrivateStatisticsClient",
        "StatisticResult",
        "elementwise_product",
    ),
    "repro.spfe.table_client": ("PrivateTableClient",),
    "repro.spfe.tradeoff": ("PartialPrivacySumProtocol",),
    "repro.spfe.validation": (
        "ServerPolicy",
        "check_ciphertext",
        "check_ciphertext_chunk",
        "check_hello",
        "check_public_key",
    ),
    "repro.store.record": ("resume_state_bytes",),
})
