"""Tests for the baseline protocols (paper §2 comparison points)."""

import pytest

from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import PrivacyViolationError
from repro.spfe.baselines import (
    DownloadDatabaseProtocol,
    NonPrivateIndexProtocol,
    YaoBaselineProtocol,
)
from repro.spfe.context import ExecutionContext
from repro.spfe.privacy import audit_result
from repro.spfe.selected_sum import SelectedSumProtocol


class TestNonPrivateIndex:
    def test_correct(self, ctx, workload):
        database, selection = workload
        result = NonPrivateIndexProtocol(ctx).run(database, selection)
        assert result.value == database.select_sum(selection)

    def test_declares_leak(self, ctx, workload):
        database, selection = workload
        result = NonPrivateIndexProtocol(ctx).run(database, selection)
        assert result.metadata["leaks"] == ["client-selection"]

    def test_fails_privacy_audit(self, ctx, workload):
        database, selection = workload
        result = NonPrivateIndexProtocol(ctx).run(database, selection)
        with pytest.raises(PrivacyViolationError):
            audit_result(result, selection)

    def test_is_nearly_free(self, ctx, workload):
        database, selection = workload
        baseline = NonPrivateIndexProtocol(ctx).run(database, selection)
        private = SelectedSumProtocol(
            ExecutionContext(rng="cmp")
        ).run(database, selection)
        assert baseline.makespan_s < private.makespan_s / 100
        assert baseline.total_bytes < private.total_bytes / 100

    def test_server_sees_the_selection(self, ctx, workload):
        """The leak is real: the indices are in the server's view."""
        database, selection = workload
        result = NonPrivateIndexProtocol(ctx).run(database, selection)
        channel = result.metadata["channel"]
        payloads = channel.server_view.payloads("plain-indices")
        assert list(payloads[0]) == [i for i, w in enumerate(selection) if w]


class TestDownloadDatabase:
    def test_correct(self, ctx, workload):
        database, selection = workload
        result = DownloadDatabaseProtocol(ctx).run(database, selection)
        assert result.value == database.select_sum(selection)

    def test_declares_leak(self, ctx, workload):
        database, selection = workload
        result = DownloadDatabaseProtocol(ctx).run(database, selection)
        assert result.metadata["leaks"] == ["entire-database"]

    def test_client_receives_everything(self, ctx, workload):
        database, selection = workload
        result = DownloadDatabaseProtocol(ctx).run(database, selection)
        channel = result.metadata["channel"]
        assert channel.client_view.payloads("database-dump")[0] == database.values

    def test_downlink_dominates(self, ctx, workload):
        database, selection = workload
        result = DownloadDatabaseProtocol(ctx).run(database, selection)
        assert result.bytes_down > result.bytes_up
        assert result.bytes_down >= len(database) * 4


class TestYaoBaseline:
    @pytest.fixture(scope="class")
    def yao_result(self):
        generator = WorkloadGenerator("yao-base")
        database = generator.database(8, value_bits=8)
        selection = generator.random_selection(8, 3)
        ctx = ExecutionContext(rng="yao-base")
        result = YaoBaselineProtocol(ctx).run(database, selection)
        return database, selection, result

    def test_correct(self, yao_result):
        database, selection, result = yao_result
        assert result.value == database.select_sum(selection)

    def test_private_but_expensive(self, yao_result):
        database, selection, result = yao_result
        assert result.metadata["leaks"] == []
        assert result.metadata["gate_count"] > 100
        # Bytes: tens of kilobytes for 8 elements, vs ~1 KB homomorphic.
        private = SelectedSumProtocol(ExecutionContext(rng="hom")).run(
            database, selection
        )
        assert result.total_bytes > 10 * private.total_bytes

    def test_fairplay_model_reported(self, yao_result):
        _, _, result = yao_result
        assert result.metadata["fairplay_model_minutes"] == pytest.approx(
            15.0 * 8 / 100
        )

    def test_marks_measured(self, yao_result):
        _, _, result = yao_result
        assert result.metadata["measured"] is True
        assert result.scheme == "yao-garbled-circuit"
