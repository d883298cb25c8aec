"""Tests for the privacy auditors — the paper's §2 requirements as checks."""

import pytest

from repro.exceptions import PrivacyViolationError
from repro.net.channel import Channel
from repro.net.link import links
from repro.net.wire import Message
from repro.spfe.base import MSG_ENC_INDEX
from repro.spfe.batching import BatchedSelectedSumProtocol
from repro.spfe.combined import CombinedSelectedSumProtocol
from repro.spfe.context import ExecutionContext
from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
from repro.spfe.privacy import (
    audit_client_privacy,
    audit_database_privacy,
    audit_result,
)
from repro.spfe.selected_sum import SelectedSumProtocol
from repro.spfe.tradeoff import PartialPrivacySumProtocol


ALL_PRIVATE_VARIANTS = [
    SelectedSumProtocol,
    BatchedSelectedSumProtocol,
    PreprocessedSelectedSumProtocol,
    CombinedSelectedSumProtocol,
]


class TestPrivateVariantsPass:
    @pytest.mark.parametrize("protocol_cls", ALL_PRIVATE_VARIANTS)
    def test_simulated_scheme_passes(self, protocol_cls, workload):
        database, selection = workload
        ctx = ExecutionContext(rng="audit")
        result = protocol_cls(ctx).run(database, selection)
        audit_result(result, selection)  # no raise

    def test_real_paillier_passes(self, small_workload):
        from repro.crypto.paillier import PaillierScheme

        database, selection = small_workload
        ctx = ExecutionContext(
            scheme=PaillierScheme(), key_bits=128, mode="measured", rng="ap"
        )
        result = SelectedSumProtocol(ctx).run(database, selection)
        audit_result(result, selection)

    def test_multiclient_channels_pass_per_slice(self, workload):
        from repro.spfe.multiclient import MultiClientSelectedSumProtocol

        database, selection = workload
        ctx = ExecutionContext(rng="mc-audit")
        result = MultiClientSelectedSumProtocol(ctx, num_clients=2).run(
            database, selection
        )
        half = len(database) // 2
        slices = [selection[:half], selection[half:]]
        for channel, sub_selection in zip(result.metadata["channels"], slices):
            audit_client_privacy(channel, sub_selection)


class TestViolationsDetected:
    def _channel_with(self, *messages):
        channel = Channel(links.loopback)
        for message in messages:
            channel.client_send(message)
            channel.server_recv()
        return channel

    def test_plaintext_bits_detected(self):
        channel = self._channel_with(
            Message(MSG_ENC_INDEX, 1, 136, "client"),
            Message(MSG_ENC_INDEX, 0, 136, "client"),
        )
        with pytest.raises(PrivacyViolationError):
            audit_client_privacy(channel, [1, 0])

    def test_plaintext_vector_detected(self):
        channel = self._channel_with(
            Message(MSG_ENC_INDEX, (1, 0, 1), 408, "client")
        )
        with pytest.raises(PrivacyViolationError):
            audit_client_privacy(channel, [1, 0, 1])

    def test_ciphertext_reuse_detected(self):
        big = 1 << 900  # plausible 1024-bit ciphertext value
        channel = self._channel_with(
            Message(MSG_ENC_INDEX, big, 136, "client"),
            Message(MSG_ENC_INDEX, big, 136, "client"),
        )
        with pytest.raises(PrivacyViolationError):
            audit_client_privacy(channel, [1, 1])

    def test_selection_dependent_count_detected(self):
        big = 1 << 900
        channel = self._channel_with(Message(MSG_ENC_INDEX, big, 136, "client"))
        with pytest.raises(PrivacyViolationError):
            audit_client_privacy(channel, [1, 0, 0])  # n=3, only 1 sent

    def test_unexpected_kind_detected(self):
        channel = self._channel_with(
            Message("selection-hints", (1 << 900,), 16, "client")
        )
        with pytest.raises(PrivacyViolationError):
            audit_client_privacy(channel, [])

    def test_client_overdelivery_detected(self):
        channel = Channel(links.loopback)
        channel.server_send(Message("result", 1 << 900, 136, "server"))
        channel.server_send(Message("result", 1 << 899, 136, "server"))
        channel.client_recv()
        channel.client_recv()
        with pytest.raises(PrivacyViolationError):
            audit_database_privacy(channel, expected_results=1)

    def test_vector_to_client_detected(self):
        channel = Channel(links.loopback)
        channel.server_send(Message("result", (1, 2, 3), 24, "server"))
        channel.client_recv()
        with pytest.raises(PrivacyViolationError):
            audit_database_privacy(channel, expected_results=1)

    def test_declared_leaks_fail_audit_result(self, ctx, workload):
        database, selection = workload
        result = PartialPrivacySumProtocol(ctx).run(database, selection)
        with pytest.raises(PrivacyViolationError):
            audit_result(result, selection)

    def test_missing_channel_fails(self):
        from repro.spfe.result import SumRunResult
        from repro.timing.report import TimingBreakdown

        result = SumRunResult(
            value=0, n=1, m=0, breakdown=TimingBreakdown(), makespan_s=0,
            bytes_up=0, bytes_down=0, messages=0, scheme="x", link="y",
            protocol="z",
        )
        with pytest.raises(PrivacyViolationError):
            audit_result(result, [0])
