"""Tests for the closed-form cost estimator: exact agreement with the
event-driven engine across protocols, sizes, environments, and keys."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ParameterError
from repro.experiments.environments import long_distance, short_distance
from repro.spfe.batching import BatchedSelectedSumProtocol
from repro.spfe.combined import CombinedSelectedSumProtocol
from repro.spfe.estimator import ProtocolCostEstimator
from repro.spfe.multiclient import MultiClientSelectedSumProtocol
from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
from repro.spfe.selected_sum import SelectedSumProtocol


def engine_run(protocol_cls, n, env=short_distance, seed="est", **kwargs):
    generator = WorkloadGenerator(seed)
    database = generator.database(n)
    selection = generator.random_selection(n, max(1, n // 20))
    return protocol_cls(env.context(seed=seed), **kwargs).run(database, selection)


class TestAgreementWithEngine:
    def test_plain(self):
        n = 2500
        estimate = ProtocolCostEstimator(short_distance.context()).plain(n)
        result = engine_run(SelectedSumProtocol, n)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)
        assert estimate.bytes_up == result.bytes_up
        assert estimate.bytes_down == result.bytes_down
        assert estimate.breakdown.client_encrypt_s == pytest.approx(
            result.breakdown.client_encrypt_s
        )

    def test_preprocessed(self):
        n = 2500
        estimate = ProtocolCostEstimator(short_distance.context()).preprocessed(n)
        result = engine_run(PreprocessedSelectedSumProtocol, n)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)
        assert estimate.breakdown.offline_precompute_s == pytest.approx(
            result.breakdown.offline_precompute_s
        )

    @pytest.mark.parametrize("batch", [1, 50, 100, 999])
    def test_batched(self, batch):
        n = 2000
        estimate = ProtocolCostEstimator(short_distance.context()).batched(n, batch)
        result = engine_run(BatchedSelectedSumProtocol, n, batch_size=batch)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)
        assert estimate.bytes_up == result.bytes_up

    def test_combined(self):
        n = 2000
        estimate = ProtocolCostEstimator(short_distance.context()).combined(n, 100)
        result = engine_run(CombinedSelectedSumProtocol, n, batch_size=100)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_multiclient(self, k):
        n = 2000
        estimate = ProtocolCostEstimator(short_distance.context()).multiclient(n, k)
        result = engine_run(MultiClientSelectedSumProtocol, n, num_clients=k)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)
        assert estimate.bytes_up == result.bytes_up
        assert estimate.bytes_down == result.bytes_down

    def test_long_distance_environment(self):
        n = 1500
        estimate = ProtocolCostEstimator(long_distance.context()).plain(n)
        result = engine_run(SelectedSumProtocol, n, env=long_distance)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)

    def test_key_size(self):
        n = 1500
        ctx = short_distance.context(key_bits=1024)
        estimate = ProtocolCostEstimator(ctx).plain(n)
        generator = WorkloadGenerator("kb")
        database = generator.database(n)
        selection = generator.random_selection(n, 10)
        result = SelectedSumProtocol(
            short_distance.context(key_bits=1024, seed="kb")
        ).run(database, selection)
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)
        assert estimate.bytes_up == result.bytes_up

    @settings(max_examples=10, deadline=None)
    @given(st.integers(50, 3000), st.integers(1, 200))
    def test_batched_agreement_property(self, n, batch):
        estimate = ProtocolCostEstimator(short_distance.context()).batched(n, batch)
        result = engine_run(
            BatchedSelectedSumProtocol, n, seed="prop-%d" % n, batch_size=batch
        )
        assert estimate.makespan_s == pytest.approx(result.makespan_s, rel=1e-9)
        assert estimate.bytes_up == result.bytes_up


class TestEstimatorProperties:
    def test_validation(self):
        estimator = ProtocolCostEstimator()
        with pytest.raises(ParameterError):
            estimator.plain(0)
        with pytest.raises(ParameterError):
            estimator.batched(10, 0)
        with pytest.raises(ParameterError):
            estimator.multiclient(10, 1)

    def test_paper_headline_prediction(self):
        """The estimator alone predicts the paper's Figure 2 headline."""
        estimate = ProtocolCostEstimator(short_distance.context()).plain(100_000)
        assert 18 < estimate.online_minutes() < 23

    def test_planning_scale(self):
        """The planning use case: predict a 10-million-row query without
        materializing anything."""
        estimator = ProtocolCostEstimator(short_distance.context())
        plain = estimator.plain(10_000_000)
        combined = estimator.combined(10_000_000)
        assert plain.online_minutes() > 1000  # >1.5 days on 2004 hardware
        assert combined.online_minutes() < 0.1 * plain.online_minutes()

    def test_monotone_in_n(self):
        estimator = ProtocolCostEstimator(short_distance.context())
        assert (
            estimator.plain(1000).makespan_s
            < estimator.plain(2000).makespan_s
            < estimator.plain(4000).makespan_s
        )
