"""Tests for the preprocessing optimization — paper §3.3."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierScheme, generate_keypair
from repro.crypto.simulated import SimulatedPaillier
from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ParameterError, ProtocolError
from repro.obs.tracing import Tracer
from repro.spfe.context import ExecutionContext
from repro.spfe.preprocessing import (
    EncryptionPool,
    PreprocessedSelectedSumProtocol,
)
from repro.spfe.selected_sum import SelectedSumProtocol


class TestEncryptionPool:
    def test_fill_and_take(self):
        scheme = SimulatedPaillier("pool")
        keypair = scheme.generate(128)
        pool = EncryptionPool(scheme, keypair.public)
        pool.fill(zeros=3, ones=2)
        assert pool.available(0) == 3
        assert pool.available(1) == 2
        ct = pool.take(1)
        assert scheme.decrypt(keypair.private, ct) == 1
        assert pool.available(1) == 1
        assert pool.misses == 0

    def test_takes_are_single_use(self):
        scheme = SimulatedPaillier("single")
        keypair = scheme.generate(128)
        pool = EncryptionPool(scheme, keypair.public)
        pool.fill(zeros=0, ones=2)
        a = pool.take(1)
        b = pool.take(1)
        assert a != b  # distinct stored ciphertexts, never the same one

    def test_dry_pool_misses(self):
        scheme = SimulatedPaillier("dry")
        keypair = scheme.generate(128)
        pool = EncryptionPool(scheme, keypair.public)
        ct = pool.take(0)
        assert scheme.decrypt(keypair.private, ct) == 0
        assert pool.misses == 1

    def test_validates(self):
        scheme = SimulatedPaillier("val")
        keypair = scheme.generate(128)
        pool = EncryptionPool(scheme, keypair.public)
        with pytest.raises(ParameterError):
            pool.fill(-1, 0)
        with pytest.raises(ParameterError):
            pool.take(2)

    def test_with_real_paillier(self):
        scheme = PaillierScheme()
        keypair = generate_keypair(128, "pool-real")
        pool = EncryptionPool(scheme, keypair.public, "pool-rng")
        pool.fill(zeros=2, ones=2)
        ones = [pool.take(1), pool.take(1)]
        assert ones[0] != ones[1]  # one stream per seed, not one per call
        assert [scheme.decrypt(keypair.private, c) for c in ones] == [1, 1]
        assert scheme.decrypt(keypair.private, pool.take(0)) == 0


class TestProtocol:
    def test_correctness(self, ctx, workload):
        database, selection = workload
        result = PreprocessedSelectedSumProtocol(ctx).run(database, selection)
        assert result.value == database.select_sum(selection)

    def test_rejects_weighted_selection(self, ctx):
        db = ServerDatabase([1, 2, 3])
        with pytest.raises(ProtocolError):
            PreprocessedSelectedSumProtocol(ctx).run(db, [2, 0, 1])

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_random_workloads(self, data):
        n = data.draw(st.integers(1, 50))
        values = data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        db = ServerDatabase(values)
        ctx = ExecutionContext(rng=repr(values))
        result = PreprocessedSelectedSumProtocol(ctx).run(db, bits)
        assert result.value == db.select_sum(bits)


class TestTiming:
    def _pair(self, n=2000, seed="pre"):
        generator = WorkloadGenerator(seed)
        database = generator.database(n)
        selection = generator.random_selection(n, n // 20)
        plain = SelectedSumProtocol(ExecutionContext(rng=seed)).run(
            database, selection
        )
        pre = PreprocessedSelectedSumProtocol(ExecutionContext(rng=seed)).run(
            database, selection
        )
        return plain, pre

    def test_online_runtime_reduced(self):
        plain, pre = self._pair()
        assert pre.makespan_s < plain.makespan_s

    def test_paper_reduction_magnitude(self):
        """The paper reports ~82% online reduction on the cluster."""
        plain, pre = self._pair(n=5000)
        reduction = 1 - pre.makespan_s / plain.makespan_s
        assert 0.75 < reduction < 0.92

    def test_server_becomes_dominant_online(self):
        """Figure 5: after preprocessing the server computation is the
        dominant online component."""
        _, pre = self._pair()
        b = pre.breakdown
        assert b.server_compute_s > b.client_encrypt_s
        assert b.server_compute_s > b.communication_s

    def test_offline_work_accounted(self):
        plain, pre = self._pair()
        # Offline pool fill is 2n encryptions: about twice the plain
        # protocol's online encryption time.
        assert pre.breakdown.offline_precompute_s == pytest.approx(
            2 * plain.breakdown.client_encrypt_s
        )

    def test_server_and_comm_unchanged(self):
        plain, pre = self._pair()
        assert pre.breakdown.server_compute_s == pytest.approx(
            plain.breakdown.server_compute_s
        )
        assert pre.breakdown.communication_s == pytest.approx(
            plain.breakdown.communication_s, rel=0.01
        )

    def test_pool_metadata(self, ctx, workload):
        database, selection = workload
        result = PreprocessedSelectedSumProtocol(ctx).run(database, selection)
        assert result.metadata["pool_zeros"] == len(database)
        assert result.metadata["pool_ones"] == len(database)
        assert result.metadata["pool_misses"] == 0


class TestUndersizedPool:
    def test_misses_charged_online(self, workload):
        database, selection = workload
        m = sum(selection)
        ctx = ExecutionContext(rng="undersized")
        # Pool with too few ones: the shortfall is encrypted online.
        result = PreprocessedSelectedSumProtocol(
            ctx, pool_zeros=len(database), pool_ones=max(0, m - 5)
        ).run(database, selection)
        assert result.value == database.select_sum(selection)
        assert result.metadata["pool_misses"] == 5

        full = PreprocessedSelectedSumProtocol(
            ExecutionContext(rng="full")
        ).run(database, selection)
        assert (
            result.breakdown.client_encrypt_s
            > full.breakdown.client_encrypt_s
        )


class TestTracedPhases:
    """A traced §3.3 run files the pool fill as offline work and the
    fetches and dry-pool encryptions as the client's online encryption,
    so the tracer's breakdown is the result's."""

    @pytest.mark.parametrize("mode", ["measured", "modelled"])
    def test_tracer_breakdown_equals_result_breakdown(self, mode):
        generator = WorkloadGenerator("traced-pool")
        database = generator.database(60)
        selection = generator.random_selection(60, 6)
        tracer = Tracer()
        ctx = ExecutionContext(
            key_bits=256, mode=mode, rng="traced-pool", tracer=tracer
        )
        result = PreprocessedSelectedSumProtocol(ctx, pool_ones=0).run(
            database, selection
        )
        assert result.value == database.select_sum(selection)
        assert result.metadata["pool_misses"] == 6
        traced = tracer.breakdown()
        assert traced.client_encrypt_s == result.breakdown.client_encrypt_s
        assert (
            traced.offline_precompute_s
            == result.breakdown.offline_precompute_s
        )
        assert traced.offline_precompute_s > 0
        assert "pool-fetch" not in tracer.totals()
