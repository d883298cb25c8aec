"""Tests for the plain selected-sum protocol (paper §2 / Figure 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierScheme
from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ParameterError, ProtocolError
from repro.net.link import links
from repro.spfe.batching import BatchedSelectedSumProtocol
from repro.spfe.combined import CombinedSelectedSumProtocol
from repro.spfe.context import ExecutionContext
from repro.spfe.preprocessing import PreprocessedSelectedSumProtocol
from repro.spfe.selected_sum import SelectedSumProtocol, private_selected_sum


class TestCorrectness:
    def test_known_sum(self, ctx):
        db = ServerDatabase([17, 4, 23, 8, 15])
        result = SelectedSumProtocol(ctx).run(db, [1, 0, 1, 0, 1])
        assert result.value == 55

    def test_empty_selection(self, ctx):
        db = ServerDatabase([17, 4, 23])
        assert SelectedSumProtocol(ctx).run(db, [0, 0, 0]).value == 0

    def test_full_selection(self, ctx):
        db = ServerDatabase([17, 4, 23])
        assert SelectedSumProtocol(ctx).run(db, [1, 1, 1]).value == 44

    def test_weighted_selection(self, ctx):
        db = ServerDatabase([10, 20, 30])
        assert SelectedSumProtocol(ctx).run(db, [3, 0, 2]).value == 90

    def test_convenience_wrapper(self):
        db = ServerDatabase([5, 6, 7])
        assert private_selected_sum(db, [0, 1, 1]).value == 13

    def test_verify_helper(self, ctx, workload):
        database, selection = workload
        result = SelectedSumProtocol(ctx).run(database, selection)
        result.verify(database.select_sum(selection))
        with pytest.raises(AssertionError):
            result.verify(result.value + 1)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_workloads(self, data):
        n = data.draw(st.integers(1, 60))
        values = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
        )
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        db = ServerDatabase(values)
        ctx = ExecutionContext(rng=repr((values, bits)))
        result = SelectedSumProtocol(ctx).run(db, bits)
        assert result.value == db.select_sum(bits)

    def test_with_real_paillier(self, small_workload):
        """Plain and the single-client §3 variants, on real Paillier."""
        database, selection = small_workload
        variants = (
            SelectedSumProtocol,
            lambda ctx: BatchedSelectedSumProtocol(ctx, batch_size=5),
            PreprocessedSelectedSumProtocol,
            lambda ctx: CombinedSelectedSumProtocol(ctx, batch_size=5),
        )
        for build in variants:
            ctx = ExecutionContext(
                scheme=PaillierScheme(), key_bits=128, mode="measured", rng="real"
            )
            result = build(ctx).run(database, selection)
            assert result.value == database.select_sum(selection)
            assert result.scheme == "paillier"


class TestValidation:
    def test_length_mismatch(self, ctx):
        db = ServerDatabase([1, 2, 3])
        with pytest.raises(ParameterError):
            SelectedSumProtocol(ctx).run(db, [1, 0])

    def test_negative_weights(self, ctx):
        db = ServerDatabase([1, 2])
        with pytest.raises(ParameterError):
            SelectedSumProtocol(ctx).run(db, [1, -1])

    def test_non_integer_weights(self, ctx):
        db = ServerDatabase([1, 2])
        with pytest.raises(ParameterError):
            SelectedSumProtocol(ctx).run(db, [1, 0.5])  # type: ignore[list-item]

    def test_capacity_check(self):
        # A 32-bit key cannot hold a sum of many 32-bit values.
        ctx = ExecutionContext(key_bits=32, rng="cap")
        db = ServerDatabase([2**32 - 1] * 10)
        with pytest.raises(ProtocolError):
            SelectedSumProtocol(ctx).run(db, [1] * 10)


class TestAccounting:
    def test_result_fields(self, ctx, workload):
        database, selection = workload
        result = SelectedSumProtocol(ctx).run(database, selection)
        assert result.n == len(database)
        assert result.m == sum(selection)
        assert result.protocol == "plain"
        assert result.scheme == "simulated-paillier"
        assert result.link == "cluster-gigabit"

    def test_bytes_formula(self, ctx, workload):
        database, selection = workload
        result = SelectedSumProtocol(ctx).run(database, selection)
        n = len(database)
        # pk message (64 + 8) + n ciphertext messages (128 + 8 each)
        assert result.bytes_up == 72 + n * 136
        assert result.bytes_down == 136
        assert result.messages == n + 2

    def test_components_all_positive(self, ctx, workload):
        database, selection = workload
        b = SelectedSumProtocol(ctx).run(database, selection).breakdown
        assert b.client_encrypt_s > 0
        assert b.server_compute_s > 0
        assert b.communication_s > 0
        assert b.client_decrypt_s > 0
        assert b.offline_precompute_s == 0

    def test_sequential_makespan(self, ctx, workload):
        database, selection = workload
        result = SelectedSumProtocol(ctx).run(database, selection)
        # The plain protocol has no overlap: makespan ~ sum of parts
        # (small slack for the pk message).
        assert result.makespan_s == pytest.approx(
            result.breakdown.total_online_s(), rel=0.01
        )

    def test_encryption_dominates_on_cluster(self, ctx, workload):
        database, selection = workload
        b = SelectedSumProtocol(ctx).run(database, selection).breakdown
        assert b.client_encrypt_s > b.server_compute_s > b.communication_s
        assert b.client_decrypt_s < b.communication_s

    def test_decryption_constant_in_n(self):
        generator = WorkloadGenerator("dec")
        results = []
        for n in (100, 1000):
            db = generator.database(n)
            sel = generator.random_selection(n, 5)
            ctx = ExecutionContext(rng="dec")
            results.append(SelectedSumProtocol(ctx).run(db, sel))
        assert results[0].breakdown.client_decrypt_s == pytest.approx(
            results[1].breakdown.client_decrypt_s
        )

    def test_linear_scaling(self):
        generator = WorkloadGenerator("lin")
        times = []
        for n in (200, 400):
            db = generator.database(n)
            sel = generator.random_selection(n, 5)
            ctx = ExecutionContext(rng="lin")
            times.append(
                SelectedSumProtocol(ctx).run(db, sel).breakdown.client_encrypt_s
            )
        assert times[1] == pytest.approx(2 * times[0])

    def test_modem_increases_communication_only(self, workload):
        database, selection = workload
        cluster = SelectedSumProtocol(ExecutionContext(rng="m1")).run(
            database, selection
        )
        modem = SelectedSumProtocol(
            ExecutionContext(link=links.modem, rng="m2")
        ).run(database, selection)
        assert modem.breakdown.communication_s > 10 * cluster.breakdown.communication_s
        assert modem.breakdown.client_encrypt_s == pytest.approx(
            cluster.breakdown.client_encrypt_s
        )

    def test_keypair_reuse_skips_keygen(self, ctx, workload):
        database, selection = workload
        keypair, _ = ctx.generate_keypair()
        result = SelectedSumProtocol(ctx).run(database, selection, keypair=keypair)
        assert result.metadata["keygen_s"] == 0.0
        assert result.value == database.select_sum(selection)
