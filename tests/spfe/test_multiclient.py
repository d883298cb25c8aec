"""Tests for the multi-client protocol — paper §3.5 / Figures 8-9."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierScheme
from repro.datastore.database import ServerDatabase
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ParameterError, ProtocolError
from repro.spfe.blinding import DEFAULT_SIGMA, blinding_modulus
from repro.spfe.context import ExecutionContext
from repro.spfe.multiclient import (
    PAPER_CLIENT_COUNT,
    MultiClientSelectedSumProtocol,
)
from repro.spfe.selected_sum import SelectedSumProtocol


class TestCorrectness:
    def test_known_sum(self, ctx):
        db = ServerDatabase([10, 20, 30, 40, 50, 60])
        result = MultiClientSelectedSumProtocol(ctx, num_clients=3).run(
            db, [1, 0, 1, 0, 1, 0]
        )
        assert result.value == 90

    def test_uneven_split(self, ctx):
        db = ServerDatabase([1, 2, 3, 4, 5, 6, 7])  # 7 elements, 3 clients
        result = MultiClientSelectedSumProtocol(ctx, num_clients=3).run(
            db, [1] * 7
        )
        assert result.value == 28

    def test_empty_selection(self, ctx):
        db = ServerDatabase([5, 6, 7, 8])
        result = MultiClientSelectedSumProtocol(ctx, num_clients=2).run(
            db, [0, 0, 0, 0]
        )
        assert result.value == 0

    def test_selection_concentrated_in_one_slice(self, ctx):
        db = ServerDatabase([9] * 9)
        selection = [1, 1, 1] + [0] * 6  # all in client 0's slice
        result = MultiClientSelectedSumProtocol(ctx, num_clients=3).run(
            db, selection
        )
        assert result.value == 27

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_random_workloads(self, data):
        n = data.draw(st.integers(4, 60))
        k = data.draw(st.integers(2, min(6, n)))
        values = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
        )
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        db = ServerDatabase(values)
        ctx = ExecutionContext(rng=repr((k, values)))
        result = MultiClientSelectedSumProtocol(ctx, num_clients=k).run(db, bits)
        assert result.value == db.select_sum(bits)

    def test_with_real_paillier(self):
        generator = WorkloadGenerator("mc-real")
        db = generator.database(12, value_bits=16)
        selection = generator.random_selection(12, 5)
        ctx = ExecutionContext(
            scheme=PaillierScheme(), key_bits=192, mode="measured", rng="mc"
        )
        result = MultiClientSelectedSumProtocol(ctx, num_clients=3).run(
            db, selection
        )
        assert result.value == db.select_sum(selection)


class TestValidation:
    def test_needs_two_clients(self, ctx):
        with pytest.raises(ParameterError):
            MultiClientSelectedSumProtocol(ctx, num_clients=1)

    def test_more_clients_than_elements(self, ctx):
        db = ServerDatabase([1, 2])
        with pytest.raises(ProtocolError):
            MultiClientSelectedSumProtocol(ctx, num_clients=3).run(db, [1, 1])

    def test_sigma_validated(self, ctx):
        with pytest.raises(ParameterError):
            MultiClientSelectedSumProtocol(ctx, sigma=0)

    def test_blinding_capacity_checked(self):
        # Tiny keys cannot hold the blinded partial sums.
        ctx = ExecutionContext(key_bits=64, rng="tiny")
        db = ServerDatabase([2**32 - 1] * 4)
        with pytest.raises(ProtocolError):
            MultiClientSelectedSumProtocol(ctx, num_clients=2).run(db, [1] * 4)


class TestBlinding:
    def test_blinds_cancel(self, ctx):
        """The protocol itself proves sum(R_i) ≡ 0 (mod B) by returning
        the correct value, but check the modulus bookkeeping too."""
        db = ServerDatabase([7] * 10)
        protocol = MultiClientSelectedSumProtocol(ctx, num_clients=2)
        result = protocol.run(db, [1] * 10)
        assert result.value == 70
        # sigma=40 headroom over 32-bit values and a 10-element db.
        assert result.metadata["blind_modulus_bits"] >= 32 + 4 + 40

    def test_partial_sums_are_blinded(self, ctx):
        """Statistical hiding: what circulates in the combination ring is
        the *blinded* partial, not the true partial sum (a match would
        have probability ~2^-40)."""
        values = [100, 200, 300, 400]
        db = ServerDatabase(values)
        result = MultiClientSelectedSumProtocol(ctx, num_clients=2).run(
            db, [1, 1, 1, 1]
        )
        assert result.value == 1000
        ring = result.metadata["ring_channels"]
        # The first forward hop carries client 0's blinded partial; the
        # true partial of slice [100, 200] is 300.
        first_hop = ring[0].server_view.payloads("ring-forward")
        assert first_hop and first_hop[0] != 300

    def test_combining_modulus_grows_with_n(self):
        assert blinding_modulus(
            ServerDatabase([1] * 4), DEFAULT_SIGMA
        ) < blinding_modulus(ServerDatabase([1] * 4000), DEFAULT_SIGMA)


class TestTiming:
    def _pair(self, n=3000, k=PAPER_CLIENT_COUNT, seed="mc"):
        generator = WorkloadGenerator(seed)
        database = generator.database(n)
        selection = generator.random_selection(n, n // 20)
        env_kwargs = dict(rng=seed)
        single = SelectedSumProtocol(ExecutionContext(**env_kwargs)).run(
            database, selection
        )
        multi = MultiClientSelectedSumProtocol(
            ExecutionContext(**env_kwargs), num_clients=k
        ).run(database, selection)
        return single, multi

    def test_paper_speedup_at_k3(self):
        """Figure 9: ~2.99x at k = 3 (k-fold minus combining overhead)."""
        single, multi = self._pair()
        speedup = single.makespan_s / multi.makespan_s
        assert 2.8 < speedup < 3.05

    def test_speedup_scales_with_k(self):
        _, multi2 = self._pair(k=2, seed="mc2")
        _, multi5 = self._pair(k=5, seed="mc5")
        assert multi5.makespan_s < multi2.makespan_s

    def test_combine_overhead_positive_but_small(self):
        _, multi = self._pair()
        assert 0 < multi.breakdown.combine_s < 0.05 * multi.makespan_s

    def test_total_client_work_preserved(self):
        """Parallelism splits the work; it does not shrink it."""
        single, multi = self._pair()
        assert multi.breakdown.client_encrypt_s == pytest.approx(
            single.breakdown.client_encrypt_s, rel=0.01
        )

    def test_metadata(self, ctx, workload):
        database, selection = workload
        result = MultiClientSelectedSumProtocol(ctx, num_clients=4).run(
            database, selection
        )
        assert result.metadata["num_clients"] == 4
        assert len(result.metadata["channels"]) == 4
        assert result.protocol == "multiclient"
