"""Tests for the PIR protocols (the sublinear-communication direction)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierScheme
from repro.datastore.workload import WorkloadGenerator
from repro.exceptions import ParameterError
from repro.spfe.context import ExecutionContext
from repro.spfe.pir import LinearPIRProtocol, SquareRootPIRProtocol


@pytest.fixture(scope="module")
def pir_db():
    return WorkloadGenerator("pir").database(400)


class TestLinearPIR:
    def test_retrieves_correct_element(self, ctx, pir_db):
        for index in (0, 57, 399):
            result = LinearPIRProtocol(ctx).retrieve(pir_db, index)
            assert result.value == pir_db[index]

    def test_index_validated(self, ctx, pir_db):
        with pytest.raises(ParameterError):
            LinearPIRProtocol(ctx).retrieve(pir_db, 400)
        with pytest.raises(ParameterError):
            LinearPIRProtocol(ctx).retrieve(pir_db, -1)

    def test_metadata(self, ctx, pir_db):
        result = LinearPIRProtocol(ctx).retrieve(pir_db, 3)
        assert result.metadata["retrieved_index"] == 3
        assert result.metadata["reveals_to_client"] == "one element"


class TestSquareRootPIR:
    def test_grid_shape(self, ctx):
        pir = SquareRootPIRProtocol(ctx)
        assert pir.grid_shape(400) == (20, 20)
        assert pir.grid_shape(401) == (20, 21)
        assert pir.grid_shape(1) == (1, 1)
        rows, cols = pir.grid_shape(1000)
        assert rows * cols >= 1000

    def test_retrieves_correct_element(self, ctx, pir_db):
        for index in (0, 19, 20, 57, 399):
            result = SquareRootPIRProtocol(ctx).retrieve(pir_db, index)
            assert result.value == pir_db[index]

    def test_non_square_database(self, ctx):
        db = WorkloadGenerator("odd").database(389)  # not a perfect square
        for index in (0, 199, 388):
            result = SquareRootPIRProtocol(ctx).retrieve(db, index)
            assert result.value == db[index]

    def test_index_validated(self, ctx, pir_db):
        with pytest.raises(ParameterError):
            SquareRootPIRProtocol(ctx).retrieve(pir_db, len(pir_db))

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_random_retrieval(self, data):
        n = data.draw(st.integers(1, 200))
        index = data.draw(st.integers(0, n - 1))
        db = WorkloadGenerator("prop-%d" % n).database(n)
        ctx = ExecutionContext(rng=repr((n, index)))
        assert SquareRootPIRProtocol(ctx).retrieve(db, index).value == db[index]

    def test_with_real_paillier(self):
        db = WorkloadGenerator("pir-real").database(36, value_bits=16)
        ctx = ExecutionContext(
            scheme=PaillierScheme(), key_bits=128, mode="measured", rng="pr"
        )
        assert SquareRootPIRProtocol(ctx).retrieve(db, 17).value == db[17]


class TestCommunicationComplexity:
    def test_sqrt_beats_linear(self, ctx, pir_db):
        linear = LinearPIRProtocol(ExecutionContext(rng="c1")).retrieve(pir_db, 7)
        sqrt = SquareRootPIRProtocol(ExecutionContext(rng="c2")).retrieve(pir_db, 7)
        assert sqrt.total_bytes < linear.total_bytes / 5

    def test_sqrt_scaling(self):
        """Communication grows ~sqrt(n): 4x database -> ~2x bytes."""
        small_db = WorkloadGenerator("s1").database(400)
        large_db = WorkloadGenerator("s2").database(1600)
        small = SquareRootPIRProtocol(ExecutionContext(rng="s")).retrieve(small_db, 5)
        large = SquareRootPIRProtocol(ExecutionContext(rng="l")).retrieve(large_db, 5)
        ratio = large.total_bytes / small.total_bytes
        assert 1.7 < ratio < 2.3

    def test_ciphertext_counts(self, ctx, pir_db):
        result = SquareRootPIRProtocol(ctx).retrieve(pir_db, 7)
        assert result.metadata["uplink_ciphertexts"] == 20
        assert result.metadata["downlink_ciphertexts"] == 20

    def test_row_disclosure_documented(self, ctx, pir_db):
        result = SquareRootPIRProtocol(ctx).retrieve(pir_db, 7)
        assert "row" in result.metadata["reveals_to_client"]
