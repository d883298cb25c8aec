"""Tests for the end-to-end Yao selected-sum protocol."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.rng import DeterministicRandom
from repro.exceptions import OTError, ParameterError
from repro.yao.protocol import (
    BatchOT,
    YaoSelectedSum,
    fairplay_model_minutes,
)


class TestBatchOT:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 1)),
            max_size=6,
        )
    )
    @example([(10, 20, 0), (30, 40, 1), (50, 60, 0)])
    def test_batch_correctness(self, transfers):
        pairs = [(m0, m1) for m0, m1, _ in transfers]
        choices = [choice for _, _, choice in transfers]
        batch = BatchOT(pairs, key_bits=128, rng=DeterministicRandom(repr(transfers)))
        assert batch.transfer(choices) == [
            m1 if choice else m0 for m0, m1, choice in transfers
        ]

    def test_choice_count_validated(self):
        batch = BatchOT([(1, 2)], key_bits=128, rng=DeterministicRandom("b"))
        with pytest.raises(OTError):
            batch.transfer([0, 1])

    def test_non_bit_choice(self):
        batch = BatchOT([(1, 2)], key_bits=128, rng=DeterministicRandom("b"))
        with pytest.raises(OTError):
            batch.transfer([2])

    def test_message_range_validated(self):
        with pytest.raises(OTError):
            BatchOT([(2**200, 0)], key_bits=128, rng=DeterministicRandom("b"))

    def test_bytes_accounting(self):
        batch = BatchOT([(1, 2)] * 10, key_bits=128, rng=DeterministicRandom("b"))
        assert batch.bytes_moved() == 16 + 10 * 5 * 16


class TestFairplayModel:
    def test_quoted_point(self):
        assert fairplay_model_minutes(100) == 15.0

    def test_linear(self):
        assert fairplay_model_minutes(1000) == 150.0

    def test_validates(self):
        with pytest.raises(ParameterError):
            fairplay_model_minutes(0)


class TestYaoSelectedSum:
    def test_known_case(self):
        runner = YaoSelectedSum(value_bits=8, ot_key_bits=192,
                                rng=DeterministicRandom("k"))
        result = runner.run([10, 20, 30], [1, 0, 1])
        assert result.value == 40
        result.verify(40)

    def test_verify_raises_on_mismatch(self):
        runner = YaoSelectedSum(value_bits=8, ot_key_bits=192,
                                rng=DeterministicRandom("v"))
        result = runner.run([10, 20], [1, 1])
        with pytest.raises(AssertionError):
            result.verify(0)

    def test_empty_selection(self):
        runner = YaoSelectedSum(value_bits=8, ot_key_bits=192,
                                rng=DeterministicRandom("e"))
        assert runner.run([10, 20, 30], [0, 0, 0]).value == 0

    def test_full_selection_with_carries(self):
        runner = YaoSelectedSum(value_bits=8, ot_key_bits=192,
                                rng=DeterministicRandom("f"))
        values = [255, 255, 255, 255]
        assert runner.run(values, [1, 1, 1, 1]).value == 4 * 255

    def test_validates_inputs(self):
        runner = YaoSelectedSum(value_bits=4, ot_key_bits=192)
        with pytest.raises(ParameterError):
            runner.run([1, 2], [1])
        with pytest.raises(ParameterError):
            runner.run([1, 2], [1, 2])
        with pytest.raises(ParameterError):
            runner.run([16], [1])
        with pytest.raises(ParameterError):
            YaoSelectedSum(value_bits=0)
        with pytest.raises(ParameterError):
            YaoSelectedSum(value_bits=4, ot_key_bits=128)

    def test_accounting_fields(self):
        runner = YaoSelectedSum(value_bits=4, ot_key_bits=192,
                                rng=DeterministicRandom("acc"))
        result = runner.run([5, 9], [1, 1])
        assert result.gate_count > 0
        assert result.garbled_bytes > 0
        assert result.ot_bytes > 0
        assert result.total_s >= 0
        assert result.total_bytes == result.garbled_bytes + result.ot_bytes

    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_matches_ground_truth(self, data):
        n = data.draw(st.integers(1, 5))
        values = data.draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        runner = YaoSelectedSum(value_bits=5, ot_key_bits=192,
                                rng=DeterministicRandom(repr((values, bits))))
        expected = sum(v * s for v, s in zip(values, bits))
        assert runner.run(values, bits).value == expected
