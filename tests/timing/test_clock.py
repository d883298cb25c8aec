"""Tests for :mod:`repro.timing.clock` and :mod:`repro.timing.report`."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ParameterError
from repro.timing.clock import PipelineSchedule, VirtualClock
from repro.timing.report import TimingBreakdown, seconds_to_minutes


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ParameterError):
            VirtualClock().advance(-1)

    def test_wait_until_only_moves_forward(self):
        clock = VirtualClock(10.0)
        clock.wait_until(5.0)
        assert clock.now == 10.0
        clock.wait_until(12.0)
        assert clock.now == 12.0


class TestPipelineSchedule:
    def test_rejects_mismatched_stages(self):
        with pytest.raises(ParameterError):
            PipelineSchedule([1.0], [1.0, 2.0], [1.0])

    def test_rejects_negative_durations(self):
        with pytest.raises(ParameterError):
            PipelineSchedule([-1.0], [1.0], [1.0])

    def test_empty_pipeline(self):
        assert PipelineSchedule([], [], []).makespan() == 0.0

    def test_single_batch_is_sequential(self):
        schedule = PipelineSchedule([2.0], [1.0], [3.0])
        assert schedule.makespan() == pytest.approx(6.0)

    def test_dominant_stage_bounds_makespan(self):
        # 10 batches: client 1.0 each (dominant), link/server 0.1 each.
        schedule = PipelineSchedule([1.0] * 10, [0.1] * 10, [0.1] * 10)
        makespan = schedule.makespan()
        # Dominant stage total + fill/drain of the other two stages.
        assert makespan == pytest.approx(10.0 + 0.1 + 0.1)

    def test_makespan_never_below_any_stage_total(self):
        schedule = PipelineSchedule([0.5] * 8, [0.7] * 8, [0.3] * 8)
        assert schedule.makespan() >= max(schedule.stage_totals())

    def test_makespan_never_above_sequential(self):
        schedule = PipelineSchedule([0.5] * 8, [0.7] * 8, [0.3] * 8)
        assert schedule.makespan() <= sum(schedule.stage_totals())

    def test_completion_times_monotone(self):
        schedule = PipelineSchedule([1, 2, 1], [0.5, 0.1, 0.9], [1, 1, 1])
        times = schedule.completion_times()
        assert times == sorted(times)

    @given(
        st.lists(st.floats(0, 10), min_size=1, max_size=20),
        st.data(),
    )
    def test_bounds_property(self, client, data):
        k = len(client)
        link = data.draw(st.lists(st.floats(0, 10), min_size=k, max_size=k))
        server = data.draw(st.lists(st.floats(0, 10), min_size=k, max_size=k))
        schedule = PipelineSchedule(client, link, server)
        makespan = schedule.makespan()
        totals = schedule.stage_totals()
        assert makespan >= max(totals) - 1e-9
        assert makespan <= sum(totals) + 1e-9


class TestTimingBreakdown:
    def test_totals(self):
        b = TimingBreakdown(
            client_encrypt_s=10,
            server_compute_s=5,
            communication_s=3,
            client_decrypt_s=1,
            offline_precompute_s=100,
            combine_s=2,
        )
        assert b.total_online_s() == 21
        assert b.total_s() == 121

    def test_minutes_view(self):
        b = TimingBreakdown(client_encrypt_s=120)
        assert b.as_minutes()["client_encrypt"] == 2.0

    def test_add(self):
        a = TimingBreakdown(client_encrypt_s=1, combine_s=2)
        b = TimingBreakdown(client_encrypt_s=3, server_compute_s=4)
        total = a.add(b)
        assert total.client_encrypt_s == 4
        assert total.server_compute_s == 4
        assert total.combine_s == 2

    def test_seconds_to_minutes(self):
        assert seconds_to_minutes(90) == 1.5
