"""Timing substrate: cost models, hardware profiles, clocks, breakdowns."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.timing.clock import PipelineSchedule, VirtualClock
    from repro.timing.costmodel import HardwareProfile, Op, calibrate_profile, profiles
    from repro.timing.report import TimingBreakdown, seconds_to_minutes

__all__ = [
    "HardwareProfile",
    "Op",
    "PipelineSchedule",
    "TimingBreakdown",
    "VirtualClock",
    "calibrate_profile",
    "profiles",
    "seconds_to_minutes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.timing.clock": ("PipelineSchedule", "VirtualClock"),
    "repro.timing.costmodel": (
        "HardwareProfile",
        "Op",
        "calibrate_profile",
        "profiles",
    ),
    "repro.timing.report": ("TimingBreakdown", "seconds_to_minutes"),
})
