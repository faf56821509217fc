"""The long-trace memory gate.

Summary retention exists so that trace length never shows up in memory:
a 10-minute ambient-standby run must peak within 25% of a 1-minute run,
and a 3-hour one within 25% of a 20-minute one.  This is the CI gate
behind ``make long-trace`` — if a change starts accumulating per-window
or per-frame state (segments, plans, digests, cadence tables), the 9-10x
duration blows straight through the bound.
"""

import tracemalloc

from repro.config import FHD, skylake_tablet
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.builder import TimelineBuilder
from repro.pipeline.sim import WindowResult, install_run_memo
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel, RepeatingFrameSource
from repro.workloads.standby import (
    AmbientStandbyWorkload,
    ambient_standby_run,
)


def _peak_bytes(duration_s, update_fps=0.2):
    """Peak traced allocation of one summary-mode ambient run."""
    workload = AmbientStandbyWorkload(
        duration_s=duration_s, update_fps=update_fps
    )
    tracemalloc.start()
    try:
        run = ambient_standby_run(
            workload, ConventionalScheme(), retain="summary"
        )
        assert run.timeline is None
        assert run.stats.windows == workload.window_count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_summary_mode_memory_is_flat_in_duration():
    previous = install_run_memo(None)
    try:
        # Warm-up run: lazy imports, metric registrations, and interned
        # objects land outside the measured windows.
        _peak_bytes(10.0)
        one_minute = _peak_bytes(60.0)
        ten_minutes = _peak_bytes(600.0)
    finally:
        install_run_memo(previous)
    assert ten_minutes <= one_minute * 1.25, (
        f"10-minute trace peaked at {ten_minutes} bytes, "
        f"1-minute at {one_minute} — summary mode is no longer O(1)"
    )


def test_low_update_rate_memory_is_flat_in_duration():
    """At 0.2 Hz frames are 300x fewer than windows: a 3-hour session
    (2,160 updates) peaks like a 20-minute one (240 updates)."""
    previous = install_run_memo(None)
    try:
        _peak_bytes(10.0, update_fps=0.2)
        twenty_minutes = _peak_bytes(1_200.0, update_fps=0.2)
        three_hours = _peak_bytes(10_800.0, update_fps=0.2)
    finally:
        install_run_memo(previous)
    assert three_hours <= twenty_minutes * 1.25, (
        f"3-hour trace peaked at {three_hours} bytes, "
        f"20-minute at {twenty_minutes} — the cadence is no longer O(1)"
    )


def test_two_hertz_memory_is_flat_in_duration():
    """2 Hz is the rate with the most updates per session, where the
    steady updates are accounted in blocks: a 3-hour session (21,600
    updates) peaks like a 20-minute one (2,400 updates)."""
    previous = install_run_memo(None)
    try:
        _peak_bytes(10.0, update_fps=2.0)
        twenty_minutes = _peak_bytes(1_200.0, update_fps=2.0)
        three_hours = _peak_bytes(10_800.0, update_fps=2.0)
    finally:
        install_run_memo(previous)
    assert three_hours <= twenty_minutes * 1.25, (
        f"3-hour trace peaked at {three_hours} bytes, "
        f"20-minute at {twenty_minutes} — block walking is no longer O(1)"
    )


class _UnkeyedScheme:
    """A scheme without ``plan_key()``: nothing is ever replayed."""

    name = "unkeyed"

    def plan_window(self, ctx):
        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        builder.add(ctx.window.duration, PackageCState.C8)
        return WindowResult(timeline=builder.build())


def _unkeyed_peak_bytes(frame_count):
    config = skylake_tablet(FHD)
    frame = AnalyticContentModel().frames(FHD, 1, seed=1)[0]
    tracemalloc.start()
    try:
        run = FrameWindowSimulator(config, _UnkeyedScheme()).run(
            RepeatingFrameSource(frame, frame_count), 30.0,
            retain="summary",
        )
        assert run.stats.windows == 2 * frame_count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_unreplayed_windows_fold_as_they_go():
    """A run that never replays a plan holds no window for the
    end-of-run fold: its memory is flat in length too."""
    previous = install_run_memo(None)
    try:
        _unkeyed_peak_bytes(600)  # warm-up, not measured
        short = _unkeyed_peak_bytes(1_200)
        long = _unkeyed_peak_bytes(12_000)
    finally:
        install_run_memo(previous)
    assert long <= short * 1.25, (
        f"{long} bytes at 24,000 windows vs {short} at 2,400"
    )
