"""Soak tests: long runs must stay linear, consistent, and bounded.

These exercise the simulator at session length (hundreds of windows)
rather than the handful the unit tests use — the regime where per-window
state hand-off bugs, drift, and quadratic behaviour would surface.
"""

import time

import pytest

from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.power import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel

#: Ten seconds of video: 300 frames at 30 FPS = 600 windows at 60 Hz.
FRAMES = 300


@pytest.fixture(scope="module")
def long_baseline():
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, FRAMES, seed=9)
    return FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, 30.0, retain="full"
    )


@pytest.fixture(scope="module")
def long_burstlink():
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, FRAMES, seed=9)
    return FrameWindowSimulator(config, BurstLinkScheme()).run(
        frames, 30.0
    )


class TestLongRuns:
    def test_window_count(self, long_baseline):
        assert long_baseline.stats.windows == 2 * FRAMES

    def test_no_drift_in_window_boundaries(self, long_baseline):
        """After 600 windows, the timeline end matches the analytic
        total exactly — no accumulation error."""
        assert long_baseline.duration == pytest.approx(
            2 * FRAMES / 60.0, abs=1e-9
        )

    def test_no_misses_over_a_session(self, long_baseline,
                                      long_burstlink):
        assert long_baseline.stats.deadline_misses == 0
        assert long_burstlink.stats.deadline_misses == 0

    def test_long_run_matches_short_run_average(self, long_burstlink):
        """Steady-state power over 600 windows equals the 48-window
        estimate: content variation averages out, nothing drifts."""
        config = skylake_tablet(FHD).with_drfb()
        short_frames = AnalyticContentModel().frames(FHD, 24, seed=9)
        short = FrameWindowSimulator(config, BurstLinkScheme()).run(
            short_frames, 30.0
        )
        model = PowerModel()
        long_power = model.report(long_burstlink).average_power_mw
        short_power = model.report(short).average_power_mw
        assert long_power == pytest.approx(short_power, rel=0.02)

    def test_segment_count_linear_in_windows(self, long_baseline):
        """Segments per window stay bounded (no per-window growth)."""
        per_window = len(long_baseline.timeline) / (
            long_baseline.stats.windows
        )
        assert per_window < 40

    def test_residency_stability(self, long_baseline):
        fractions = long_baseline.residency_fractions()
        assert fractions[PackageCState.C0] == pytest.approx(
            0.09, abs=0.02
        )
        assert fractions[PackageCState.C8] == pytest.approx(
            0.80, abs=0.04
        )


class TestThroughput:
    def test_simulation_is_fast_enough(self):
        """A one-second FHD session must simulate well under real time
        (the benches track the exact figure; this is the guard rail)."""
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 60, seed=1)
        start = time.perf_counter()
        FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 60.0
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
