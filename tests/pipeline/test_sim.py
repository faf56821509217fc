"""The frame-window simulator."""

import pytest

from repro.config import FHD, skylake_tablet
from repro.errors import DeadlineMissError, SimulationError
from repro.pipeline.builder import TimelineBuilder
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import (
    FrameWindowSimulator,
    RunStats,
    VrWork,
    WindowContext,
    WindowResult,
)
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


class BrokenScheme:
    """A scheme whose windows are too short — must be rejected."""

    name = "broken"

    def plan_window(self, ctx):
        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        builder.add(ctx.window.duration / 2, PackageCState.C8)
        return WindowResult(timeline=builder.build())


class MissingScheme:
    """A scheme that always reports a deadline miss."""

    name = "missing"

    def plan_window(self, ctx):
        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        builder.add(ctx.window.duration, PackageCState.C0,
                    cpu_active=True)
        return WindowResult(
            timeline=builder.build(), deadline_missed=True
        )


@pytest.fixture
def frames():
    return AnalyticContentModel().frames(FHD, 12, seed=1)


class TestRun:
    def test_window_count_from_fps(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0)
        # 12 frames at 30 FPS on 60 Hz = 24 windows.
        assert run.stats.windows == 24
        assert run.stats.new_frame_windows == 12
        assert run.stats.repeat_windows == 12

    def test_explicit_window_cap(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, max_windows=6)
        assert run.stats.windows == 6

    def test_timeline_is_contiguous(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0)
        assert run.duration == pytest.approx(24 / 60)

    def test_empty_frames_rejected(self, fhd_config):
        with pytest.raises(SimulationError):
            FrameWindowSimulator(
                fhd_config, ConventionalScheme()
            ).run([], 30.0)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf")])
    def test_nonfinite_fps_rejected(self, fhd_config, frames, fps):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="finite"):
            FrameWindowSimulator(fhd_config, ConventionalScheme()).run(
                frames, fps
            )

    def test_broken_scheme_detected(self, fhd_config, frames):
        with pytest.raises(SimulationError):
            FrameWindowSimulator(fhd_config, BrokenScheme()).run(
                frames, 30.0
            )

    def test_strict_deadlines_raise(self, frames):
        from dataclasses import replace

        config = replace(skylake_tablet(FHD), strict_deadlines=True)
        with pytest.raises(DeadlineMissError):
            FrameWindowSimulator(config, MissingScheme()).run(
                frames, 30.0
            )

    def test_lenient_deadlines_record(self, fhd_config, frames):
        run = FrameWindowSimulator(fhd_config, MissingScheme()).run(
            frames, 30.0
        )
        assert run.stats.deadline_misses == run.stats.windows

    def test_vr_work_length_checked(self, fhd_config, frames):
        with pytest.raises(SimulationError):
            FrameWindowSimulator(
                fhd_config, ConventionalScheme()
            ).run(frames, 30.0, vr_work=[
                VrWork(1.0, 0.0, 1.0)
            ])

    def test_residency_fractions_sum(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0)
        assert sum(run.residency_fractions().values()) == (
            pytest.approx(1.0)
        )

    def test_effective_fps_matches_content(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0)
        assert run.effective_fps == pytest.approx(30.0)

    def test_effective_fps_drops_with_misses(self, fhd_config, frames):
        run = FrameWindowSimulator(fhd_config, MissingScheme()).run(
            frames, 30.0
        )
        assert run.effective_fps == 0.0


class TestVrWork:
    def test_validation(self):
        with pytest.raises(SimulationError):
            VrWork(source_bytes=0, projection_s=1, projected_bytes=1)
        with pytest.raises(SimulationError):
            VrWork(source_bytes=1, projection_s=-1, projected_bytes=1)


class TestWindowContext:
    def test_display_bytes_caps_at_panel(self, fhd_config, frames):
        from dataclasses import replace as dc_replace

        plan = next(iter(
            __import__("repro.display.timing", fromlist=["RefreshTiming"])
            .RefreshTiming(60, 30).windows(1)
        ))
        oversized = dc_replace(
            frames[0], decoded_bytes=fhd_config.panel.frame_bytes * 4
        )
        ctx = WindowContext(
            config=fhd_config, window=plan, frame=oversized
        )
        assert ctx.display_bytes == fhd_config.panel.frame_bytes

    def test_display_bytes_override(self, fhd_config, frames):
        from repro.display.timing import RefreshTiming

        plan = next(iter(RefreshTiming(60, 30).windows(1)))
        ctx = WindowContext(
            config=fhd_config,
            window=plan,
            frame=frames[0],
            display_bytes_override=123.0,
        )
        assert ctx.display_bytes == 123.0

    def test_vr_display_bytes_is_projected(self, fhd_config, frames):
        from repro.display.timing import RefreshTiming

        plan = next(iter(RefreshTiming(60, 30).windows(1)))
        ctx = WindowContext(
            config=fhd_config,
            window=plan,
            frame=frames[0],
            vr=VrWork(1e6, 1e-3, 2e6),
        )
        assert ctx.display_bytes == 2e6


class FlaggedScheme:
    """Every window sets every per-window flag the stats count."""

    name = "flagged"

    def plan_window(self, ctx):
        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=PackageCState.C8
        )
        builder.add(ctx.window.duration, PackageCState.C8)
        return WindowResult(
            timeline=builder.build(),
            used_psr=True,
            vd_wakes=3,
            bypassed_dram=True,
            burst=True,
        )


class TestRunStats:
    def test_record_accumulates(self, fhd_config, frames):
        stats = FrameWindowSimulator(fhd_config, FlaggedScheme()).run(
            frames[:2], 30.0
        ).stats
        assert stats == RunStats(
            windows=4,
            new_frame_windows=2,
            repeat_windows=2,
            vd_wakes=12,
            psr_windows=4,
            bypassed_windows=4,
            burst_windows=4,
        )
