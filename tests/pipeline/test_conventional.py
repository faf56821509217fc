"""The conventional (PSR-baseline) scheme."""

import pytest

from repro.config import FHD, UHD_4K, UHD_5K, skylake_tablet
from repro.pipeline.conventional import (
    ConventionalScheme,
    effective_fetch_bandwidth,
)
from repro.pipeline.sim import FrameWindowSimulator
from repro.pipeline.timeline import PanelMode
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


def run(resolution=FHD, fps=30.0, frames=24, **config_kwargs):
    config = skylake_tablet(resolution)
    if config_kwargs:
        from dataclasses import replace

        config = replace(config, **config_kwargs)
    descriptors = AnalyticContentModel().frames(resolution, frames)
    return FrameWindowSimulator(config, ConventionalScheme()).run(
        descriptors, fps, retain="full"
    )


class TestTable2Residencies:
    """The scheme must land on the paper's measured Table 2 numbers."""

    def test_fhd30_residencies(self):
        fractions = run().residency_fractions()
        assert fractions[PackageCState.C0] == pytest.approx(
            0.09, abs=0.02
        )
        assert fractions[PackageCState.C2] == pytest.approx(
            0.11, abs=0.03
        )
        assert fractions[PackageCState.C8] == pytest.approx(
            0.80, abs=0.04
        )

    def test_no_c9_in_measured_baseline(self):
        """The measured baseline never reaches C9 during video."""
        fractions = run().residency_fractions()
        assert PackageCState.C9 not in fractions

    def test_idealised_variant_reaches_c9(self):
        """Fig. 3(a)'s idealised timeline parks PSR windows in C9."""
        fractions = run(
            baseline_c9_in_psr=True
        ).residency_fractions()
        assert fractions.get(PackageCState.C9, 0) > 0.3


class TestWindowStructure:
    def test_repeat_windows_use_psr(self):
        result = run(fps=30.0)
        assert result.stats.psr_windows == result.stats.repeat_windows

    def test_60fps_has_no_repeats(self):
        result = run(fps=60.0)
        assert result.stats.repeat_windows == 0

    def test_oscillation_pattern(self):
        result = run(frames=2, fps=60.0)
        pattern = result.timeline.pattern()
        assert pattern.startswith("C0 C2 C8")
        assert " C2 C8" in pattern[5:]

    def test_live_panel_in_new_frame_windows(self):
        result = run(frames=2, fps=60.0)
        live = [
            s for s in result.timeline
            if s.panel_mode is PanelMode.LIVE
        ]
        assert live


class TestTraffic:
    def test_decoded_frame_round_trips_dram(self):
        """Every displayed frame is written once and read back ~once."""
        result = run(fps=60.0, frames=30)
        frame_bytes = FHD.frame_bytes()
        writes_per_frame = (
            result.timeline.dram_write_bytes
            / result.stats.new_frame_windows
        )
        reads_per_frame = (
            result.timeline.dram_read_bytes
            / result.stats.new_frame_windows
        )
        assert writes_per_frame > frame_bytes  # decoded + encoded
        assert reads_per_frame > 0.9 * frame_bytes

    def test_repeat_windows_move_no_display_data(self):
        at_30 = run(fps=30.0, frames=30)
        at_60 = run(fps=60.0, frames=30)
        # Per second, 30 FPS moves roughly half the display traffic.
        ratio = (
            at_30.timeline.dram_total_bytes / at_30.duration
        ) / (at_60.timeline.dram_total_bytes / at_60.duration)
        assert ratio == pytest.approx(0.5, abs=0.12)


class TestScaling:
    def test_no_deadline_misses_at_any_evaluated_point(self):
        for resolution in (FHD, UHD_4K, UHD_5K):
            for fps in (30.0, 60.0):
                result = run(resolution=resolution, fps=fps, frames=8)
                assert result.stats.deadline_misses == 0, (
                    f"{resolution} @ {fps}"
                )

    def test_active_residency_grows_with_resolution(self):
        fhd = run(resolution=FHD, fps=60.0, frames=8)
        uhd = run(resolution=UHD_4K, fps=60.0, frames=8)
        busy_fhd = 1 - fhd.residency_fractions().get(
            PackageCState.C8, 0
        )
        busy_uhd = 1 - uhd.residency_fractions().get(
            PackageCState.C8, 0
        )
        assert busy_uhd > busy_fhd


class TestEffectiveFetchBandwidth:
    def test_floor_at_configured_value(self):
        config = skylake_tablet(FHD)
        assert effective_fetch_bandwidth(config) == (
            config.dram.sustained_fetch_bandwidth
        )

    def test_scales_with_pixel_rate(self):
        config = skylake_tablet(UHD_5K)
        assert effective_fetch_bandwidth(config) == pytest.approx(
            4.0 * config.panel.pixel_update_bandwidth
        )


class TestDerivedKnobs:
    def test_fetch_scale_reduces_reads(self):
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 12)
        full = FrameWindowSimulator(
            config, ConventionalScheme()
        ).run(frames, 60.0, retain="full")
        halved = FrameWindowSimulator(
            config, ConventionalScheme(fetch_scale=0.5)
        ).run(frames, 60.0, retain="full")
        assert halved.timeline.dram_read_bytes < (
            0.75 * full.timeline.dram_read_bytes
        )

    def test_writeback_scale_reduces_writes(self):
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 12)
        full = FrameWindowSimulator(
            config, ConventionalScheme()
        ).run(frames, 60.0, retain="full")
        halved = FrameWindowSimulator(
            config, ConventionalScheme(writeback_scale=0.5)
        ).run(frames, 60.0, retain="full")
        assert halved.timeline.dram_write_bytes < (
            0.8 * full.timeline.dram_write_bytes
        )


class TestSaturatedFetch:
    """A DC whose chunk setup alone outlasts the window cannot fit one
    fetch-drain cycle: it fetches flat-out for the rest of the window
    and flags the deadline miss."""

    def test_fetch_saturates_and_misses(self):
        from dataclasses import replace

        config = skylake_tablet(FHD)
        config = replace(
            config, dc=replace(config.dc, chunk_setup_latency=0.1)
        )
        frames = AnalyticContentModel().frames(FHD, 2)
        result = FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 30.0, retain="full"
        )
        assert result.stats.deadline_misses == 2
        segments = list(result.timeline)
        saturated = [
            i for i, s in enumerate(segments)
            if s.label == "fetch (saturated)"
        ]
        assert len(saturated) == 2
        # Nothing is left of the window to drain in.
        assert not any(
            s.label in ("fetch chunk", "drain") for s in segments
        )
        for index in saturated:
            segment = segments[index]
            entry = segments[index - 1]
            assert entry.label == "C0->C2" and entry.transition
            assert segment.state is PackageCState.C2
            assert segment.dc_active and not segment.cpu_active
            assert segment.panel_mode is PanelMode.LIVE
            # The full fetch bandwidth and the pixel-update rate over the
            # span, scaled up alike onto the time the C0->C2 excursion
            # left.
            span = segment.end - entry.start
            assert segment.dram_read_bw * segment.duration == (
                pytest.approx(effective_fetch_bandwidth(config) * span)
            )
            assert segment.edp_rate * segment.duration == pytest.approx(
                config.panel.pixel_update_bandwidth * span
            )
