"""Frame Buffer Bypass alone (the Bypass ablation, Fig. 6)."""

import pytest

from repro.config import FHD, UHD_4K, UHD_5K, skylake_tablet
from repro.core.bypass import FrameBufferBypassScheme
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.power.model import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


def run(resolution=FHD, fps=30.0, frames=24):
    config = skylake_tablet(resolution)
    descriptors = AnalyticContentModel().frames(resolution, frames)
    return FrameWindowSimulator(
        config, FrameBufferBypassScheme()
    ).run(descriptors, fps, retain="full")


class TestFig6Shape:
    def test_c7_oscillation_spans_the_window(self):
        """Without bursting, the decode-display interleave covers the
        whole new-frame window at the pixel rate."""
        result = run(frames=2, fps=60.0)
        unfolded = result.timeline.residencies(fold_prime=False)
        c7_family = unfolded.get(PackageCState.C7, 0) + unfolded.get(
            PackageCState.C7_PRIME, 0
        )
        assert c7_family / result.duration > 0.75

    def test_pattern_alternates_c7_c7prime(self):
        result = run(frames=2, fps=60.0)
        pattern = result.timeline.pattern()
        assert "C7 C7'" in pattern

    def test_vd_wakes_once_per_buffer_cycle(self):
        result = run(frames=4, fps=60.0)
        cycles = skylake_tablet(FHD).dc.bypass_chunk_cycles(
            FHD.frame_bytes()
        )
        assert result.stats.vd_wakes == 4 * cycles

    def test_repeat_windows_reach_c9(self):
        fractions = run(fps=30.0).residency_fractions()
        assert fractions.get(PackageCState.C9, 0.0) > 0.3


class TestTraffic:
    def test_video_plane_never_touches_dram(self):
        result = run(frames=24, fps=30.0)
        encoded_total = 2 * sum(
            f.encoded_bytes
            for f in AnalyticContentModel().frames(FHD, 24)
        )
        assert result.timeline.dram_total_bytes == pytest.approx(
            encoded_total, rel=0.05
        )

    def test_edp_at_pixel_rate_not_burst(self):
        """Bypass-only drains at the pixel-update rate: the link is
        busy essentially the whole new-frame window."""
        result = run(frames=4, fps=60.0)
        busy = sum(
            s.duration for s in result.timeline if s.edp_rate > 0
        )
        assert busy / result.duration > 0.75


class TestEnergy:
    def _reduction(self, resolution, fps):
        config = skylake_tablet(resolution)
        frames = AnalyticContentModel().frames(resolution, 24)
        model = PowerModel()
        base = model.report(
            FrameWindowSimulator(config, ConventionalScheme()).run(
                frames, fps
            )
        )
        bypass = model.report(
            FrameWindowSimulator(
                config, FrameBufferBypassScheme()
            ).run(frames, fps)
        )
        return 1 - bypass.average_power_mw / base.average_power_mw

    def test_fhd30_near_paper_31_percent(self):
        assert self._reduction(FHD, 30.0) == pytest.approx(
            0.31, abs=0.06
        )

    def test_bypass_beats_burst_at_fhd(self):
        """Fig. 9's ordering: bypass (31%) > burst (23%) at FHD."""
        from repro.core.bursting import FrameBurstingScheme

        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 24)
        model = PowerModel()
        bypass = model.report(
            FrameWindowSimulator(
                config, FrameBufferBypassScheme()
            ).run(frames, 30.0)
        )
        burst = model.report(
            FrameWindowSimulator(
                config.with_drfb(), FrameBurstingScheme()
            ).run(frames, 30.0)
        )
        assert bypass.average_power_mw < burst.average_power_mw

    def test_fig14a_local_playback_over_40_percent(self):
        """Fig. 14a: >40% for high-resolution local playback."""
        assert self._reduction(UHD_5K, 60.0) > 0.40

    def test_no_deadline_misses(self):
        for resolution in (FHD, UHD_4K, UHD_5K):
            result = run(resolution=resolution, frames=4, fps=60.0)
            assert result.stats.deadline_misses == 0
