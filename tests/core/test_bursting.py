"""Frame Bursting alone (the Burst ablation)."""

import pytest

from repro.config import FHD, UHD_4K, skylake_tablet
from repro.core.bursting import FrameBurstingScheme
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.pipeline.timeline import PanelMode
from repro.power.model import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


def run(resolution=FHD, fps=30.0, frames=24):
    config = skylake_tablet(resolution).with_drfb()
    descriptors = AnalyticContentModel().frames(resolution, frames)
    return FrameWindowSimulator(config, FrameBurstingScheme()).run(
        descriptors, fps, retain="full"
    )


class TestWindowShape:
    def test_reaches_c9_after_burst(self):
        fractions = run().residency_fractions()
        assert fractions.get(PackageCState.C9, 0.0) > 0.5

    def test_keeps_conventional_decode_in_c0(self):
        fractions = run().residency_fractions()
        # Orchestration + racing decode: C0 well above BurstLink's 2%.
        assert fractions[PackageCState.C0] > 0.04

    def test_burst_oscillates_c2_c8(self):
        result = run(resolution=UHD_4K, frames=4, fps=60.0)
        pattern = result.timeline.pattern()
        assert "C2" in pattern and "C8" in pattern

    def test_every_new_frame_bursts(self):
        result = run(frames=8, fps=60.0)
        assert result.stats.burst_windows == result.stats.windows

    def test_never_bypasses_dram(self):
        result = run(frames=8)
        assert result.stats.bypassed_windows == 0


class TestTraffic:
    def test_frame_still_round_trips_dram(self):
        """Burst-only keeps the conventional decode path: the decoded
        frame is written to and read back from DRAM."""
        result = run(frames=24, fps=60.0)
        frame_bytes = FHD.frame_bytes()
        per_frame = result.timeline.dram_total_bytes / 24
        assert per_frame > 1.8 * frame_bytes


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
        burst = model.report(
            FrameWindowSimulator(
                config.with_drfb(), FrameBurstingScheme()
            ).run(frames, fps)
        )
        return 1 - burst.average_power_mw / base.average_power_mw

    def test_fhd30_near_paper_23_percent(self):
        assert self._reduction(FHD, 30.0) == pytest.approx(
            0.23, abs=0.05
        )

    def test_burst_saves_less_than_full_burstlink(self):
        from repro.core.burstlink import BurstLinkScheme

        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 24)
        model = PowerModel()
        burst = model.report(
            FrameWindowSimulator(
                config.with_drfb(), FrameBurstingScheme()
            ).run(frames, 30.0)
        )
        full = model.report(
            FrameWindowSimulator(
                config.with_drfb(), BurstLinkScheme()
            ).run(frames, 30.0)
        )
        assert full.average_power_mw < burst.average_power_mw

    def test_benefit_shrinks_at_high_resolution(self):
        """A model finding documented in EXPERIMENTS.md: the retained
        DRAM round trip dominates at 4K, eroding burst-only gains."""
        assert self._reduction(UHD_4K, 30.0) < self._reduction(
            FHD, 30.0
        )

    def test_no_deadline_misses(self):
        for fps in (30.0, 60.0):
            assert run(resolution=UHD_4K, frames=6,
                       fps=fps).stats.deadline_misses == 0


class TestFetchBoundBurst:
    """A DC whose chunk setup alone outlasts the burst cannot nap
    between fetches: the whole burst stays in C2 at its own rate, and
    the frame still lands in time."""

    def test_burst_stays_in_c2_without_a_miss(self):
        from dataclasses import replace

        config = skylake_tablet(FHD).with_drfb()
        config = replace(
            config, dc=replace(config.dc, chunk_setup_latency=0.1)
        )
        frames = AnalyticContentModel().frames(FHD, 2)
        result = FrameWindowSimulator(config, FrameBurstingScheme()).run(
            frames, 30.0, retain="full"
        )
        assert result.stats.deadline_misses == 0
        segments = list(result.timeline)
        bound = [s for s in segments if s.label == "burst (fetch-bound)"]
        assert len(bound) == 2
        assert not any(s.label == "burst fetch" for s in segments)
        for segment in bound:
            assert segment.state is PackageCState.C2
            assert segment.dc_active and segment.drfb_active
            assert segment.panel_mode is PanelMode.SELF_REFRESH
            # The DC streams what it fetches: one rate for both.
            assert segment.dram_read_bw > 0
            assert segment.edp_rate == segment.dram_read_bw
