"""The Sec. 4.5 generalization: capture with producer-side staging."""

import pytest

from repro.config import FHD, UHD_4K, skylake_tablet
from repro.core.capture import (
    BurstCaptureScheme,
    ConventionalCaptureScheme,
)
from repro.pipeline.sim import FrameWindowSimulator
from repro.power.model import PlatformExtras, PowerModel
from repro.soc.cstates import PackageCState
from repro.video.frames import FrameType
from repro.video.source import FrameDescriptor


def capture_frames(resolution, count=16, encode_ratio=30.0):
    raw = float(resolution.frame_bytes())
    return [
        FrameDescriptor(
            index=i,
            frame_type=FrameType.I,
            encoded_bytes=raw / encode_ratio,
            decoded_bytes=raw,
        )
        for i in range(count)
    ]


def run(scheme, resolution=FHD, fps=30.0, with_drfb=False):
    config = skylake_tablet(resolution)
    if with_drfb:
        config = config.with_drfb()
    return FrameWindowSimulator(config, scheme).run(
        capture_frames(resolution), fps, retain="full"
    )


class TestConventionalCapture:
    def test_raw_frame_round_trips_dram(self):
        result = run(ConventionalCaptureScheme(), fps=30.0)
        raw = FHD.frame_bytes()
        per_frame = (
            result.timeline.dram_total_bytes
            / result.stats.new_frame_windows
        )
        # ISP write + encoder read + encoded out/in + preview fetch.
        assert per_frame > 2.5 * raw

    def test_preview_streams_live(self):
        result = run(ConventionalCaptureScheme(), fps=30.0)
        assert result.timeline.edp_bytes > 0

    def test_no_deadline_misses(self):
        result = run(ConventionalCaptureScheme(), fps=30.0)
        assert result.stats.deadline_misses == 0


class TestBurstCapture:
    def test_raw_frames_never_touch_dram(self):
        result = run(BurstCaptureScheme(), with_drfb=True)
        raw = FHD.frame_bytes()
        per_frame = (
            result.timeline.dram_total_bytes
            / result.stats.new_frame_windows
        )
        # Only the encoded output lands in DRAM.
        assert per_frame < 0.1 * raw

    def test_reaches_c9(self):
        result = run(BurstCaptureScheme(), with_drfb=True)
        assert result.residency_fractions().get(
            PackageCState.C9, 0
        ) > 0.5

    def test_preview_bursts(self):
        result = run(BurstCaptureScheme(), with_drfb=True)
        assert result.stats.burst_windows == (
            result.stats.new_frame_windows
        )
        assert result.stats.bypassed_windows == (
            result.stats.new_frame_windows
        )

    def test_no_deadline_misses_at_4k(self):
        result = run(
            BurstCaptureScheme(), resolution=UHD_4K, with_drfb=True
        )
        assert result.stats.deadline_misses == 0


class TestEnergy:
    def _reduction(self, resolution, fps=30.0):
        model = PowerModel(
            extras=PlatformExtras(
                streaming=False, local_playback=True
            )
        )
        base = model.report(
            run(ConventionalCaptureScheme(), resolution, fps)
        )
        burst = model.report(
            run(BurstCaptureScheme(), resolution, fps,
                with_drfb=True)
        )
        return 1 - burst.average_power_mw / base.average_power_mw

    def test_generalization_saves_at_fhd(self):
        """The Sec. 4.5 claim: the same mechanism pays off with the
        remote memory at the producer."""
        assert self._reduction(FHD) > 0.25

    def test_savings_hold_at_4k(self):
        assert self._reduction(UHD_4K) > 0.25
