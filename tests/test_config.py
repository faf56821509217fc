"""Configuration objects: resolutions, panels, links, whole systems."""

import pytest

from repro.config import (
    EDP_1_3,
    EDP_1_4,
    DisplayControllerConfig,
    DramConfig,
    EdpConfig,
    FHD,
    GpuConfig,
    OrchestrationConfig,
    PLANAR_RESOLUTIONS,
    PanelConfig,
    QHD,
    Resolution,
    SystemConfig,
    UHD_4K,
    UHD_5K,
    VR_EYE_RESOLUTIONS,
    VideoDecoderConfig,
    skylake_tablet,
    vr_headset,
    vr_panel_resolution,
)
from repro.errors import ConfigurationError
from repro.units import gbps, mib


class TestResolution:
    def test_pixels(self):
        assert FHD.pixels == 1920 * 1080

    def test_frame_bytes_24bpp(self):
        # The paper quotes ~24 MB for a 4K frame.
        assert UHD_4K.frame_bytes() == 3840 * 2160 * 3
        assert UHD_4K.frame_bytes() / mib(1) == pytest.approx(23.7, abs=0.1)

    def test_frame_bytes_30bpp_rejected_unless_byte_aligned(self):
        with pytest.raises(ConfigurationError):
            FHD.frame_bytes(bits_per_pixel=30)

    def test_frame_bytes_32bpp(self):
        assert FHD.frame_bytes(32) == FHD.pixels * 4

    def test_macroblocks(self):
        assert FHD.macroblocks(16) == 120 * 68  # 1920/16 x ceil(1080/16)

    def test_macroblocks_rounds_up(self):
        assert Resolution(17, 17).macroblocks(16) == 4

    def test_macroblocks_rejects_bad_block(self):
        with pytest.raises(ConfigurationError):
            FHD.macroblocks(0)

    def test_scaled(self):
        half = FHD.scaled(0.5)
        assert (half.width, half.height) == (960, 540)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FHD.scaled(0)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigurationError):
            Resolution(0, 1080)

    def test_str_uses_name(self):
        assert str(FHD) == "FHD"
        assert str(Resolution(640, 480)) == "640x480"

    def test_planar_sweep_order(self):
        assert PLANAR_RESOLUTIONS == (FHD, QHD, UHD_4K, UHD_5K)

    def test_vr_eye_resolutions_match_fig11b(self):
        assert [str(r) for r in VR_EYE_RESOLUTIONS] == [
            "960x1080", "1080x1200", "1280x1440", "1440x1600",
        ]

    def test_vr_panel_doubles_width(self):
        panel = vr_panel_resolution(VR_EYE_RESOLUTIONS[0])
        assert panel.width == 2 * 960
        assert panel.height == 1080


class TestEdpConfig:
    def test_edp14_peak_matches_paper(self):
        assert EDP_1_4.max_bandwidth == pytest.approx(gbps(25.92))

    def test_edp13_slower(self):
        assert EDP_1_3.max_bandwidth < EDP_1_4.max_bandwidth

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            EdpConfig(max_bandwidth=0)

    def test_rejects_bad_lanes(self):
        with pytest.raises(ConfigurationError):
            EdpConfig(lane_count=0)

    def test_rejects_negative_wake(self):
        with pytest.raises(ConfigurationError):
            EdpConfig(wake_latency=-1)


class TestPanelConfig:
    def test_frame_window(self):
        assert PanelConfig(refresh_hz=60).frame_window == pytest.approx(
            1 / 60
        )

    def test_pixel_update_bandwidth_4k60(self):
        # The paper's Observation 2: ~11.3 Gbps for 4K 60 Hz.
        panel = PanelConfig(resolution=UHD_4K, refresh_hz=60)
        assert panel.pixel_update_bandwidth * 8 / 1e9 == pytest.approx(
            11.9, abs=0.1
        )

    def test_drfb_flag(self):
        assert not PanelConfig().has_drfb
        assert PanelConfig().with_drfb().has_drfb

    def test_with_drfb_preserves_resolution(self):
        panel = PanelConfig(resolution=UHD_4K).with_drfb()
        assert panel.resolution is UHD_4K

    def test_rejects_zero_refresh(self):
        with pytest.raises(ConfigurationError):
            PanelConfig(refresh_hz=0)

    def test_rejects_bad_buffer_count(self):
        with pytest.raises(ConfigurationError):
            PanelConfig(remote_buffers=3)

    def test_psr_needs_a_buffer(self):
        with pytest.raises(ConfigurationError):
            PanelConfig(remote_buffers=0, supports_psr=True)


class TestDramConfig:
    def test_default_is_lpddr3(self):
        assert "LPDDR3" in DramConfig().name

    def test_rejects_fetch_above_peak(self):
        with pytest.raises(ConfigurationError):
            DramConfig(sustained_fetch_bandwidth=1e12)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            DramConfig(capacity=0)

    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigurationError):
            DramConfig(channels=0)


class TestVideoDecoderConfig:
    def test_race_decodes_at_max_rate(self):
        decoder = VideoDecoderConfig()
        frame = FHD.frame_bytes()
        assert decoder.decode_time(frame, 1 / 60, race=True) == (
            pytest.approx(frame / decoder.max_output_rate)
        )

    def test_latency_tolerant_stretches_to_target(self):
        decoder = VideoDecoderConfig()
        window = 1 / 60
        stretched = decoder.decode_time(
            FHD.frame_bytes(), window, race=False
        )
        assert stretched == pytest.approx(
            decoder.deadline_utilization * window
        )

    def test_latency_tolerant_never_faster_than_max_rate(self):
        decoder = VideoDecoderConfig()
        frame = UHD_5K.frame_bytes()
        window = 1 / 60
        lower_bound = frame / decoder.max_output_rate
        assert decoder.decode_time(frame, window, race=False) >= (
            lower_bound - 1e-12
        )

    def test_rejects_bad_utilization(self):
        with pytest.raises(ConfigurationError):
            VideoDecoderConfig(deadline_utilization=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            VideoDecoderConfig(max_output_rate=0)


class TestGpuConfig:
    def test_projection_time_scales_superlinearly(self):
        gpu = GpuConfig()
        one = gpu.projection_time(1e6)
        four = gpu.projection_time(4e6)
        assert four > 4 * one  # super-linear in pixels

    def test_motion_overhead(self):
        gpu = GpuConfig()
        calm = gpu.projection_time(1e6, head_velocity_deg_s=0)
        fast = gpu.projection_time(1e6, head_velocity_deg_s=100)
        assert fast > calm

    def test_intensity_scales_linearly(self):
        gpu = GpuConfig()
        assert gpu.projection_time(1e6, intensity=2.0) == pytest.approx(
            2 * gpu.projection_time(1e6)
        )

    def test_rejects_sublinear_exponent(self):
        with pytest.raises(ConfigurationError):
            GpuConfig(resolution_exponent=0.9)

    def test_rejects_negative_velocity(self):
        with pytest.raises(ConfigurationError):
            GpuConfig().projection_time(1e6, head_velocity_deg_s=-1)


class TestDisplayControllerConfig:
    def test_half_buffer(self):
        dc = DisplayControllerConfig(buffer_size=mib(1))
        assert dc.half_buffer == mib(1) / 2

    def test_bypass_chunk_cycles(self):
        dc = DisplayControllerConfig(buffer_size=mib(1))
        assert dc.bypass_chunk_cycles(mib(6)) == 12

    def test_bypass_chunk_cycles_rounds_up(self):
        dc = DisplayControllerConfig(buffer_size=mib(1))
        assert dc.bypass_chunk_cycles(mib(1) / 2 + 1) == 2

    def test_bypass_rejects_nonpositive_frame(self):
        with pytest.raises(ConfigurationError):
            DisplayControllerConfig().bypass_chunk_cycles(0)

    def test_chunk_cannot_exceed_buffer(self):
        with pytest.raises(ConfigurationError):
            DisplayControllerConfig(
                buffer_size=mib(1), chunk_size=mib(2)
            )

    def test_rejects_zero_fetch_cycles(self):
        with pytest.raises(ConfigurationError):
            DisplayControllerConfig(max_fetch_cycles_per_window=0)


class TestOrchestrationConfig:
    def test_burstlink_cheaper_than_baseline(self):
        orchestration = OrchestrationConfig()
        assert (
            orchestration.burstlink_per_frame
            < orchestration.baseline_per_frame
        )

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            OrchestrationConfig(baseline_per_frame=-1)


class TestSystemConfig:
    def test_default_builds(self):
        config = SystemConfig()
        assert config.panel.resolution is FHD

    def test_frame_window(self):
        assert skylake_tablet(FHD).frame_window == pytest.approx(1 / 60)

    def test_with_drfb(self):
        assert skylake_tablet(FHD).with_drfb().panel.has_drfb

    def test_rejects_link_slower_than_panel(self):
        # A 4K 144 Hz panel needs ~28.7 Gbps > eDP 1.4's 25.92.
        with pytest.raises(ConfigurationError):
            skylake_tablet(UHD_4K, refresh_hz=144)

    def test_5k60_fits_edp14(self):
        config = skylake_tablet(UHD_5K, refresh_hz=60)
        assert config.panel.pixel_update_bandwidth < (
            config.edp.max_bandwidth
        )

    def test_vr_headset_panel_is_two_eyes(self):
        config = vr_headset(VR_EYE_RESOLUTIONS[0])
        assert config.panel.resolution.width == 1920
