"""The PMU: resolution caps, firmware variants, and the burst rate."""

import pytest

from repro.soc.components import Component, ComponentPowerState
from repro.soc.cstates import PackageCState
from repro.soc.pmu import PlatformState, Pmu, PmuFirmware
from repro.units import gbps


def idle_platform(**kwargs) -> PlatformState:
    return PlatformState(**kwargs)


class TestFirmware:
    def test_conventional_has_no_features(self):
        firmware = PmuFirmware.conventional()
        assert not firmware.allow_c9_during_video
        assert not firmware.vd_wakeup_on_dc_empty
        assert not firmware.frame_bursting_enabled

    def test_burstlink_has_all_features(self):
        firmware = PmuFirmware.burstlink()
        assert firmware.allow_c9_during_video
        assert firmware.vd_wakeup_on_dc_empty
        assert firmware.frame_bursting_enabled

    def test_idealised_psr_variant(self):
        firmware = PmuFirmware.conventional().with_idealised_psr_c9()
        assert firmware.allow_c9_during_video
        assert not firmware.frame_bursting_enabled


class TestResolution:
    def test_lit_panel_caps_at_c9(self):
        pmu = Pmu()
        state = pmu.resolve(idle_platform(panel_displaying=True))
        assert state is PackageCState.C9

    def test_dark_panel_allows_c10(self):
        pmu = Pmu()
        platform = idle_platform(panel_displaying=False)
        assert pmu.resolve(platform) is PackageCState.C10

    def test_video_session_demotes_to_c8_on_stock_firmware(self):
        # The measured Table 2 baseline: no C9 residency during video.
        pmu = Pmu(firmware=PmuFirmware.conventional())
        platform = idle_platform(
            video_session_active=True, frame_in_remote_buffer=True
        )
        assert pmu.resolve(platform) is PackageCState.C8

    def test_burstlink_firmware_reaches_c9_during_video(self):
        pmu = Pmu(firmware=PmuFirmware.burstlink())
        platform = idle_platform(
            video_session_active=True, frame_in_remote_buffer=True
        )
        assert pmu.resolve(platform) is PackageCState.C9

    def test_c9_needs_a_resident_frame(self):
        # Even with BurstLink firmware, C9 is illegal until the frame
        # sits in the remote buffer for self-refresh.
        pmu = Pmu(firmware=PmuFirmware.burstlink())
        platform = idle_platform(
            video_session_active=True, frame_in_remote_buffer=False
        )
        assert pmu.resolve(platform) is PackageCState.C8

    def test_busy_components_win(self):
        pmu = Pmu(firmware=PmuFirmware.burstlink())
        platform = idle_platform()
        platform.components.set(
            Component.CPU, ComponentPowerState.ACTIVE
        )
        assert pmu.resolve(platform) is PackageCState.C0


class TestBurstBandwidth:
    def test_conventional_runs_at_pixel_rate(self):
        pmu = Pmu(firmware=PmuFirmware.conventional())
        assert pmu.burst_bandwidth(gbps(25.92), gbps(11.3)) == (
            pytest.approx(gbps(11.3))
        )

    def test_burstlink_runs_at_link_maximum(self):
        pmu = Pmu(firmware=PmuFirmware.burstlink())
        assert pmu.burst_bandwidth(gbps(25.92), gbps(11.3)) == (
            pytest.approx(gbps(25.92))
        )

    def test_conventional_never_exceeds_link(self):
        pmu = Pmu(firmware=PmuFirmware.conventional())
        assert pmu.burst_bandwidth(gbps(10.0), gbps(11.3)) == (
            pytest.approx(gbps(10.0))
        )


class TestPlatformState:
    def test_copy_is_independent(self):
        platform = idle_platform(video_session_active=True)
        platform.components.set(
            Component.CPU, ComponentPowerState.ACTIVE
        )
        clone = platform.copy()
        clone.components.set(
            Component.CPU, ComponentPowerState.POWER_GATED
        )
        assert platform.components.get(Component.CPU) is (
            ComponentPowerState.ACTIVE
        )
        assert clone.video_session_active
