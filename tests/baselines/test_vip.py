"""VIP: virtualized IP chains."""

import pytest

from repro.baselines.vip import VipScheme
from repro.config import FHD, UHD_4K, skylake_tablet
from repro.core.burstlink import BurstLinkScheme
from repro.core.bypass import FrameBufferBypassScheme
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.power.model import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


def run(scheme, resolution=UHD_4K, with_drfb=False, fps=30.0):
    config = skylake_tablet(resolution)
    if with_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(resolution, 24)
    return FrameWindowSimulator(config, scheme).run(
        frames, fps, retain="full"
    )


class TestChaining:
    def test_decoded_frames_skip_dram(self):
        base = run(ConventionalScheme())
        vip = run(VipScheme())
        assert vip.timeline.dram_total_bytes < (
            base.timeline.dram_total_bytes / 10
        )

    def test_display_path_active_all_window(self):
        """VIP's limitation: the panel consumes across the whole
        window, pinning the DC/eDP — no deep C9."""
        vip = run(VipScheme(), fps=60.0)
        fractions = vip.residency_fractions()
        assert fractions.get(PackageCState.C9, 0.0) == 0.0
        assert fractions.get(PackageCState.C8, 0.0) > 0.5

    def test_repeat_windows_park_in_c8(self):
        vip = run(VipScheme(), fps=30.0)
        assert vip.residency_fractions().get(
            PackageCState.C9, 0.0
        ) == 0.0

    def test_orchestration_reduced(self):
        base = run(ConventionalScheme(), fps=30.0)
        vip = run(VipScheme(), fps=30.0)
        assert vip.residency_fractions()[PackageCState.C0] < (
            base.residency_fractions()[PackageCState.C0]
        )


class TestEnergyOrdering:
    def test_vip_beats_baseline(self):
        model = PowerModel()
        base = model.report(run(ConventionalScheme()))
        vip = model.report(run(VipScheme()))
        assert vip.average_power_mw < base.average_power_mw

    def test_burstlink_beats_vip_at_4k(self):
        """Sec. 6.4: BurstLink can gate the VD/DC/eDP for most of the
        window; VIP cannot."""
        model = PowerModel()
        vip = model.report(run(VipScheme()))
        burst = model.report(run(BurstLinkScheme(), with_drfb=True))
        assert burst.average_power_mw < vip.average_power_mw

    def test_bypass_beats_vip(self):
        """Our bypass ablation adds the C7 decode and C9 repeats on top
        of what VIP's chaining gives."""
        model = PowerModel()
        vip = model.report(run(VipScheme(), resolution=FHD))
        bypass = model.report(
            run(FrameBufferBypassScheme(), resolution=FHD)
        )
        assert bypass.average_power_mw < vip.average_power_mw

    def test_no_deadline_misses(self):
        assert run(VipScheme(), fps=60.0).stats.deadline_misses == 0
