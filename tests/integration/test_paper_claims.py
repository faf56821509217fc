"""The paper's headline claims, checked end-to-end through the public
API.  Each test names the claim and where the paper makes it."""

import pytest

import repro
from repro import (
    BurstLinkScheme,
    ConventionalScheme,
    FrameWindowSimulator,
    PowerModel,
    skylake_tablet,
)
from repro.analysis.energy import energy_reduction
from repro.config import FHD, UHD_4K, UHD_5K
from repro.core import HardwareCostModel
from repro.units import to_gbps
from repro.video.source import AnalyticContentModel


def reduction(resolution, fps, frames=24):
    config = skylake_tablet(resolution)
    descriptors = AnalyticContentModel().frames(resolution, frames)
    model = PowerModel()
    base = model.report(
        FrameWindowSimulator(config, ConventionalScheme()).run(
            descriptors, fps
        )
    )
    burst = model.report(
        FrameWindowSimulator(
            config.with_drfb(), BurstLinkScheme()
        ).run(descriptors, fps)
    )
    return energy_reduction(base, burst)


class TestAbstractClaims:
    def test_4k_planar_reduction_at_least_41_percent(self):
        """Abstract: 41% for 4K planar streaming (our baseline scales
        steeper, so we exceed it)."""
        assert reduction(UHD_4K, 60.0) >= 0.41

    def test_vr_reduction_up_to_33_percent(self):
        """Abstract: 33% for VR streaming."""
        from repro.workloads import VR_WORKLOADS, vr_streaming_run

        model = PowerModel()
        best = 0.0
        for workload in VR_WORKLOADS.values():
            base = model.report(
                vr_streaming_run(
                    workload, ConventionalScheme(), frame_count=16
                )
            )
            burst = model.report(
                vr_streaming_run(
                    workload,
                    BurstLinkScheme(),
                    frame_count=16,
                    with_drfb=True,
                )
            )
            best = max(best, energy_reduction(base, burst))
        assert best == pytest.approx(0.33, abs=0.04)

    def test_reduction_grows_with_resolution_and_refresh(self):
        """Abstract: 'provides an even higher energy reduction in
        future video streaming systems with higher display
        resolutions'."""
        assert reduction(UHD_5K, 30.0) > reduction(FHD, 30.0)
        assert reduction(FHD, 60.0) > reduction(FHD, 30.0)


class TestObservation2:
    def test_conventional_edp_underutilised(self):
        """Sec. 3: conventional 4K 60 Hz streams at ~11.3-11.9 Gbps on
        a 25.92 Gbps link."""
        config = skylake_tablet(UHD_4K)
        rate = to_gbps(config.panel.pixel_update_bandwidth)
        assert rate == pytest.approx(11.9, abs=0.3)
        assert rate / to_gbps(config.edp.max_bandwidth) < 0.5

    def test_burst_frees_over_half_the_window(self):
        """Sec. 3: a 4K frame bursts in ~7.2-7.7 ms of a 16.7 ms
        window."""
        config = skylake_tablet(UHD_4K)
        burst = config.panel.frame_bytes / config.edp.max_bandwidth
        assert burst / config.frame_window == pytest.approx(
            0.46, abs=0.03
        )


class TestGeneralTakeaway:
    def test_dram_as_hub_is_the_inefficiency(self):
        """The paper's takeaway: the DRAM hop is what costs; removing
        it removes the majority of non-panel datapath energy."""
        config = skylake_tablet(UHD_4K)
        frames = AnalyticContentModel().frames(UHD_4K, 16)
        model = PowerModel()
        base_run = FrameWindowSimulator(
            config, ConventionalScheme()
        ).run(frames, 30.0, retain="full")
        burst_run = FrameWindowSimulator(
            config.with_drfb(), BurstLinkScheme()
        ).run(frames, 30.0, retain="full")
        assert burst_run.timeline.dram_total_bytes < (
            0.01 * base_run.timeline.dram_total_bytes
        )

    def test_drfb_cost_negligible_vs_savings(self):
        """Sec. 4.4: the DRFB's 58 mW overhead is far below the
        savings."""
        config = skylake_tablet(UHD_4K)
        frames = AnalyticContentModel().frames(UHD_4K, 16)
        model = PowerModel()
        base = model.report(
            FrameWindowSimulator(config, ConventionalScheme()).run(
                frames, 60.0
            )
        )
        burst = model.report(
            FrameWindowSimulator(
                config.with_drfb(), BurstLinkScheme()
            ).run(frames, 60.0)
        )
        saved = base.average_power_mw - burst.average_power_mw
        overhead = HardwareCostModel().report(
            config.panel
        ).drfb_power_overhead_mw
        assert saved > 10 * overhead


class TestPublicApi:
    def test_quickstart_snippet_works(self):
        """The README/module-docstring quickstart must run as written."""
        config = repro.skylake_tablet(repro.UHD_4K)
        frames = AnalyticContentModel().frames(repro.UHD_4K, 12)
        baseline = repro.FrameWindowSimulator(
            config, repro.ConventionalScheme()
        ).run(frames, video_fps=60.0)
        burstlink = repro.FrameWindowSimulator(
            config.with_drfb(), repro.BurstLinkScheme()
        ).run(frames, video_fps=60.0)
        model = repro.PowerModel()
        saving = 1 - (
            model.report(burstlink).average_power_mw
            / model.report(baseline).average_power_mw
        )
        assert 0.3 < saving < 0.8

    def test_version_exported(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
