"""Windowed video via PSR2 selective updates."""

import pytest

from repro.config import FHD, skylake_tablet
from repro.core.windowed import WindowedVideoScheme
from repro.errors import ConfigurationError, SimulationError
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator, VrWork
from repro.power.model import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


def run(scheme=None, frames=30, fps=30.0):
    config = skylake_tablet(FHD).with_drfb()
    descriptors = AnalyticContentModel().frames(FHD, frames)
    return FrameWindowSimulator(
        config, scheme or WindowedVideoScheme()
    ).run(descriptors, fps, retain="full")


class TestValidation:
    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowedVideoScheme(video_fraction=0.0)
        with pytest.raises(ConfigurationError):
            WindowedVideoScheme(video_fraction=1.5)

    def test_negative_composition_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowedVideoScheme(composition_windows=-1)

    def test_vr_rejected(self):
        config = skylake_tablet(FHD).with_drfb()
        frames = AnalyticContentModel().frames(FHD, 4)
        vr = [VrWork(1e6, 1e-3, 1e6)] * 4
        with pytest.raises(SimulationError):
            FrameWindowSimulator(
                config, WindowedVideoScheme()
            ).run(frames, 30.0, vr_work=vr)


class TestTwoStages:
    def test_composition_stage_fetches_dram(self):
        result = run(
            WindowedVideoScheme(composition_windows=6), frames=4
        )
        window = result.config.frame_window
        early = [
            s for s in result.timeline if s.end <= 2 * window
        ]
        assert any(s.dram_read_bw > 0 for s in early)

    def test_selective_stage_is_psr(self):
        scheme = WindowedVideoScheme(composition_windows=4)
        result = run(scheme, frames=30)
        # Everything after window 4 counts as PSR-assisted.
        assert result.stats.psr_windows >= result.stats.windows - 4 - (
            result.stats.windows // 2
        )

    def test_steady_state_reaches_deep_idle(self):
        result = run(
            WindowedVideoScheme(composition_windows=2), frames=30
        )
        assert result.residency_fractions().get(
            PackageCState.C9, 0
        ) > 0.4

    def test_zero_composition_windows_allowed(self):
        result = run(
            WindowedVideoScheme(composition_windows=0), frames=6
        )
        assert result.stats.windows > 0


class TestEnergy:
    def test_cheaper_than_full_composition(self):
        config = skylake_tablet(FHD).with_drfb()
        frames = AnalyticContentModel().frames(FHD, 30)
        model = PowerModel()
        composed = model.report(
            FrameWindowSimulator(config, ConventionalScheme()).run(
                frames, 30.0
            )
        )
        windowed = model.report(
            FrameWindowSimulator(
                config, WindowedVideoScheme()
            ).run(frames, 30.0)
        )
        assert windowed.average_power_mw < composed.average_power_mw

    def test_smaller_window_is_cheaper(self):
        config = skylake_tablet(FHD).with_drfb()
        frames = AnalyticContentModel().frames(FHD, 30)
        model = PowerModel()

        def power(fraction):
            scheme = WindowedVideoScheme(
                video_fraction=fraction, composition_windows=0
            )
            return model.report(
                FrameWindowSimulator(config, scheme).run(frames, 30.0)
            ).average_power_mw

        assert power(0.1) < power(0.6)
