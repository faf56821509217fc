"""The frame-buffer compression baseline (Fig. 13)."""

import pytest

from repro.baselines.fbc import FrameBufferCompressionScheme
from repro.config import UHD_4K, skylake_tablet
from repro.core.burstlink import BurstLinkScheme
from repro.errors import ConfigurationError
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.power.model import PowerModel
from repro.video.source import AnalyticContentModel


def power(scheme, with_drfb=False, fps=30.0):
    config = skylake_tablet(UHD_4K)
    if with_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(UHD_4K, 24)
    run = FrameWindowSimulator(config, scheme).run(
        frames, fps, retain="full"
    )
    return PowerModel().report(run), run


class TestConfiguration:
    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            FrameBufferCompressionScheme(compression_rate=0.0)
        with pytest.raises(ConfigurationError):
            FrameBufferCompressionScheme(compression_rate=1.0)

    def test_name_reflects_rate(self):
        scheme = FrameBufferCompressionScheme(compression_rate=0.5)
        assert scheme.name == "fbc-50"

    def test_traffic_scales_set(self):
        scheme = FrameBufferCompressionScheme(compression_rate=0.3)
        assert scheme.writeback_scale == pytest.approx(0.7)
        assert scheme.fetch_scale == pytest.approx(0.7)


class TestBehaviour:
    def test_fbc_cuts_dram_traffic_by_rate(self):
        _, base_run = power(ConventionalScheme())
        _, fbc_run = power(
            FrameBufferCompressionScheme(compression_rate=0.5)
        )
        ratio = (
            fbc_run.timeline.dram_total_bytes
            / base_run.timeline.dram_total_bytes
        )
        assert ratio == pytest.approx(0.5, abs=0.05)

    def test_fbc_saves_energy(self):
        base, _ = power(ConventionalScheme())
        fbc, _ = power(
            FrameBufferCompressionScheme(compression_rate=0.5)
        )
        assert fbc.average_power_mw < base.average_power_mw

    def test_fbc50_saves_around_9_percent_at_4k(self):
        """Fig. 13: FBC-50 cuts ~9% at 4K."""
        base, _ = power(ConventionalScheme())
        fbc, _ = power(
            FrameBufferCompressionScheme(compression_rate=0.5)
        )
        reduction = 1 - fbc.average_power_mw / base.average_power_mw
        assert reduction == pytest.approx(0.09, abs=0.04)

    def test_higher_rate_saves_more(self):
        shallow, _ = power(
            FrameBufferCompressionScheme(compression_rate=0.2)
        )
        deep, _ = power(
            FrameBufferCompressionScheme(compression_rate=0.5)
        )
        assert deep.average_power_mw < shallow.average_power_mw

    def test_burstlink_beats_fbc50(self):
        """Fig. 13's punchline: BurstLink (~40%) dwarfs FBC-50 (~9%)."""
        base, _ = power(ConventionalScheme())
        fbc, _ = power(
            FrameBufferCompressionScheme(compression_rate=0.5)
        )
        burst, _ = power(BurstLinkScheme(), with_drfb=True)
        fbc_cut = 1 - fbc.average_power_mw / base.average_power_mw
        burst_cut = 1 - burst.average_power_mw / base.average_power_mw
        assert burst_cut > 3 * fbc_cut

    def test_compression_compute_cost_charged(self):
        cheap = FrameBufferCompressionScheme(
            compression_rate=0.5, compression_cost_per_mb=0.0
        )
        costly = FrameBufferCompressionScheme(
            compression_rate=0.5, compression_cost_per_mb=20e-3
        )
        cheap_report, _ = power(cheap)
        costly_report, _ = power(costly)
        assert costly_report.average_power_mw > (
            cheap_report.average_power_mw
        )
