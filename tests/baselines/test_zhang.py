"""Zhang et al.: race-to-sleep + content caching + display caching."""

import pytest

from repro.baselines.zhang import ZhangScheme
from repro.config import UHD_4K, skylake_tablet
from repro.core.burstlink import BurstLinkScheme
from repro.errors import ConfigurationError
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.power.model import PowerModel
from repro.video.source import AnalyticContentModel


def run(scheme, with_drfb=False, fps=30.0):
    config = skylake_tablet(UHD_4K)
    if with_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(UHD_4K, 24)
    return FrameWindowSimulator(config, scheme).run(
        frames, fps, retain="full"
    )


class TestConfiguration:
    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            ZhangScheme(batch_size=0)

    def test_bad_savings_rejected(self):
        with pytest.raises(ConfigurationError):
            ZhangScheme(content_cache_saving=1.0)
        with pytest.raises(ConfigurationError):
            ZhangScheme(display_cache_saving=-0.1)

    def test_bad_boost_rejected(self):
        with pytest.raises(ConfigurationError):
            ZhangScheme(boost=0.5)


class TestPaperClaims:
    def test_dram_bw_reduction_near_34_percent(self):
        """Sec. 6.4: the three techniques combined cut DRAM bandwidth
        by ~34% on average."""
        base = run(ConventionalScheme())
        zhang = run(ZhangScheme())
        reduction = 1 - (
            zhang.timeline.dram_total_bytes
            / base.timeline.dram_total_bytes
        )
        assert reduction == pytest.approx(0.34, abs=0.05)

    def test_energy_reduction_modest(self):
        """Sec. 6.4: ~6% system energy at 4K (we measure slightly more;
        within the documented band)."""
        model = PowerModel()
        base = model.report(run(ConventionalScheme()))
        zhang = model.report(run(ZhangScheme()))
        reduction = 1 - zhang.average_power_mw / base.average_power_mw
        assert 0.03 < reduction < 0.15

    def test_burstlink_far_ahead(self):
        """The paper's conclusion: BurstLink (40.6% at 4K) beats the
        three techniques combined."""
        model = PowerModel()
        base = model.report(run(ConventionalScheme()))
        zhang = model.report(run(ZhangScheme()))
        burst = model.report(run(BurstLinkScheme(), with_drfb=True))
        zhang_cut = 1 - zhang.average_power_mw / base.average_power_mw
        burst_cut = 1 - burst.average_power_mw / base.average_power_mw
        assert burst_cut > 3 * zhang_cut


class TestBatching:
    def test_batch_boundary_decodes_everything(self):
        """Every batch_size-th window carries the whole batch's decode
        traffic; the others carry almost none."""
        zhang = run(ZhangScheme(batch_size=4), fps=60.0)
        writes = [
            s.dram_write_bytes
            for s in zhang.timeline
            if s.dram_write_bw > 0
        ]
        assert max(writes) > 20 * min(w for w in writes if w > 0)

    def test_no_deadline_misses(self):
        assert run(ZhangScheme(), fps=60.0).stats.deadline_misses == 0


class TestPlanGroupKey:
    def test_keys_on_the_whole_frame(self, monkeypatch):
        """Zhang opts out of the staged-stream key it would inherit:
        a batch-decode window stages ``batch_size`` times the frame's
        encoded bytes and a mid-batch window stages a placeholder, so
        adding each window's own encoded bytes to a shared plan would
        misprice DRAM.  With the opt-out the summary run's DRAM bytes
        are the full timeline's; opted in, they are not."""
        from repro.pipeline import sim
        from repro.pipeline.sim import staged_stream_reads
        from repro.pipeline.timeline import TimelineSummary

        assert ZhangScheme.plan_reads is None
        # The run memo's key does not see a patched class attribute.
        monkeypatch.setattr(sim, "_active_memo", None)
        config = skylake_tablet(UHD_4K)
        frames = AnalyticContentModel().frames(UHD_4K, 24)

        def dram_error():
            summary = FrameWindowSimulator(config, ZhangScheme()).run(
                frames, 30.0
            )
            full = FrameWindowSimulator(config, ZhangScheme()).run(
                frames, 30.0, retain="full"
            )
            expected = TimelineSummary.from_timeline(
                full.timeline
            ).dram_read_bytes
            return abs(
                summary.summary.dram_read_bytes - expected
            ) / expected

        assert dram_error() < 1e-12
        monkeypatch.setattr(
            ZhangScheme, "plan_reads", staticmethod(staged_stream_reads)
        )
        assert dram_error() > 1e-6
