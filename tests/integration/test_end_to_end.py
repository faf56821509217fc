"""Cross-scheme run-level invariants: every scheme, every resolution,
one set of rules that must always hold."""

import pytest

from repro.baselines import (
    FrameBufferCompressionScheme,
    VipScheme,
    ZhangScheme,
)
from repro.config import FHD, UHD_4K, skylake_tablet
from repro.core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
    WindowedVideoScheme,
)
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.power.model import PowerModel
from repro.video.source import AnalyticContentModel

ALL_SCHEMES = [
    ("conventional", ConventionalScheme, False),
    ("burstlink", BurstLinkScheme, True),
    ("bursting", FrameBurstingScheme, True),
    ("bypass", FrameBufferBypassScheme, False),
    ("windowed", WindowedVideoScheme, True),
    ("fbc", lambda: FrameBufferCompressionScheme(
        compression_rate=0.5
    ), False),
    ("zhang", ZhangScheme, False),
    ("vip", VipScheme, False),
]


@pytest.mark.parametrize(
    "name,factory,needs_drfb", ALL_SCHEMES,
    ids=[s[0] for s in ALL_SCHEMES],
)
@pytest.mark.parametrize("fps", [30.0, 60.0])
class TestUniversalInvariants:
    def _run(self, factory, needs_drfb, fps, resolution=FHD):
        config = skylake_tablet(resolution)
        if needs_drfb:
            config = config.with_drfb()
        frames = AnalyticContentModel().frames(resolution, 12)
        return FrameWindowSimulator(config, factory()).run(
            frames, fps, retain="full"
        )

    def test_timeline_covers_exactly_the_run(self, name, factory,
                                             needs_drfb, fps):
        run = self._run(factory, needs_drfb, fps)
        expected = run.stats.windows / 60.0
        assert run.duration == pytest.approx(expected)

    def test_residencies_sum_to_one(self, name, factory, needs_drfb,
                                    fps):
        run = self._run(factory, needs_drfb, fps)
        assert sum(run.residency_fractions().values()) == (
            pytest.approx(1.0)
        )

    def test_energy_is_positive_and_finite(self, name, factory,
                                           needs_drfb, fps):
        run = self._run(factory, needs_drfb, fps)
        report = PowerModel().report(run)
        assert 0 < report.average_power_mw < 20000

    def test_closed_form_identity(self, name, factory, needs_drfb,
                                  fps):
        model = PowerModel()
        run = self._run(factory, needs_drfb, fps)
        report = model.report(run)
        assert model.closed_form_average_power(report) == (
            pytest.approx(report.average_power_mw, rel=1e-9)
        )

    def test_no_deadline_misses_at_fhd(self, name, factory, needs_drfb,
                                       fps):
        run = self._run(factory, needs_drfb, fps)
        assert run.stats.deadline_misses == 0

    def test_edp_delivers_display_data(self, name, factory, needs_drfb,
                                       fps):
        run = self._run(factory, needs_drfb, fps)
        # Every scheme must physically move pixels to the panel in its
        # new-frame windows.
        assert run.timeline.edp_bytes > (
            0.5 * run.stats.new_frame_windows * FHD.frame_bytes()
        )


class TestEnergyOrderingAt4K:
    """The paper's overall Sec. 6 ordering at 4K 30 FPS."""

    @pytest.fixture(scope="class")
    def powers(self):
        frames = AnalyticContentModel().frames(UHD_4K, 16)
        model = PowerModel()
        powers = {}
        for name, factory, needs_drfb in ALL_SCHEMES:
            if name == "windowed":
                continue  # windowed targets a different scenario
            config = skylake_tablet(UHD_4K)
            if needs_drfb:
                config = config.with_drfb()
            run = FrameWindowSimulator(config, factory()).run(
                frames, 30.0
            )
            powers[name] = model.report(run).average_power_mw
        return powers

    def test_every_technique_beats_baseline(self, powers):
        for name, power in powers.items():
            if name == "conventional":
                continue
            assert power < powers["conventional"], name

    def test_full_burstlink_is_best(self, powers):
        assert powers["burstlink"] == min(powers.values())

    def test_incremental_techniques_ordered(self, powers):
        assert (
            powers["burstlink"]
            <= powers["bypass"]
            < powers["vip"]
            < powers["zhang"]
            < powers["conventional"]
        )
