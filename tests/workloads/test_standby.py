"""Connected standby (the C10 regime)."""

import pytest

from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.pipeline import ConventionalScheme, sim
from repro.pipeline.sim import install_run_memo
from repro.power.model import PlatformExtras, PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import FrameDescriptor
from repro.workloads.standby import (
    AmbientStandbyWorkload,
    ambient_standby_run,
    standby_power_mw,
    standby_timeline,
)


@pytest.fixture
def config():
    return skylake_tablet(FHD)


class TestTimeline:
    def test_duration(self, config):
        timeline = standby_timeline(config, duration_s=30.0)
        assert timeline.duration == pytest.approx(30.0)

    def test_c10_dominates(self, config):
        fractions = standby_timeline(
            config, duration_s=30.0
        ).residency_fractions()
        assert fractions[PackageCState.C10] > 0.98

    def test_wake_count(self, config):
        timeline = standby_timeline(
            config, duration_s=60.0, wake_interval_s=10.0
        )
        wakes = [
            s for s in timeline
            if s.cpu_active and not s.transition
        ]
        # One wake per 10 s cadence tick, including the one that lands
        # exactly on the 60 s boundary.
        assert len(wakes) == 6

    def test_panel_stays_off(self, config):
        from repro.pipeline.timeline import PanelMode

        timeline = standby_timeline(config, duration_s=20.0)
        assert all(
            s.panel_mode is PanelMode.OFF for s in timeline
        )

    def test_validation(self, config):
        with pytest.raises(ConfigurationError):
            standby_timeline(config, duration_s=0)
        with pytest.raises(ConfigurationError):
            standby_timeline(config, wake_interval_s=0)
        with pytest.raises(ConfigurationError):
            standby_timeline(
                config, wake_interval_s=1.0, wake_work_s=2.0
            )


class TestPower:
    def test_standby_is_tens_of_milliwatts(self, config):
        """With the panel off and C10 dominating, the floor sits
        orders of magnitude below any display workload."""
        power = standby_power_mw(config)
        assert power < 150.0

    def test_more_wakes_cost_more(self, config):
        frequent = standby_power_mw(config, wake_interval_s=2.0)
        rare = standby_power_mw(config, wake_interval_s=30.0)
        assert frequent > rare

    def test_standby_far_below_video(self, config):
        """The whole point of the regime split: video is ~2 W, standby
        is ~0.05 W."""
        from repro.pipeline import (
            ConventionalScheme,
            FrameWindowSimulator,
        )
        from repro.video.source import AnalyticContentModel

        video = PowerModel().report(
            FrameWindowSimulator(config, ConventionalScheme()).run(
                AnalyticContentModel().frames(FHD, 8), 30.0
            )
        )
        assert standby_power_mw(config) < (
            video.average_power_mw / 10
        )

    def test_c10_exit_latency_charged(self, config):
        """Every wake pays the long C10 exit: the timeline carries one
        transition excursion per wake plus the re-entries."""
        timeline = standby_timeline(
            config, duration_s=60.0, wake_interval_s=10.0
        )
        assert timeline.transition_count() >= 10
        extras = PlatformExtras(
            streaming=False, local_playback=False
        )
        report = PowerModel(extras=extras).report_timeline(
            timeline, config.panel
        )
        assert report.transition_energy_mj > 0


@pytest.fixture
def no_memo():
    """Ambient runs below must actually simulate, not hit the cache."""
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


class TestAmbientStandby:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AmbientStandbyWorkload(duration_s=0)
        with pytest.raises(ConfigurationError):
            AmbientStandbyWorkload(update_fps=0)
        with pytest.raises(ConfigurationError):
            AmbientStandbyWorkload(update_fps=120.0, refresh_hz=60.0)

    def test_counts(self):
        workload = AmbientStandbyWorkload(
            duration_s=60.0, update_fps=0.2
        )
        assert workload.window_count == 3600
        # A 0.2 FPS clock face redraws 12 times in a minute.
        assert workload.frame_count == 12
        assert len(workload.source()) == 12

    def test_run_is_summary_only(self, no_memo):
        run = ambient_standby_run(
            AmbientStandbyWorkload(duration_s=5.0),
            ConventionalScheme(),
        )
        assert run.timeline is None
        assert run.summary is not None
        assert run.duration == pytest.approx(5.0)
        assert run.stats.repeat_windows > run.stats.new_frame_windows

    def test_full_retain_available(self, no_memo):
        run = ambient_standby_run(
            AmbientStandbyWorkload(duration_s=1.0),
            ConventionalScheme(),
            retain="full",
        )
        assert run.timeline is not None
        assert run.timeline.duration == pytest.approx(1.0)

    def test_collapse_hits_dominate(self, no_memo):
        """The ambient regime is the collapse showcase: >= 95% of
        windows replay the memoized previous plan."""
        registry = obs_metrics.registry()
        before_hit = registry.counter("sim.collapse.hit", "").value
        before_miss = registry.counter("sim.collapse.miss", "").value
        run = ambient_standby_run(
            AmbientStandbyWorkload(duration_s=30.0),
            ConventionalScheme(),
        )
        hits = (
            registry.counter("sim.collapse.hit", "").value - before_hit
        )
        misses = (
            registry.counter("sim.collapse.miss", "").value
            - before_miss
        )
        assert hits + misses == run.stats.windows
        assert hits / run.stats.windows >= 0.95

    def test_walk_costs_per_content_change_not_per_update(
        self, no_memo, monkeypatch
    ):
        """A 3-hour, 2 Hz session is 21,600 redraws of one frame: the
        walker accounts its steady updates as a block, so it builds a
        handful of frame descriptors and makes a handful of loop passes
        (one plan-group lookup each) per run, not one per update."""
        descriptors = []
        post_init = FrameDescriptor.__post_init__

        def counted_post_init(frame):
            descriptors.append(frame.index)
            post_init(frame)

        class CountedGroups(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        walkers = []
        walker_init = sim._CadenceWalker.__init__

        def counted_init(walker, *args, **kwargs):
            walker_init(walker, *args, **kwargs)
            walker.groups = CountedGroups()
            walkers.append(walker)

        monkeypatch.setattr(
            FrameDescriptor, "__post_init__", counted_post_init
        )
        monkeypatch.setattr(sim._CadenceWalker, "__init__", counted_init)
        workload = AmbientStandbyWorkload(
            duration_s=10_800.0, update_fps=2.0
        )
        for scheme, with_drfb in (
            (ConventionalScheme(), False), (BurstLinkScheme(), True),
        ):
            descriptors.clear()
            run = ambient_standby_run(workload, scheme, with_drfb=with_drfb)
            assert run.stats.new_frame_windows == 21_600
            assert len(descriptors) <= 16
            assert walkers[-1].groups.lookups <= 16

    def test_power_sits_between_dark_standby_and_video(
        self, config, no_memo
    ):
        """Screen-on standby costs more than the panel-off floor but
        far less than active video playback."""
        run = ambient_standby_run(
            AmbientStandbyWorkload(duration_s=10.0),
            ConventionalScheme(),
        )
        extras = PlatformExtras(streaming=False, local_playback=False)
        ambient_mw = PowerModel(extras=extras).report(
            run
        ).average_power_mw
        assert ambient_mw > standby_power_mw(config)
