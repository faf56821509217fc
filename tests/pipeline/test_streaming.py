"""Streaming retention modes, plan replay, and the push front end."""

import pytest

from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.errors import ConfigurationError, SimulationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import install_run_memo
from repro.power import PowerModel
from repro.video.source import AnalyticContentModel


@pytest.fixture(autouse=True)
def no_memo():
    """These tests measure the simulator itself, not the run cache."""
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


@pytest.fixture
def frames():
    return AnalyticContentModel().frames(FHD, 12, seed=5)


def _counter(name):
    return obs_metrics.registry().counter(name, "").value


def _fresh(config, scheme, frames, fps, **kwargs):
    """The run with every window planned fresh (a tracer is active)."""
    with obs_trace.tracing():
        return FrameWindowSimulator(config, scheme).run(
            frames, fps, **kwargs
        )


def _assert_same_aggregates(reference, other, rel=1e-9):
    assert other.stats == reference.stats
    assert other.duration == pytest.approx(
        reference.duration, rel=rel
    )
    ref_res = reference.residency_fractions()
    other_res = other.residency_fractions()
    assert set(ref_res) == set(other_res)
    for state, fraction in ref_res.items():
        assert other_res[state] == pytest.approx(
            fraction, rel=rel, abs=1e-12
        )
    assert other.dram_total_bytes == pytest.approx(
        reference.dram_total_bytes, rel=rel
    )
    assert other.edp_bytes == pytest.approx(
        reference.edp_bytes, rel=rel
    )


def _assert_same_power(reference, other, rel=1e-9):
    ref = PowerModel().report(reference)
    oth = PowerModel().report(other)
    assert oth.total_energy_mj == pytest.approx(
        ref.total_energy_mj, rel=rel
    )
    assert set(ref.by_component_mj) == set(oth.by_component_mj)
    for component, mj in ref.by_component_mj.items():
        assert oth.by_component_mj[component] == pytest.approx(
            mj, rel=rel, abs=1e-9
        )


class TestRetainModes:
    def test_summary_mode_drops_timeline(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, retain="summary")
        assert run.timeline is None
        assert run.summary is not None
        assert run.aggregate is run.summary

    def test_full_mode_also_builds_summary(self, fhd_config, frames):
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, retain="full")
        assert run.timeline is not None
        assert run.summary is not None
        assert run.summary.duration == pytest.approx(
            run.timeline.duration
        )
        assert run.summary.segment_count == len(run.timeline)

    def test_summary_parity_with_full(self, fhd_config, frames):
        full = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, retain="full")
        summary = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, retain="summary")
        _assert_same_aggregates(full, summary)
        _assert_same_power(full, summary)

    def test_summary_parity_for_burstlink(self, fhd_config, frames):
        config = fhd_config.with_drfb()
        full = FrameWindowSimulator(config, BurstLinkScheme()).run(
            frames, 30.0, retain="full"
        )
        summary = FrameWindowSimulator(config, BurstLinkScheme()).run(
            frames, 30.0, retain="summary"
        )
        _assert_same_aggregates(full, summary)
        _assert_same_power(full, summary)

    def test_unknown_retain_rejected(self, fhd_config, frames):
        with pytest.raises(SimulationError):
            FrameWindowSimulator(
                fhd_config, ConventionalScheme()
            ).run(frames, 30.0, retain="segments")

    def test_default_retain_is_summary(self, fhd_config, frames):
        simulator = FrameWindowSimulator(fhd_config, ConventionalScheme())
        run = simulator.run(frames, 30.0)
        assert run.timeline is None
        assert run == simulator.run(frames, 30.0, retain="summary")

    def test_default_retain_rejects_unknown(self, fhd_config, frames):
        # ``None`` no longer defers to a process-wide default.
        with pytest.raises(SimulationError):
            FrameWindowSimulator(
                fhd_config, ConventionalScheme()
            ).run(frames, 30.0, retain=None)


class TestCollapse:
    def test_collapse_matches_fresh_plans(self, fhd_config, frames):
        fresh = _fresh(fhd_config, ConventionalScheme(), frames, 30.0)
        collapsed = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0)
        _assert_same_aggregates(fresh, collapsed)
        _assert_same_power(fresh, collapsed)

    def test_collapse_matches_for_burstlink(self, fhd_config, frames):
        config = fhd_config.with_drfb()
        fresh = _fresh(config, BurstLinkScheme(), frames, 30.0)
        collapsed = FrameWindowSimulator(config, BurstLinkScheme()).run(
            frames, 30.0
        )
        _assert_same_aggregates(fresh, collapsed)
        _assert_same_power(fresh, collapsed)

    def test_counters_cover_every_window(self, fhd_config, frames):
        before_hit = _counter("sim.collapse.hit")
        before_miss = _counter("sim.collapse.miss")
        # 15 FPS on 60 Hz: three repeats per new frame, plenty of
        # collapsible back-to-back windows.
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 15.0)
        hits = _counter("sim.collapse.hit") - before_hit
        misses = _counter("sim.collapse.miss") - before_miss
        assert hits + misses == run.stats.windows
        assert hits > 0

    def test_tracer_disables_collapse(self, fhd_config, frames):
        before_hit = _counter("sim.collapse.hit")
        before_miss = _counter("sim.collapse.miss")
        traced = _fresh(fhd_config, ConventionalScheme(), frames, 15.0)
        # Every window planned fresh: no replays, one miss per window.
        assert _counter("sim.collapse.hit") == before_hit
        assert (
            _counter("sim.collapse.miss") - before_miss
            == traced.stats.windows
        )
        untraced = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 15.0)
        _assert_same_aggregates(traced, untraced)


class TestExhaustedStreamClamp:
    """Windows past the end of the stream re-present the last frame
    and must count as repeats (satellite: effective_fps inflation)."""

    def test_clamped_windows_count_as_repeats(self, fhd_config):
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        # 4 frames at 30 FPS on 60 Hz naturally cover 8 windows; ask
        # for 40 and the last 32 re-present frame 3.
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, max_windows=40)
        assert run.stats.windows == 40
        assert run.stats.new_frame_windows == 4
        assert run.stats.repeat_windows == 36

    def test_effective_fps_not_inflated(self, fhd_config):
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, max_windows=40)
        # Only 4 frames were ever presented over 40/60 s.
        assert run.effective_fps == pytest.approx(4 / run.duration)
        assert run.effective_fps < 30.0

    def test_summary_kind_counts_match(self, fhd_config):
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(
            frames, 30.0, max_windows=40, retain="summary",
        )
        assert run.summary.window_counts["new_frame"] == 4
        assert run.summary.window_counts["repeat"] == 36

    def test_clamp_identical_with_collapse(self, fhd_config):
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        fresh = _fresh(
            fhd_config, ConventionalScheme(), frames, 30.0,
            max_windows=40,
        )
        collapsed = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(frames, 30.0, max_windows=40)
        _assert_same_aggregates(fresh, collapsed)


class _EndlessSource:
    """A frame stream with no length: yields one frame forever."""

    def __init__(self, frame):
        self.frame = frame

    def __iter__(self):
        from dataclasses import replace

        index = 0
        while True:
            yield replace(self.frame, index=index)
            index += 1

    def fingerprint_token(self):
        raise TypeError("endless streams are not fingerprintable")


class TestLengthlessSources:
    def test_requires_max_windows(self, fhd_config):
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        with pytest.raises(SimulationError):
            FrameWindowSimulator(
                fhd_config, ConventionalScheme()
            ).run(_EndlessSource(frame), 30.0)

    def test_runs_with_max_windows(self, fhd_config):
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        run = FrameWindowSimulator(
            fhd_config, ConventionalScheme()
        ).run(_EndlessSource(frame), 30.0, max_windows=6)
        assert run.stats.windows == 6
        assert run.stats.new_frame_windows == 3


class TestStreamingSimulator:
    """The incremental (push-driven) walker behind ``repro serve``."""

    def _offline(self, config, scheme, frames, **kw):
        return FrameWindowSimulator(config, scheme).run(
            frames, 30.0, retain="summary", **kw
        )

    def _payload(self, run):
        import json

        return json.dumps(run.summary.to_payload(), sort_keys=True)

    @pytest.mark.parametrize(
        "scheme_factory, needs_drfb",
        [
            (ConventionalScheme, False),
            (BurstLinkScheme, True),
        ],
    )
    def test_byte_parity_with_offline_summary(
        self, scheme_factory, needs_drfb
    ):
        from repro.pipeline import StreamingSimulator

        config = skylake_tablet(FHD)
        if needs_drfb:
            config = config.with_drfb()
        frames = AnalyticContentModel().frames(FHD, 24, seed=9)
        streaming = StreamingSimulator(config, scheme_factory(), 30.0)
        for frame in frames:
            streaming.push(frame)
        streaming.end()
        live = streaming.result()
        offline = self._offline(config, scheme_factory(), frames)
        assert self._payload(live) == self._payload(offline)
        assert live.stats == offline.stats

    def test_stateful_scheme_parity(self):
        from repro.baselines import VipScheme
        from repro.pipeline import StreamingSimulator

        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 24, seed=9)
        streaming = StreamingSimulator(config, VipScheme(), 30.0)
        for frame in frames:
            streaming.push(frame)
        streaming.end()
        offline = self._offline(config, VipScheme(), frames)
        assert self._payload(streaming.result()) == self._payload(
            offline
        )

    def test_prefix_decisions_are_final(self, frames):
        """Windows advanced mid-stream never get re-planned: the
        conservative horizon means every prefix decision matches the
        completed offline run."""
        from repro.pipeline import StreamingSimulator

        config = skylake_tablet(FHD).with_drfb()
        streaming = StreamingSimulator(config, BurstLinkScheme(), 30.0)
        advanced = 0
        for frame in frames:
            windows = streaming.push(frame)
            for window in windows:
                assert window.frame_index < streaming.frames_seen
            advanced += len(windows)
        assert streaming.stalled
        advanced += len(streaming.end())
        assert advanced == streaming.windows_simulated
        assert streaming.finished

    def test_max_windows_matches_offline(self, frames):
        from repro.pipeline import StreamingSimulator

        config = skylake_tablet(FHD)
        streaming = StreamingSimulator(
            config, ConventionalScheme(), 30.0, max_windows=7
        )
        for frame in frames:
            streaming.push(frame)
        streaming.end()
        live = streaming.result()
        offline = self._offline(
            config, ConventionalScheme(), frames, max_windows=7
        )
        assert live.stats.windows == 7
        assert self._payload(live) == self._payload(offline)

    def test_empty_stream_rejected(self):
        from repro.pipeline import StreamingSimulator

        streaming = StreamingSimulator(
            skylake_tablet(FHD), ConventionalScheme(), 30.0
        )
        with pytest.raises(SimulationError):
            streaming.end()

    def test_push_after_end_rejected(self, frames):
        from repro.pipeline import StreamingSimulator

        streaming = StreamingSimulator(
            skylake_tablet(FHD), ConventionalScheme(), 30.0
        )
        streaming.push(frames[0])
        streaming.end()
        with pytest.raises(SimulationError):
            streaming.push(frames[1])
        # result() is idempotent.
        assert streaming.result() is streaming.result()

    def test_result_before_end_rejected(self, frames):
        from repro.pipeline import StreamingSimulator

        streaming = StreamingSimulator(
            skylake_tablet(FHD), ConventionalScheme(), 30.0
        )
        streaming.push(frames[0])
        with pytest.raises(SimulationError):
            streaming.result()

    def test_collapse_hits_on_repeat_windows(self):
        from repro.pipeline import StreamingSimulator
        from repro.video.source import FrameDescriptor
        from repro.video.frames import FrameType

        config = skylake_tablet(FHD)
        # 10 fps video on the 60 Hz panel: five consecutive repeat
        # windows per frame, replayed from the run's earlier plans.
        streaming = StreamingSimulator(
            config, ConventionalScheme(), 10.0
        )
        windows = []
        for index in range(4):
            windows += streaming.push(
                FrameDescriptor(
                    index=index,
                    frame_type=FrameType.I,
                    encoded_bytes=200_000,
                    decoded_bytes=FHD.width * FHD.height * 3,
                )
            )
        windows += streaming.end()
        assert sum(w.replayed for w in windows) > 0
        run = streaming.result()
        assert run.stats.windows == streaming.windows_simulated
        assert run.stats.windows == len(windows)

    @pytest.mark.parametrize("max_windows", [0, -3])
    def test_bad_window_cap_rejected(self, max_windows):
        from repro.pipeline import StreamingSimulator

        with pytest.raises(ConfigurationError, match="max_windows"):
            StreamingSimulator(
                skylake_tablet(FHD), ConventionalScheme(), 30.0,
                max_windows=max_windows,
            )
