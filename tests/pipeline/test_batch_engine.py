"""The cadence walker's plan groups.

Untraced runs replay each distinct plan from its group; a traced run
plans every window fresh.  Both go through the same groups and the same
end-of-run fold, so their stats and summaries are equal."""

import json

import dataclasses

import pytest

from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme, FrameBurstingScheme
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import install_run_memo
from repro.power import PowerModel
from repro.video.source import AnalyticContentModel, RepeatingFrameSource


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


def _run(config, scheme, frames, fps, **kwargs):
    return FrameWindowSimulator(config, scheme).run(
        frames, fps, **kwargs
    )


def _traced(config, scheme, frames, fps, **kwargs):
    with obs_trace.tracing():
        return _run(config, scheme, frames, fps, **kwargs)


def _assert_same_summary(reference, other):
    assert other.stats == reference.stats
    assert json.dumps(
        other.summary.to_payload(), sort_keys=True
    ) == json.dumps(reference.summary.to_payload(), sort_keys=True)


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
    ref_kinds = reference.summary.window_counts
    oth_kinds = other.summary.window_counts
    assert ref_kinds == oth_kinds


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


class TestEngineSelection:
    """One walker; an active tracer is the only thing that turns its
    plan memo off."""

    def test_batch_engine_runs_by_default(self, fhd_config, frames):
        before = _counter("sim.collapse.hit")
        # 15 FPS on 60 Hz: three repeat windows per frame replay plans.
        _run(fhd_config, ConventionalScheme(), frames, 15.0)
        assert _counter("sim.collapse.hit") > before

    @pytest.mark.parametrize("max_windows", [0, -3])
    def test_bad_window_cap_rejected(self, fhd_config, frames, max_windows):
        with pytest.raises(ConfigurationError, match="max_windows"):
            _run(
                fhd_config, ConventionalScheme(), frames, 30.0,
                max_windows=max_windows,
            )


class TestTracedFallback:
    """A traced run plans every window fresh — the spans cover every
    window — and still lands on the untraced run's stats and summary."""

    def test_tracer_forces_scalar(self, fhd_config, frames):
        before_hit = _counter("sim.collapse.hit")
        before_miss = _counter("sim.collapse.miss")
        traced = _traced(
            fhd_config, ConventionalScheme(), frames, 30.0,
            retain="summary",
        )
        assert _counter("sim.collapse.hit") == before_hit
        assert (
            _counter("sim.collapse.miss") - before_miss
            == traced.stats.windows
        )
        untraced = _run(
            fhd_config, ConventionalScheme(), frames, 30.0,
            retain="summary",
        )
        _assert_same_summary(traced, untraced)

    def test_traced_spans_unchanged_by_engine(self, fhd_config, frames):
        with obs_trace.tracing() as tracer:
            run = _run(fhd_config, ConventionalScheme(), frames, 30.0)
        names = [
            event.get("name")
            for event in tracer.events
            if event.get("kind") == "B"
        ]
        assert names.count("sim.run") == 1
        assert names.count("sim.window") == run.stats.windows


class TestBatchParity:
    SCHEMES = (
        ("conventional", ConventionalScheme, False),
        ("burstlink", BurstLinkScheme, True),
        ("bursting", FrameBurstingScheme, True),
    )

    @pytest.mark.parametrize(
        "name,scheme_cls,needs_drfb", SCHEMES,
        ids=[s[0] for s in SCHEMES],
    )
    @pytest.mark.parametrize("retain", ["full", "summary"])
    def test_matches_scalar(
        self, fhd_config, frames, name, scheme_cls, needs_drfb, retain
    ):
        config = (
            fhd_config.with_drfb() if needs_drfb else fhd_config
        )
        traced = _traced(
            config, scheme_cls(), frames, 30.0, retain=retain
        )
        untraced = _run(config, scheme_cls(), frames, 30.0, retain=retain)
        # The summary is exact either way; a full timeline holds fresh
        # plans when traced and time-shifted replays when not.
        _assert_same_summary(traced, untraced)
        _assert_same_aggregates(traced, untraced)
        _assert_same_power(traced, untraced)

    def test_full_retain_timeline_is_contiguous(
        self, fhd_config, frames
    ):
        run = _run(
            fhd_config, ConventionalScheme(), frames, 15.0,
            retain="full",
        )
        segments = run.timeline.segments
        for previous, current in zip(segments, segments[1:]):
            assert current.start == pytest.approx(
                previous.end, abs=1e-12
            )

    def test_clamped_stream_matches_scalar(self, fhd_config):
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        traced = _traced(
            fhd_config, ConventionalScheme(), frames, 30.0,
            max_windows=40,
        )
        untraced = _run(
            fhd_config, ConventionalScheme(), frames, 30.0,
            max_windows=40,
        )
        assert untraced.stats.windows == 40
        _assert_same_summary(traced, untraced)

    def test_stateful_scheme_matches_scalar(self, fhd_config, frames):
        from repro.baselines import FrameBufferCompressionScheme

        traced = _traced(
            fhd_config, FrameBufferCompressionScheme(), frames, 30.0
        )
        untraced = _run(
            fhd_config, FrameBufferCompressionScheme(), frames, 30.0
        )
        _assert_same_summary(traced, untraced)
        _assert_same_power(traced, untraced)

    def test_repeating_source_shares_plans(self, fhd_config):
        """Re-indexed copies of one frame must share a single plan
        group: the walker keys on frame content, not the descriptor."""
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        source = RepeatingFrameSource(frame, 12)
        before = _counter("sim.collapse.miss")
        run = _run(
            fhd_config, ConventionalScheme(), source, 30.0,
            max_windows=24,
        )
        fresh = _counter("sim.collapse.miss") - before
        # One new-frame plan + at most a couple of repeat plans; the
        # eleven re-issued identical frames plan nothing new.
        assert fresh <= 3
        assert run.stats.windows == 24


class TestBatchCounters:
    def test_counters_cover_every_window(self, fhd_config, frames):
        before_hit = _counter("sim.collapse.hit")
        before_miss = _counter("sim.collapse.miss")
        run = _run(
            fhd_config, ConventionalScheme(), frames, 15.0
        )
        hits = _counter("sim.collapse.hit") - before_hit
        misses = _counter("sim.collapse.miss") - before_miss
        assert hits + misses == run.stats.windows
        assert hits > 0

    def test_group_histogram_observes_entries(self, fhd_config, frames):
        histogram = obs_metrics.registry().histogram(
            "sim.batch.group_windows", ""
        )
        before = histogram.count
        _run(
            fhd_config, ConventionalScheme(), frames, 15.0
        )
        assert histogram.count > before


class TestStrictDeadlines:
    @pytest.fixture
    def run_cache(self):
        from repro.analysis.runner import SimulationCache

        cache = SimulationCache()
        previous = install_run_memo(cache)
        yield cache
        install_run_memo(previous)

    def test_strict_deadlines_raise_through_batch(self, run_cache):
        """A strict config raises even after a lenient run of the same
        windows filled the run memo: the strict flag is part of the run
        fingerprint, so the strict run plans afresh and checks each
        plan."""
        from repro.errors import DeadlineMissError

        config = skylake_tablet(FHD)
        slow = dataclasses.replace(
            config,
            orchestration=dataclasses.replace(
                config.orchestration, baseline_per_frame=0.050
            ),
            strict_deadlines=False,
        )
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        lenient = _run(
            slow, ConventionalScheme(),
            RepeatingFrameSource(frame, 4), 30.0, max_windows=8,
        )
        assert lenient.stats.deadline_misses > 0
        strict = dataclasses.replace(slow, strict_deadlines=True)
        with pytest.raises(DeadlineMissError):
            _run(
                strict, ConventionalScheme(),
                RepeatingFrameSource(frame, 4), 30.0, max_windows=8,
            )
