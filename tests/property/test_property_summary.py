"""Property-based equivalence of the streaming aggregates.

Two families of properties gate the streaming core:

* ``TimelineSummary.from_timeline`` reproduces every quantity the
  analysis layer reads from a materialized :class:`Timeline` — duration,
  residencies, transition count/time, DRAM/eDP byte totals — to 1e-12
  relative, for arbitrary builder-generated segment streams; and
* plan-group replay is invisible: an untraced run (the walker's memo
  on) and a traced run (every window planned fresh) produce equal
  :class:`RunStats` and byte-equal summaries for randomized
  scheme/resolution/fps/frame-count/window-cap combinations, and so
  does pushing the same frames, in random chunks, through the
  :class:`StreamingSimulator`.
"""

import json


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FrameBufferCompressionScheme,
    VipScheme,
    ZhangScheme,
)
from repro.config import FHD, QHD, skylake_tablet
from repro.core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
    WindowedVideoScheme,
)
from repro.obs.trace import tracing
from repro.pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    StreamingSimulator,
)
from repro.pipeline.builder import TimelineBuilder
from repro.pipeline.sim import install_run_memo
from repro.pipeline.timeline import TimelineSummary
from repro.power import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


@pytest.fixture(autouse=True, scope="module")
def no_memo():
    """Property runs must never be served from the run cache."""
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


states = st.sampled_from(
    [
        PackageCState.C0,
        PackageCState.C2,
        PackageCState.C7,
        PackageCState.C7_PRIME,
        PackageCState.C8,
        PackageCState.C9,
    ]
)

#: (duration, state, dram bandwidth, eDP rate); bandwidth only applies
#: in states where DRAM is awake (self-refresh states reject traffic).
phases = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=20e-3),
        states,
        st.floats(min_value=0.0, max_value=1e9),
        st.floats(min_value=0.0, max_value=1e9),
    ),
    min_size=1,
    max_size=30,
)


def _build(phase_list):
    builder = TimelineBuilder(initial_state=PackageCState.C0)
    for duration, state, bandwidth, edp_rate in phase_list:
        attrs = {"edp_rate": edp_rate}
        if not state.dram_in_self_refresh:
            attrs["dram_read_bw"] = bandwidth
            attrs["dram_write_bw"] = bandwidth / 2
        builder.add(duration, state, **attrs)
    return builder.build()


def _close(actual, expected, rel=1e-12):
    assert actual == pytest.approx(expected, rel=rel, abs=1e-15)


@given(phases)
@settings(max_examples=80, deadline=None)
def test_summary_matches_timeline_aggregates(phase_list):
    timeline = _build(phase_list)
    summary = TimelineSummary.from_timeline(timeline)
    _close(summary.duration, timeline.duration)
    assert summary.segment_count == len(timeline)
    _close(summary.dram_read_bytes, timeline.dram_read_bytes)
    _close(summary.dram_write_bytes, timeline.dram_write_bytes)
    _close(summary.edp_bytes, timeline.edp_bytes)


@given(phases)
@settings(max_examples=80, deadline=None)
def test_summary_matches_residencies(phase_list):
    timeline = _build(phase_list)
    summary = TimelineSummary.from_timeline(timeline)
    for fold_prime in (True, False):
        expected = timeline.residencies(fold_prime)
        actual = summary.residencies(fold_prime)
        assert set(actual) == set(expected)
        for state, seconds in expected.items():
            _close(actual[state], seconds)


@given(phases)
@settings(max_examples=80, deadline=None)
def test_summary_matches_transitions(phase_list):
    timeline = _build(phase_list)
    summary = TimelineSummary.from_timeline(timeline)
    assert summary.transition_count() == timeline.transition_count()
    _close(summary.transition_time(), timeline.transition_time())


@given(phases, phases)
@settings(max_examples=40, deadline=None)
def test_absorb_is_additive(first, second):
    """Folding two digests equals summarising the concatenation."""
    a, b = _build(first), _build(second)
    combined = TimelineSummary.from_timeline(a)
    combined.absorb(TimelineSummary.from_timeline(b))
    _close(combined.duration, a.duration + b.duration)
    _close(
        combined.dram_read_bytes,
        a.dram_read_bytes + b.dram_read_bytes,
    )
    _close(combined.edp_bytes, a.edp_bytes + b.edp_bytes)
    assert combined.transition_count() == (
        a.transition_count() + b.transition_count()
    )


scheme_specs = st.sampled_from(
    [
        (ConventionalScheme, False),
        (BurstLinkScheme, True),
        (FrameBurstingScheme, True),
        (FrameBufferBypassScheme, False),
    ]
)


#: Every scheme family the walker treats differently: stateless,
#: stateful (``plan_key()`` changes as it plans), index-dependent
#: (``frame_phase``), and one without ``plan_key()`` (memo always off).
walker_schemes = st.sampled_from(
    [
        (ConventionalScheme, False),
        (BurstLinkScheme, True),
        (FrameBurstingScheme, True),
        (FrameBufferBypassScheme, False),
        (FrameBufferCompressionScheme, False),
        (VipScheme, False),
        (ZhangScheme, False),
        (WindowedVideoScheme, True),
    ]
)
frame_rates = st.sampled_from([10.0, 15.0, 24.0, 30.0, 60.0])
window_caps = st.one_of(st.none(), st.integers(min_value=1, max_value=40))


def _case(spec, resolution, frame_count, seed):
    factory, needs_drfb = spec
    config = skylake_tablet(resolution)
    if needs_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(
        resolution, frame_count, seed=seed
    )
    return factory, config, frames


def _payload(run) -> str:
    return json.dumps(run.summary.to_payload(), sort_keys=True)


@given(
    walker_schemes,
    st.sampled_from([FHD, QHD]),
    st.integers(min_value=1, max_value=10),
    frame_rates,
    window_caps,
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_collapse_is_invisible(
    spec, resolution, frame_count, fps, max_windows, seed
):
    """Traced (memo off) and untraced runs are equal, not just close."""
    factory, config, frames = _case(spec, resolution, frame_count, seed)
    untraced = FrameWindowSimulator(config, factory()).run(
        frames, fps, max_windows=max_windows, retain="summary"
    )
    with tracing():
        traced = FrameWindowSimulator(config, factory()).run(
            frames, fps, max_windows=max_windows, retain="summary"
        )
    assert traced.stats == untraced.stats
    assert _payload(traced) == _payload(untraced)


@given(
    walker_schemes,
    st.integers(min_value=1, max_value=10),
    frame_rates,
    window_caps,
    st.lists(st.integers(min_value=1, max_value=4), max_size=10),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_pushed_stream_matches_offline(
    spec, frame_count, fps, max_windows, chunks, seed
):
    """Any chunking of a pushed stream gives the offline run's bytes."""
    factory, config, frames = _case(spec, FHD, frame_count, seed)
    offline = FrameWindowSimulator(config, factory()).run(
        frames, fps, max_windows=max_windows, retain="summary"
    )
    streaming = StreamingSimulator(
        config, factory(), fps, max_windows=max_windows
    )
    pushed = 0
    advanced = 0
    for size in chunks + [len(frames)]:
        for frame in frames[pushed:pushed + size]:
            advanced += len(streaming.push(frame))
        pushed = min(pushed + size, len(frames))
    advanced += len(streaming.end())
    live = streaming.result()
    assert advanced == live.stats.windows
    assert live.stats == offline.stats
    assert _payload(live) == _payload(offline)


@given(
    scheme_specs,
    st.sampled_from(["full", "summary"]),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_retain_mode_is_invisible(spec, retain, seed):
    """Whatever the run retains, the priced result is the same: both
    modes price the same summary, so the reports are equal."""
    factory, needs_drfb = spec
    config = skylake_tablet(FHD)
    if needs_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(FHD, 4, seed=seed)
    full = FrameWindowSimulator(config, factory()).run(
        frames, 30.0, retain="full"
    )
    other = FrameWindowSimulator(config, factory()).run(
        frames, 30.0, retain=retain
    )
    assert other.stats == full.stats
    assert PowerModel().report(other) == PowerModel().report(full)
