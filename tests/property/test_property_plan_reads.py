"""Plan groups key on what a plan reads (``plan_reads``).

A scheme that stages the encoded stream shares one plan among windows
of different encoded sizes, and the fold adds each window's own bytes
to the staged segment.  Two properties keep that honest for every
walker scheme, including inherited opt-ins:

* a ``retain="summary"`` run has the stats of the ``retain="full"``
  run of the same input, and its seconds and byte totals match the
  full timeline's to 1e-12 relative (a wrong opt-in misprices DRAM);
* for every scheme that opts in, each window's group plan, with the
  window's staged bytes added, equals ``plan_window`` planned fresh
  for that window (after the time shift).
"""

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
from repro.pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    StreamingSimulator,
)
from repro.pipeline.sim import install_run_memo
from repro.pipeline.timeline import TimelineSummary
from repro.video.source import AnalyticContentModel

from ..plan_oracle import fresh_windows, result_flags, window_quantities

#: Every scheme the walker runs, with whether it needs a DRFB panel.
WALKER_SCHEMES = [
    (ConventionalScheme, False),
    (BurstLinkScheme, True),
    (FrameBurstingScheme, True),
    (FrameBufferBypassScheme, False),
    (FrameBufferCompressionScheme, False),
    (VipScheme, False),
    (ZhangScheme, False),
    (WindowedVideoScheme, True),
]

#: The schemes whose plan groups key on ``plan_reads``.
OPTED_IN = [
    spec for spec in WALKER_SCHEMES
    if getattr(spec[0], "plan_reads", None) is not None
    and getattr(spec[0], "plan_key", None) is not None
]

rates = st.sampled_from([30.0, 60.0])
resolutions = st.sampled_from([FHD, QHD])
seeds = st.integers(min_value=0, max_value=2**16)


@pytest.fixture(autouse=True, scope="module")
def no_memo():
    """Property runs must never be served from the run cache."""
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


def _case(spec, resolution, frame_count, seed):
    factory, needs_drfb = spec
    config = skylake_tablet(resolution)
    if needs_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(
        resolution, frame_count, seed=seed
    )
    return factory, config, frames


def _close(actual, expected):
    assert actual == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_every_staged_stream_scheme_opts_in():
    """Zhang alone keeps the whole frame in its key (see its test)."""
    names = {factory.__name__ for factory, _ in OPTED_IN}
    assert names == {
        "ConventionalScheme",
        "BurstLinkScheme",
        "FrameBurstingScheme",
        "FrameBufferBypassScheme",
        "FrameBufferCompressionScheme",
        "VipScheme",
    }


@given(
    st.sampled_from(WALKER_SCHEMES),
    resolutions,
    st.integers(min_value=1, max_value=12),
    rates,
    seeds,
)
@settings(max_examples=60, deadline=None)
def test_summary_run_matches_full_timeline(
    spec, resolution, frame_count, fps, seed
):
    factory, config, frames = _case(spec, resolution, frame_count, seed)
    summary = FrameWindowSimulator(config, factory()).run(
        frames, fps, retain="summary"
    )
    full = FrameWindowSimulator(config, factory()).run(
        frames, fps, retain="full"
    )
    assert summary.stats == full.stats
    assert full.summary.segment_count == len(full.timeline)
    reference = TimelineSummary.from_timeline(full.timeline)
    got = summary.summary
    _close(got.duration, reference.duration)
    _close(got.dram_read_bytes, reference.dram_read_bytes)
    _close(got.dram_write_bytes, reference.dram_write_bytes)
    _close(got.edp_bytes, reference.edp_bytes)
    expected = reference.residencies(fold_prime=False)
    residencies = got.residencies(fold_prime=False)
    assert set(residencies) == set(expected)
    for state, seconds in expected.items():
        _close(residencies[state], seconds)


@given(
    st.sampled_from(OPTED_IN),
    resolutions,
    st.integers(min_value=1, max_value=12),
    rates,
    st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    seeds,
)
@settings(max_examples=60, deadline=None)
def test_keyed_replay_equals_fresh_plan(
    spec, resolution, frame_count, fps, max_windows, seed
):
    factory, config, frames = _case(spec, resolution, frame_count, seed)
    streaming = StreamingSimulator(
        config, factory(), fps, max_windows=max_windows
    )
    windows = []
    for frame in frames:
        windows += streaming.push(frame)
    windows += streaming.end()
    fresh = fresh_windows(
        config, factory(), frames, fps, count=len(windows)
    )
    for window, (kind, planned) in zip(windows, fresh):
        group = window.group
        assert group.effective_kind == kind
        assert result_flags(group.result) == result_flags(planned)
        replay = window_quantities(
            group.result, kind, window.duration,
            group.staged_bytes(window.frame),
        )
        expected = window_quantities(planned, kind, window.duration)
        assert replay.keys() == expected.keys()
        for cls_key, quantities in expected.items():
            for got, want in zip(replay[cls_key], quantities):
                _close(got, want)
