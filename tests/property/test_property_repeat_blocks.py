"""Property: accounting steady updates in blocks changes nothing.

A source with index access (``content_run``) lets an untraced summary
run account the updates at their fixed point as one block, as long as
their frames plan alike: a :class:`RepeatingFrameSource` of identical
frames, or a :class:`ListFrameSource` of unique frames whose plans
share a key and differ only in the encoded bytes they stage.  That run
must equal, exactly, a traced run (every window planned fresh) and a
:class:`StreamingSimulator` run with the frames pushed in — on stats,
summary payload and energy report — across schemes (Zhang's
index-dependent plans included), update rates from 0.2 Hz to the
refresh rate, content-aware frames, clips whose decoded size changes
part-way, sources shorter than the window bound (a clamped tail), and
bounds that cut a block short.  At the walker level, the block walk ends
where walking update by update ends: same window, same frames pulled,
same descriptor in hand.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FrameBufferCompressionScheme, ZhangScheme
from repro.config import FHD, QHD, skylake_tablet
from repro.core import BurstLinkScheme, FrameBufferBypassScheme
from repro.obs.trace import tracing
from repro.pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    StreamingSimulator,
)
from repro.pipeline import sim
from repro.power import PowerModel
from repro.video.source import (
    AnalyticContentModel,
    ContentClass,
    ListFrameSource,
    RepeatingFrameSource,
)

#: How a session's frames come: one frame repeated, a unique-frame
#: clip, or a unique-frame clip whose decoded size changes part-way
#: (a block then ends where the plans stop being alike).
SOURCES = ("repeat", "unique", "switch")

SCHEMES = [
    (ConventionalScheme, False),
    (BurstLinkScheme, True),
    (FrameBufferBypassScheme, False),
    (FrameBufferCompressionScheme, False),
    (ZhangScheme, False),
]

#: Windows per run: the traced reference plans every one of them.
MAX_WINDOWS = 2_400


@pytest.fixture(autouse=True, scope="module")
def no_memo():
    """Property runs must never be served from the run cache."""
    previous = sim.install_run_memo(None)
    yield
    sim.install_run_memo(previous)


@st.composite
def sessions(draw):
    refresh = draw(st.sampled_from([30.0, 60.0]))
    fps = draw(
        st.one_of(
            st.sampled_from([0.2, 23.976, refresh]),
            st.floats(min_value=0.2, max_value=refresh,
                      allow_nan=False, allow_infinity=False),
        )
    )
    per_frame = refresh / fps
    most = max(1, min(60, int(MAX_WINDOWS / per_frame)))
    frames = draw(st.one_of(st.just(most), st.integers(1, most)))
    natural = int(round(frames * per_frame))
    # None: the run the frames ask for; below it: cut mid-run; above
    # it: the source runs dry and the tail clamps.
    max_windows = draw(
        st.one_of(
            st.none(),
            st.integers(1, max(1, min(MAX_WINDOWS, 2 * natural))),
        )
    )
    return refresh, fps, frames, max_windows


def _frame(seed, apl):
    return AnalyticContentModel(
        content=ContentClass.SCREEN, apl=apl
    ).frames(FHD, 1, seed=seed)[0]


def _source(kind, frames, seed, apl):
    if kind == "repeat":
        return RepeatingFrameSource(_frame(seed, apl), frames)
    model = AnalyticContentModel(content=ContentClass.SCREEN, apl=apl)
    clip = model.frames(FHD, frames, seed=seed)
    if kind == "switch":
        cut = seed % frames
        clip = clip[:cut] + model.frames(QHD, frames - cut, seed=seed)
    return ListFrameSource(tuple(clip))


def _config(refresh, needs_drfb):
    config = skylake_tablet(FHD, refresh)
    return config.with_drfb() if needs_drfb else config


def _assert_same(run, reference):
    assert run.stats == reference.stats
    assert run.summary.to_payload() == reference.summary.to_payload()
    assert PowerModel().report(run) == PowerModel().report(reference)


@given(
    st.sampled_from(SCHEMES),
    sessions(),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([0.0, 0.6]),
    st.sampled_from(SOURCES),
)
@settings(max_examples=150, deadline=None)
def test_block_walk_matches_per_window_and_pushed_runs(
    spec, session, seed, apl, kind
):
    factory, needs_drfb = spec
    refresh, fps, frames, max_windows = session
    config = _config(refresh, needs_drfb)
    source = _source(kind, frames, seed, apl)
    blocked = FrameWindowSimulator(config, factory()).run(
        source, fps, max_windows=max_windows
    )
    with tracing():
        traced = FrameWindowSimulator(config, factory()).run(
            source, fps, max_windows=max_windows
        )
    streaming = StreamingSimulator(
        config, factory(), fps, max_windows=max_windows
    )
    for frame in source:
        streaming.push(frame)
    streaming.end()
    _assert_same(blocked, traced)
    _assert_same(blocked, streaming.result())


def _walker(config, scheme, fps, source, block):
    if block:
        runs = sim._RunCursor(source)
        pull = runs.pull
    else:
        runs = None
        pull = functools.partial(next, iter(source), None)
    return sim._CadenceWalker(config, scheme, fps, pull, runs=runs)


@given(
    st.sampled_from(SCHEMES[:4]),
    sessions(),
    st.sampled_from(SOURCES),
)
@settings(max_examples=80, deadline=None)
def test_block_walk_ends_where_the_update_walk_ends(spec, session, kind):
    """Same window, cursor and frames pulled, and the same groups
    counted."""
    factory, needs_drfb = spec
    refresh, fps, frames, max_windows = session
    config = _config(refresh, needs_drfb)
    source = _source(kind, frames, 7, 0.0)
    limit = max_windows or int(round(frames * refresh / fps))
    walked = []
    for block in (True, False):
        walker = _walker(config, factory(), fps, source, block)
        walker.walk(limit)
        walked.append(walker)
    blocked, stepped = walked
    assert blocked.index == stepped.index == limit
    assert blocked._cursor == stepped._cursor
    assert [(g.count, g.staged_delta) for g in blocked.order] == [
        (g.count, g.staged_delta) for g in stepped.order
    ]
    _assert_same(blocked.finish(), stepped.finish())


def test_blocks_account_most_updates_at_low_rates():
    """The property above is not vacuous: at 0.2 Hz a run of 40 updates
    is nearly all one block."""
    config = _config(60.0, False)
    source = RepeatingFrameSource(_frame(3, 0.0), 40)
    ends = []
    original = sim._block_end

    def spy(*args):
        result = original(*args)
        ends.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_block_end", spy)
        walker = _walker(config, ConventionalScheme(), 0.2, source, True)
        walker.walk(40 * 300)
    assert ends and max(ends) >= 35


def test_index_dependent_and_full_runs_walk_every_update():
    """Zhang's batch phase, full retention and traced runs keep the
    per-update walk."""
    config = _config(60.0, False)
    source = RepeatingFrameSource(_frame(3, 0.0), 12)
    calls = []
    original = sim._block_end

    def spy(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_block_end", spy)
        FrameWindowSimulator(config, ZhangScheme()).run(source, 1.0)
        FrameWindowSimulator(config, ConventionalScheme()).run(
            source, 1.0, retain="full"
        )
        with tracing():
            FrameWindowSimulator(config, ConventionalScheme()).run(
                source, 1.0
            )
        assert calls == []
        FrameWindowSimulator(config, ConventionalScheme()).run(source, 1.0)
    assert calls


def test_unique_frame_clips_take_blocks():
    """The list-source property is not vacuous: at 30 FPS a 60-frame
    unique clip's steady updates are nearly all one block, and the
    block stages each frame's own encoded bytes."""
    config = _config(60.0, True)
    source = _source("unique", 60, 11, 0.0)
    assert len({frame.encoded_bytes for frame in source}) == 60
    ends = []
    original = sim._block_end

    def spy(*args):
        result = original(*args)
        ends.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_block_end", spy)
        blocked = FrameWindowSimulator(config, BurstLinkScheme()).run(
            source, 30.0
        )
    assert ends and max(ends) >= 55
    with tracing():
        traced = FrameWindowSimulator(config, BurstLinkScheme()).run(
            source, 30.0
        )
    _assert_same(blocked, traced)
