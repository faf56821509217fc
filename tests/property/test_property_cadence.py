"""Property: the cadence walker's new-frame windows, read frame by frame
from chunked tables, are exactly the ``NEW_FRAME`` windows (and frame
indices) of :meth:`RefreshTiming.windows`, the window-by-window
reference — across chunk seams, for integer, NTSC-fractional and very
low update rates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display.timing import RefreshTiming
from repro.pipeline import sim

REFRESH_RATES = (30.0, 48.0, 60.0, 90.0, 120.0, 144.0)
#: Rates every cadence is tried at, besides arbitrary ones.
NAMED_RATES = (0.2, 23.976, 59.94)


@st.composite
def cadences(draw):
    refresh = draw(st.sampled_from(REFRESH_RATES))
    named = [fps for fps in NAMED_RATES if fps <= refresh] + [refresh]
    fps = draw(
        st.one_of(
            st.sampled_from(named),
            st.floats(min_value=0.0, max_value=refresh, exclude_min=True,
                      allow_nan=False, allow_infinity=False).filter(
                lambda fps: refresh / fps <= 1e6
            ),
        )
    )
    return RefreshTiming(refresh, fps)


def reference(timing, count):
    return [
        (window.index, window.frame_index)
        for window in timing.windows(count)
        if window.is_new_frame
    ]


def walked(timing, count):
    return list(
        itertools.takewhile(
            lambda pair: pair[0] < count, sim._new_frame_windows(timing)
        )
    )


@given(cadences(), st.integers(min_value=1, max_value=16),
       st.integers(min_value=2, max_value=6), st.integers(0, 2000))
@settings(max_examples=150, deadline=None)
def test_walker_new_frames_match_windows(timing, chunk, seams, extra):
    """With a small chunk, a short cadence crosses several seams."""
    frames = chunk * seams
    count = int(frames / timing.video_fps * timing.refresh_hz) + extra
    count = min(max(count, 1), 200_000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CADENCE_CHUNK", chunk)
        assert walked(timing, count) == reference(timing, count)


@pytest.mark.parametrize(
    "refresh, fps",
    [(30.0, 30.0), (48.0, 23.976), (60.0, 59.94), (90.0, 29.97),
     (120.0, 119.88), (144.0, 144.0)],
)
def test_walker_new_frames_match_windows_at_full_chunk(refresh, fps):
    timing = RefreshTiming(refresh, fps)
    count = int(3.5 * sim._CADENCE_CHUNK * refresh / fps)
    assert walked(timing, count) == reference(timing, count)


@given(cadences(), st.integers(min_value=0, max_value=5000),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_chunks_tile_the_single_table(timing, start, split):
    """Chunked calls concatenate into exactly one call's table."""
    whole_windows, whole_frames = timing.new_frame_windows(start + 600)
    head = timing.new_frame_windows(start + split)
    tail = timing.new_frame_windows(600 - split, start=start + split)
    assert list(head[0]) + list(tail[0]) == list(whole_windows)
    assert list(head[1]) + list(tail[1]) == list(whole_frames)
