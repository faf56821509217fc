"""Property: the cadence walker's new-frame windows, stepped in closed
form from one update to the next (``first_window(f + 1)``, then the
frame ``shown`` there), are exactly the ``NEW_FRAME`` windows (and frame
indices) of :meth:`RefreshTiming.windows`, the window-by-window
reference — for integer, NTSC-fractional and very low update rates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display.timing import RefreshTiming

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
    """The walker's steps from window 0 up to window ``count``."""
    pairs = []
    window = frame = 0
    while window < count:
        pairs.append((window, frame))
        window = timing.first_window(frame + 1)
        frame = timing.shown(window)
    return pairs


@given(cadences(), st.integers(min_value=1, max_value=100),
       st.integers(0, 2000))
@settings(max_examples=150, deadline=None)
def test_walker_new_frames_match_windows(timing, frames, extra):
    count = int(frames / timing.video_fps * timing.refresh_hz) + extra
    count = min(max(count, 1), 200_000)
    assert walked(timing, count) == reference(timing, count)


@pytest.mark.parametrize(
    "refresh, fps",
    [(30.0, 30.0), (48.0, 23.976), (60.0, 59.94), (90.0, 29.97),
     (120.0, 119.88), (144.0, 144.0)],
)
def test_walker_new_frames_match_windows_at_named_rates(refresh, fps):
    timing = RefreshTiming(refresh, fps)
    count = int(896 * refresh / fps)
    assert walked(timing, count) == reference(timing, count)
