"""Property: the closed-form bound of a block of steady updates
(``sim._block_end``) is exactly what scanning cadence tables chunk by
chunk finds.

The scan below is the walker's former bound, kept as the oracle: it
reads a numpy table of each frame's first window (``cadence_table``,
the walker's former cadence, kept here so the oracle shares no code
with ``_block_end`` or :meth:`RefreshTiming.first_window`) a chunk at a
time and stops at the first update that no longer fits.  The two are
held equal at film, NTSC and standby rates on 60 and 144 Hz panels, at
frame offsets up to ~1e9, with window and frame bounds that cut a
block short, and with oracle chunks of 1-8 frames so blocks cross
seams.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display.timing import RefreshTiming
from repro.pipeline import sim


def cadence_table(timing, count, start):
    """The new-frame windows at which frames ``[start, start + count)``
    first show, and the frame each shows (int64): the least window
    whose frame index (``step * i + 1e-9``, truncated) has reached the
    frame, from the estimate ``ceil((k - 1e-9) / step)`` fixed up
    against that expression.  A frame the cadence skips shares its
    successor's first window, which is listed once, under the earlier
    frame's call, so chunked calls with increasing ``start`` tile into
    one table."""
    step = timing.video_fps / timing.refresh_hz
    # One extra leading frame so a window shared across the chunk seam
    # is listed once.
    lead = 1 if start else 0
    frames = np.arange(start - lead, start + count)
    first = np.ceil((frames - 1e-9) / step).astype(np.int64)
    np.maximum(first, 0, out=first)
    while True:
        shown = (step * first + 1e-9).astype(np.int64)
        early = shown < frames
        if early.any():
            first[early] += 1
            continue
        late = (first > 0) & (
            (step * (first - 1) + 1e-9).astype(np.int64) >= frames
        )
        if not late.any():
            break
        first[late] -= 1
    keep = np.ones(first.size, dtype=bool)
    np.not_equal(first[1:], first[:-1], out=keep[1:])
    keep[:lead] = False
    return first[keep], shown[keep]


def chunk_scan_block_end(timing, limit, frame_end, window, frame, chunk):
    """How many updates from the one showing ``frame`` at ``window``
    fit (frame below ``frame_end``, next update by window ``limit``)
    and the last of them, read from cadence tables of ``chunk``
    frames."""
    # ``tail`` holds the two updates before the chunk (a placeholder
    # and the block's first update to begin with): in the chunk
    # extended by them, entry ``j`` is update ``fitted - 1 + j``.
    tail_windows = np.array([window, window], dtype=np.int64)
    tail_frames = np.array([frame, frame], dtype=np.int64)
    fitted = 0
    base = frame + 1
    while True:
        chunk_windows, chunk_frames = cadence_table(timing, chunk, base)
        windows = np.concatenate((tail_windows, chunk_windows))
        frames = np.concatenate((tail_frames, chunk_frames))
        count = chunk_windows.size
        # Entries 1..count are updates whose successor is in the chunk.
        fit = min(
            int(np.searchsorted(windows[2:], limit, side="right")),
            int(np.searchsorted(frames[1:-1], frame_end)),
        )
        if fit < count:
            return fitted + fit, (int(windows[fit]), int(frames[fit]))
        fitted += count
        tail_windows = windows[-2:]
        tail_frames = frames[-2:]
        base += chunk


@st.composite
def cadences(draw):
    refresh = draw(st.sampled_from([60.0, 144.0]))
    named = [0.2, 2.0] + ([30.0, 24.0, 23.976, 59.94, 60.0]
                          if refresh == 60.0 else [])
    fps = draw(
        st.one_of(
            st.sampled_from(named),
            st.floats(min_value=0.2, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
        )
    )
    return RefreshTiming(refresh, fps)


@given(
    cadences(),
    st.one_of(st.integers(0, 5_000), st.integers(0, 10**9)),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
    st.one_of(st.integers(-3, 3), st.integers(-400, 400)),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=400, deadline=None)
def test_closed_form_matches_the_chunk_scan(
    timing, frame, updates, frames, offset, chunk
):
    """From an update that fits (its frame below ``frame_end``, the
    next update by ``limit``), as the walker calls it."""
    step = timing.video_fps / timing.refresh_hz
    window = timing.first_window(frame)
    # A window bound near the ``updates``-th update's window (on it,
    # or a few windows either side), but never before the second's.
    limit = max(
        timing.first_window(frame + 1),
        timing.first_window(frame + updates) + offset,
    )
    frame_end = frame + frames
    assert sim._own_windows(step, limit)
    assert sim._block_end(timing, limit, frame_end, frame) == (
        chunk_scan_block_end(timing, limit, frame_end, window, frame, chunk)
    )


@given(cadences(), st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_first_window_matches_the_cadence_table(timing, frame):
    windows, frames = cadence_table(timing, 2, frame)
    assert (timing.first_window(frame),
            timing.first_window(frame + 1)) == tuple(windows.tolist())
    assert frames.tolist() == [frame, frame + 1]


def test_rates_that_may_skip_frames_take_no_block():
    """A rate a hair over the refresh rate, or so close under it that
    rounding could skip a frame, is not given the closed form."""
    assert sim._own_windows(1.0, 10**12)
    assert not sim._own_windows(1.0 + 1e-12, 10)
    assert not sim._own_windows(1.0 - 2.0**-40, 10**6)
    assert sim._own_windows(1.0 - 2.0**-40, 10)
    assert sim._own_windows(59.94 / 60.0, 2 * 10**9)
