"""Refresh timing and the new-frame/repeat cadence."""

import numpy as np
import pytest

from repro.display.timing import RefreshTiming, WindowKind
from repro.errors import ConfigurationError


class TestBasics:
    def test_frame_window(self):
        assert RefreshTiming(60, 30).frame_window == pytest.approx(1 / 60)

    def test_windows_per_frame(self):
        assert RefreshTiming(60, 30).windows_per_frame == 2.0
        assert RefreshTiming(120, 30).windows_per_frame == 4.0

    def test_repeat_fraction(self):
        assert RefreshTiming(60, 30).repeat_fraction == pytest.approx(0.5)
        assert RefreshTiming(60, 60).repeat_fraction == pytest.approx(0.0)

    def test_fps_above_refresh_rejected(self):
        with pytest.raises(ConfigurationError):
            RefreshTiming(60, 61)

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            RefreshTiming(0, 30)
        with pytest.raises(ConfigurationError):
            RefreshTiming(60, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_rates_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            RefreshTiming(bad, 30)
        with pytest.raises(ConfigurationError, match="finite"):
            RefreshTiming(60, bad)

    def test_fps_too_slow_rejected(self):
        with pytest.raises(ConfigurationError, match="at most 1e-9"):
            RefreshTiming(60, 1e-12)
        with pytest.raises(ConfigurationError, match="at most 1e-9"):
            RefreshTiming(60, 6e-8)
        # Here the frame epsilon would show frame 1 at window
        # 143,999,999,856 instead of 144,000,000,000.
        with pytest.raises(ConfigurationError, match="at most 1e-9"):
            RefreshTiming(144, 1e-9)
        RefreshTiming(60, 6.000001e-8)


class TestCadence:
    def test_30_on_60(self):
        assert RefreshTiming(60, 30).cadence_pattern(8) == "NRNRNRNR"

    def test_60_on_60(self):
        assert RefreshTiming(60, 60).cadence_pattern(6) == "NNNNNN"

    def test_24_on_60_is_3_2_pulldown(self):
        assert RefreshTiming(60, 24).cadence_pattern(10) == "NRRNRNRRNR"

    def test_30_on_120(self):
        assert RefreshTiming(120, 30).cadence_pattern(8) == "NRRRNRRR"

    def test_first_window_is_always_new(self):
        for fps in (1, 24, 30, 59.94, 60):
            first = next(iter(RefreshTiming(60, fps).windows(1)))
            assert first.kind is WindowKind.NEW_FRAME

    def test_frame_indices_monotonic(self):
        indices = [
            w.frame_index for w in RefreshTiming(60, 24).windows(30)
        ]
        assert indices == sorted(indices)
        assert indices[0] == 0

    def test_new_frame_count_matches_fps_ratio(self):
        windows = list(RefreshTiming(60, 24).windows(60))
        new_frames = sum(1 for w in windows if w.is_new_frame)
        assert new_frames == 24  # one second of 24 FPS video

    def test_window_times_tile_the_second(self):
        windows = list(RefreshTiming(60, 30).windows(60))
        assert windows[0].start == 0.0
        assert windows[-1].end == pytest.approx(1.0)
        for earlier, later in zip(windows, windows[1:]):
            assert later.start == pytest.approx(earlier.end)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            list(RefreshTiming(60, 30).windows(-1))

    def test_fractional_fps(self):
        # 59.94 on 60: almost every window new, a repeat every ~1000.
        pattern = RefreshTiming(60, 59.94).cadence_pattern(1000)
        assert pattern.count("R") == 1


def stepped(timing, frame, count):
    """``count`` new-frame windows and the frames they show, stepped in
    closed form from the update that shows ``frame``, as the walker
    steps."""
    window = timing.first_window(frame)
    pairs = []
    for _ in range(count):
        frame = timing.shown(window)
        pairs.append((window, frame))
        window = timing.first_window(frame + 1)
    return pairs


class TestNewFrameWindows:
    def test_30_on_60(self):
        assert stepped(RefreshTiming(60, 30), 0, 4) == [
            (0, 0), (2, 1), (4, 2), (6, 3),
        ]

    def test_skipped_frame_listed_once_across_seams(self):
        # A frame rate a hair over the refresh rate drops a frame near
        # window 3e10: it shares its successor's first window, which is
        # listed once, and a walk resumed at any frame around it (as
        # after a block) joins the single walk.
        timing = RefreshTiming(30, 30 + 1e-9)
        skip = 29_999_940_297
        assert timing.first_window(skip + 1) == timing.first_window(
            skip + 2
        )
        pairs = stepped(timing, skip - 100, 199)
        frames = [frame for _, frame in pairs]
        assert frames[-1] == skip + 99
        assert max(b - a for a, b in zip(frames, frames[1:])) == 2
        for split in range(98, 103):
            frame = skip - 100 + split
            head = sum(1 for shown in frames if shown < frame)
            assert stepped(timing, frame, 10) == pairs[head:head + 10]

    @pytest.mark.parametrize(
        "refresh, fps, start",
        [
            # Far into the cadence the estimate lands late (first
            # case) or early (second) and the fix-up corrects it.
            (60.0, 5.925890803214396, 371_771_011_863_082),
            (120.0, 65.66765805697953, 898_393_755_238_765),
        ],
    )
    def test_matches_windows_far_into_the_cadence(self, refresh, fps,
                                                  start):
        timing = RefreshTiming(refresh, fps)
        windows, frames = zip(*stepped(timing, start, 256))
        # The reference: where the exact expression of windows() steps.
        step = fps / refresh
        index = np.arange(windows[0] - 1, windows[-1] + 1)
        due = (step * index + 1e-9).astype(np.int64)
        new = np.flatnonzero(due[1:] > due[:-1]) + 1
        assert list(windows) == list(index[new])
        assert list(frames) == list(due[new])
        assert frames[0] == start
