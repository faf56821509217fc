"""Refresh timing and the new-frame/repeat cadence."""

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
