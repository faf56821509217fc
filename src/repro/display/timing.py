"""Refresh timing: frame windows and the new-frame/repeat-window cadence.

A panel refreshing at ``R`` Hz divides time into windows of ``1/R``
seconds.  A video at ``F`` FPS delivers a *new* frame in some windows and
repeats the previous frame in the rest (paper Sec. 2.5 and Fig. 3: a
30 FPS video on a 60 Hz panel updates the panel twice per frame, and the
repeat window is where PSR earns its savings).

Non-integer ratios (e.g. 24 FPS on 60 Hz) are handled with the same
accumulator a real display driver uses (a 3:2-pulldown-style cadence):
a window presents a new frame whenever one has become due since the last
window.

The cadence is in closed form: :meth:`RefreshTiming.shown` is the frame
a window shows and :meth:`RefreshTiming.first_window` the window at
which a frame first shows, so a walker steps from one screen update to
the next and pays for updates, not refresh windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

from ..errors import ConfigurationError


class WindowKind(enum.Enum):
    """What a refresh window has to display."""

    #: Identity hashing (see :class:`~repro.soc.cstates.PackageCState`).
    __hash__ = object.__hash__

    #: A new video frame must be decoded and brought to the panel.
    NEW_FRAME = "new_frame"
    #: The previous frame is shown again (PSR-eligible).
    REPEAT = "repeat"


@dataclass(frozen=True)
class WindowPlan:
    """One refresh window in a cadence: its index, start time, and kind."""

    index: int
    start: float
    duration: float
    kind: WindowKind
    #: Index of the video frame shown in this window (0-based).
    frame_index: int

    @property
    def end(self) -> float:
        """End time of the window."""
        return self.start + self.duration

    @property
    def is_new_frame(self) -> bool:
        """Whether this window presents a new video frame."""
        return self.kind is WindowKind.NEW_FRAME


@dataclass(frozen=True)
class RefreshTiming:
    """The refresh/frame-rate relationship for one playback session."""

    refresh_hz: float
    video_fps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.refresh_hz)
                and math.isfinite(self.video_fps)):
            raise ConfigurationError(
                "refresh rate and video frame rate must be finite"
            )
        if self.refresh_hz <= 0:
            raise ConfigurationError("refresh rate must be positive")
        if self.video_fps <= 0:
            raise ConfigurationError("video frame rate must be positive")
        if self.video_fps > self.refresh_hz + 1e-9:
            raise ConfigurationError(
                f"video at {self.video_fps} FPS exceeds the "
                f"{self.refresh_hz} Hz panel refresh rate"
            )
        if self.video_fps / self.refresh_hz <= 1e-9:
            # The cadence's 1e-9 frame epsilon (see shown) must stay
            # below one window's step, or it shows frames a window or
            # more early.
            raise ConfigurationError(
                f"video at {self.video_fps} FPS updates at most 1e-9 "
                f"times per window of the {self.refresh_hz} Hz panel"
            )

    @property
    def frame_window(self) -> float:
        """Length of one refresh window in seconds."""
        return 1.0 / self.refresh_hz

    @property
    def windows_per_frame(self) -> float:
        """Average number of refresh windows per video frame (2.0 for
        30 FPS on 60 Hz)."""
        return self.refresh_hz / self.video_fps

    @property
    def repeat_fraction(self) -> float:
        """Fraction of windows that are PSR-eligible repeats."""
        return 1.0 - self.video_fps / self.refresh_hz

    def windows(self, count: int) -> Iterator[WindowPlan]:
        """Yield the first ``count`` refresh windows of the cadence.

        The accumulator advances by ``fps/refresh`` frames per window; a
        window is NEW_FRAME when the integer frame index advances.
        """
        if count < 0:
            raise ConfigurationError("window count must be >= 0")
        duration = self.frame_window
        last_frame = -1
        for index in range(count):
            frame_index = self.shown(index)
            kind = (
                WindowKind.NEW_FRAME
                if frame_index > last_frame
                else WindowKind.REPEAT
            )
            if kind is WindowKind.NEW_FRAME:
                last_frame = frame_index
            yield WindowPlan(
                index=index,
                start=index * duration,
                duration=duration,
                kind=kind,
                frame_index=last_frame,
            )

    def shown(self, window: int) -> int:
        """The frame due in window ``window``.

        Frame ``k`` is presented at window ``k / step`` (``step`` frames
        per window), so window ``i`` shows frame ``floor(i * step)``; a
        tiny epsilon absorbs float accumulation for exact ratios like
        30/60.  The expression is monotone in the window.
        """
        return int(self.video_fps / self.refresh_hz * window + 1e-9)

    def first_window(self, frame: int) -> int:
        """The new-frame window at which ``frame`` first shows: the
        least window whose :meth:`shown` frame has reached it.

        The estimate ``ceil((frame - 1e-9) / step)`` is fixed up against
        :meth:`shown`, as far into the cadence rounding can put it a
        window early or late.  A frame the cadence skips (a frame rate
        a hair over the refresh rate) shares its successor's first
        window.
        """
        step = self.video_fps / self.refresh_hz
        first = max(0, math.ceil((frame - 1e-9) / step))
        while self.shown(first) < frame:
            first += 1
        while first > 0 and self.shown(first - 1) >= frame:
            first -= 1
        return first

    def cadence_pattern(self, count: int) -> str:
        """A compact cadence string, 'N' for new-frame windows and 'R' for
        repeats (e.g. ``"NRNR"`` for 30 FPS on 60 Hz) — handy in tests and
        reports."""
        return "".join(
            "N" if w.is_new_frame else "R" for w in self.windows(count)
        )
