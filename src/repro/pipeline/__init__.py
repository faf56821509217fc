"""Frame-window simulation: package C-state timelines, the window
scheduler, the run-level simulator, and the conventional (PSR-baseline)
display scheme (paper Secs. 2.5 and 3)."""

from .timeline import (
    PanelMode,
    Segment,
    SegmentClass,
    Timeline,
    TimelineSummary,
    VdMode,
)
from .builder import TimelineBuilder
from .sim import (
    DisplayScheme,
    FrameWindowSimulator,
    RunResult,
    RunStats,
    StreamingSimulator,
    StreamingWindow,
    WindowContext,
    WindowResult,
)
from .conventional import ConventionalScheme

__all__ = [
    "ConventionalScheme",
    "DisplayScheme",
    "FrameWindowSimulator",
    "PanelMode",
    "RunResult",
    "RunStats",
    "Segment",
    "SegmentClass",
    "StreamingSimulator",
    "StreamingWindow",
    "Timeline",
    "TimelineBuilder",
    "TimelineSummary",
    "VdMode",
    "WindowContext",
    "WindowResult",
]
