"""Connected standby: the screen-off regime.

Table 1's deepest state, C10, only exists when the panel is *off* — the
regime the paper's companion work on connected-standby energy targets.
This generator rounds out the C-state coverage: the device sleeps in C10
with the display dark, waking briefly on a period (push notifications,
timers) to service network traffic in C0/C2 before dropping back.

Useful as the "other half" of a battery story: a tablet's day is
standby punctuated by sessions, and the standby floor bounds how much a
display-path optimisation like BurstLink can matter overall.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import FHD, Resolution, SystemConfig, skylake_tablet
from ..display.timing import RefreshTiming
from ..errors import ConfigurationError
from ..pipeline.builder import TimelineBuilder
from ..pipeline.sim import DisplayScheme, FrameWindowSimulator, RunResult
from ..pipeline.timeline import PanelMode, Timeline
from ..soc.cstates import PackageCState
from ..units import mib
from ..video.source import (
    AnalyticContentModel,
    ContentClass,
    RepeatingFrameSource,
)


def standby_timeline(
    config: SystemConfig,
    duration_s: float = 60.0,
    wake_interval_s: float = 10.0,
    wake_work_s: float = 0.030,
    wake_traffic_bytes: float = mib(0.25),
) -> Timeline:
    """A connected-standby timeline: C10 with periodic wake bursts.

    Each wake runs ``wake_work_s`` of CPU+network work (DRAM awake, the
    panel stays off), then the platform drops back to C10 — paying the
    deep state's long exit latency on every wake, which is exactly why
    real firmware batches wake sources.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if wake_interval_s <= 0:
        raise ConfigurationError("wake interval must be positive")
    if wake_work_s < 0 or wake_work_s >= wake_interval_s:
        raise ConfigurationError(
            "wake work must be shorter than the interval"
        )
    if wake_traffic_bytes < 0:
        raise ConfigurationError("wake traffic must be >= 0")

    builder = TimelineBuilder(initial_state=PackageCState.C10)
    elapsed = 0.0
    while elapsed < duration_s - 1e-12:
        sleep = min(wake_interval_s - wake_work_s,
                    duration_s - elapsed)
        builder.add(
            sleep,
            PackageCState.C10,
            label="standby",
            panel_mode=PanelMode.OFF,
        )
        elapsed += sleep
        if elapsed >= duration_s - 1e-12:
            break
        work = min(wake_work_s, duration_s - elapsed)
        if work > 0:
            builder.add(
                work,
                PackageCState.C0,
                label="standby wake",
                cpu_active=True,
                dram_read_bw=wake_traffic_bytes / work,
                dram_write_bw=wake_traffic_bytes / work,
                panel_mode=PanelMode.OFF,
            )
            elapsed += work
    return builder.build()


@dataclass(frozen=True)
class AmbientStandbyWorkload:
    """Ambient (screen-on) standby: a static image on the panel that
    updates rarely — a lock-screen clock, an always-on dashboard.

    Almost every refresh window is a repeat of the same frame, which is
    the regime plan replay targets: the simulator plans a few windows
    and replays them for the rest, and once the updates reach their
    fixed point it accounts them as one block, so an hour-long ambient
    session costs about as much as a minute-long one.
    """

    resolution: Resolution = FHD
    refresh_hz: float = 60.0
    #: Content updates per second (0.2 = the clock face redraws every
    #: five seconds).
    update_fps: float = 0.2
    duration_s: float = 60.0
    content: ContentClass = ContentClass.SCREEN
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if not 0 < self.update_fps <= self.refresh_hz:
            raise ConfigurationError(
                "update_fps must be in (0, refresh_hz]"
            )

    @property
    def window_count(self) -> int:
        """Refresh windows covering the session."""
        return max(1, int(round(self.duration_s * self.refresh_hz)))

    @property
    def frame_count(self) -> int:
        """Distinct frame presentations the cadence asks for."""
        timing = RefreshTiming(self.refresh_hz, self.update_fps)
        return timing.shown(self.window_count - 1) + 1

    def source(self) -> RepeatingFrameSource:
        """The session's frame stream: one static screen-content frame
        repeated for every update slot (O(1) memory at any duration)."""
        frame = next(
            iter(
                AnalyticContentModel(content=self.content).iter_frames(
                    self.resolution, 1, seed=self.seed
                )
            )
        )
        return RepeatingFrameSource(frame, self.frame_count)

    def system_config(self) -> SystemConfig:
        """The platform for this workload."""
        return skylake_tablet(self.resolution, self.refresh_hz)


def ambient_standby_run(
    workload: AmbientStandbyWorkload,
    scheme: DisplayScheme,
    with_drfb: bool = False,
    retain: str = "summary",
) -> RunResult:
    """Simulate an ambient-standby session under ``scheme``.

    Keeps only the summary unless ``retain="full"`` asks for the
    segments: ambient sessions are long and repeat-dominated, exactly
    the case the streaming summary + collapsing path exists for.
    """
    config = workload.system_config()
    if with_drfb:
        config = config.with_drfb()
    simulator = FrameWindowSimulator(config, scheme)
    return simulator.run(
        workload.source(),
        workload.update_fps,
        max_windows=workload.window_count,
        retain=retain,
    )


def standby_power_mw(
    config: SystemConfig,
    wake_interval_s: float = 10.0,
    duration_s: float = 60.0,
) -> float:
    """Average standby power for a given wake cadence (a convenience
    wrapper around the timeline + power model)."""
    from ..power.model import PlatformExtras, PowerModel

    model = PowerModel(
        extras=PlatformExtras(streaming=False, local_playback=False)
    )
    timeline = standby_timeline(
        config, duration_s=duration_s, wake_interval_s=wake_interval_s
    )
    return model.report_timeline(
        timeline, config.panel, scheme="standby"
    ).average_power_mw
