"""Multi-phase usage scenarios with dynamic scheme switching.

The paper's Sec. 4.1 describes BurstLink as *opportunistic*: the
hardware engages bypass/bursting when the register state allows and
falls back to the conventional path the moment it does not (a new
plane, a touch, a second stream).  The per-figure experiments hold the
scheme fixed; this engine plays out a whole session — e.g. browse, go
full-screen, get interrupted by a notification, resume — re-running the
selector at every phase boundary and adding the phases up into one
session.

A :class:`Scenario` is a list of :class:`Phase` steps.  Each phase
mutates the register file (through its ``events``), asks
:class:`~repro.core.SchemeSelector` for the scheme the hardware would
engage, and simulates its duration with that scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import SystemConfig
from ..core.fallback import SchemeSelector
from ..errors import ConfigurationError
from ..pipeline.sim import FrameWindowSimulator, RunResult
from ..power.model import EnergyReport, PlatformExtras, PowerModel
from ..soc.registers import RegisterFile
from ..video.source import AnalyticContentModel

#: A register-file mutation applied at a phase boundary (e.g. "the user
#: touched the screen", "a notification plane appeared").
RegisterEvent = Callable[[RegisterFile], None]


@dataclass
class Phase:
    """One scenario step."""

    name: str
    duration_s: float
    #: Video frame rate during the phase.
    fps: float = 30.0
    #: Register mutations applied when the phase begins.
    events: tuple[RegisterEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"phase {self.name!r} needs a positive duration"
            )
        if self.fps <= 0:
            raise ConfigurationError(
                f"phase {self.name!r} needs a positive frame rate"
            )


@dataclass
class PhaseOutcome:
    """What one phase resolved to."""

    phase: Phase
    scheme: str
    reason: str
    run: RunResult
    report: EnergyReport


@dataclass
class ScenarioResult:
    """A played-out scenario."""

    outcomes: list[PhaseOutcome]

    @property
    def total_energy_mj(self) -> float:
        """Energy over the whole session."""
        return sum(o.report.total_energy_mj for o in self.outcomes)

    @property
    def duration_s(self) -> float:
        """Total session time."""
        return sum(o.run.duration for o in self.outcomes)

    @property
    def average_power_mw(self) -> float:
        """Session-average system power."""
        return self.total_energy_mj / self.duration_s

    def scheme_sequence(self) -> list[str]:
        """The schemes the hardware engaged, phase by phase."""
        return [o.scheme for o in self.outcomes]

    def summary(self) -> str:
        """One line per phase plus the session average."""
        lines = []
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.phase.name:20s} {outcome.scheme:18s} "
                f"{outcome.report.average_power_mw:6.0f} mW  "
                f"({outcome.reason})"
            )
        lines.append(
            f"{'session average':20s} {'':18s} "
            f"{self.average_power_mw:6.0f} mW"
        )
        return "\n".join(lines)


@dataclass
class Scenario:
    """A scripted session over one platform."""

    config: SystemConfig
    phases: list[Phase]
    registers: RegisterFile = field(
        default_factory=RegisterFile.full_screen_video
    )
    extras: PlatformExtras = field(default_factory=PlatformExtras)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("a scenario needs phases")

    def play(self) -> ScenarioResult:
        """Run every phase, re-selecting the scheme at each boundary."""
        selector = SchemeSelector()
        model = PowerModel(extras=self.extras)
        content = AnalyticContentModel()
        outcomes: list[PhaseOutcome] = []
        for index, phase in enumerate(self.phases):
            for event in phase.events:
                event(self.registers)
            scheme = selector.select(self.registers)
            _, reason = selector.decisions[-1]
            # Scheme hardware requirements: DRFB-based schemes need the
            # extended panel; the selector's choice presumes it exists.
            config = (
                self.config.with_drfb()
                if scheme.name in ("burstlink", "frame-bursting",
                                   "windowed-video")
                else self.config
            )
            frame_count = max(
                1, int(round(phase.duration_s * phase.fps))
            )
            frames = content.frames(
                config.panel.resolution,
                frame_count,
                seed=self.seed + index,
            )
            run = FrameWindowSimulator(config, scheme).run(
                frames, phase.fps
            )
            outcomes.append(
                PhaseOutcome(
                    phase=phase,
                    scheme=scheme.name,
                    reason=reason,
                    run=run,
                    report=model.report(run),
                )
            )
        return ScenarioResult(outcomes=outcomes)


# ---------------------------------------------------------------------------
# Canned register events
# ---------------------------------------------------------------------------


def user_touch(registers: RegisterFile) -> None:
    """The user touched the screen: PSR2 exits (fallback trigger 2)."""
    registers.psr2_exited = True


def touch_settles(registers: RegisterFile) -> None:
    """The input burst ended; selective updates may resume."""
    registers.psr2_exited = False


def notification_appears(registers: RegisterFile) -> None:
    """A notification plane raises the graphics interrupt (trigger 1)."""
    registers.graphics_interrupt = True


def notification_dismissed(registers: RegisterFile) -> None:
    """The notification plane went away."""
    registers.graphics_interrupt = False


def second_stream_opens(registers: RegisterFile) -> None:
    """A second video session opens (breaks ``single_video``)."""
    registers.open_video_session()


def second_stream_closes(registers: RegisterFile) -> None:
    """The second session closed again."""
    registers.close_video_session()


def streaming_session(config: SystemConfig) -> Scenario:
    """A canned session: steady full-screen playback, a touch, a
    notification, then steady playback again."""
    return Scenario(
        config=config,
        phases=[
            Phase("steady playback", duration_s=1.0),
            Phase("user touches", duration_s=0.5,
                  events=(user_touch,)),
            Phase("touch settles", duration_s=1.0,
                  events=(touch_settles,)),
            Phase("notification", duration_s=0.5,
                  events=(notification_appears,)),
            Phase("dismissed", duration_s=1.0,
                  events=(notification_dismissed,)),
        ],
    )
