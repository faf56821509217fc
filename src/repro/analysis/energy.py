"""Scheme-comparison helpers: run a workload under several schemes and
compare average power / energy."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..errors import SimulationError
from ..pipeline.sim import (
    DisplayScheme,
    FrameWindowSimulator,
    RunResult,
    VrWork,
)
from ..power.model import EnergyReport, PlatformExtras, PowerModel
from ..video.source import FrameDescriptor, FrameSource


def energy_reduction(baseline: EnergyReport,
                     candidate: EnergyReport) -> float:
    """Fractional energy reduction of ``candidate`` vs ``baseline``
    (0.41 = 41% less energy)."""
    if baseline.average_power_mw <= 0:
        raise SimulationError("baseline consumed no energy")
    return 1.0 - candidate.average_power_mw / baseline.average_power_mw


@dataclass
class SchemeComparison:
    """One workload evaluated under several schemes."""

    workload: str
    baseline: EnergyReport
    candidates: dict[str, EnergyReport]
    runs: dict[str, RunResult]

    def reduction(self, scheme: str) -> float:
        """Fractional energy reduction of ``scheme`` vs the baseline."""
        if scheme not in self.candidates:
            raise SimulationError(
                f"no scheme {scheme!r} in this comparison "
                f"(have {sorted(self.candidates)})"
            )
        return energy_reduction(self.baseline, self.candidates[scheme])

    def reductions(self) -> dict[str, float]:
        """All candidate reductions."""
        return {name: self.reduction(name) for name in self.candidates}


def compare_schemes(
    config: SystemConfig,
    frames: list[FrameDescriptor] | FrameSource,
    fps: float,
    schemes: dict[str, tuple[DisplayScheme, bool]],
    baseline: DisplayScheme,
    vr_work: list[VrWork] | None = None,
    extras: PlatformExtras | None = None,
    workload: str = "",
    max_windows: int | None = None,
    retain: str = "summary",
) -> SchemeComparison:
    """Run ``frames`` under the baseline and every candidate scheme.

    ``schemes`` maps a label to ``(scheme, needs_drfb)``; DRFB-requiring
    schemes run against the DRFB-extended panel.  ``frames`` may be a
    materialised list or any :class:`FrameSource`; ``retain="full"``
    keeps each run's timeline beside its :class:`TimelineSummary`.
    """
    model = PowerModel(extras=extras) if extras else PowerModel()
    base_run = FrameWindowSimulator(config, baseline).run(
        frames, fps, vr_work=vr_work, max_windows=max_windows,
        retain=retain,
    )
    base_report = model.report(base_run)
    candidates: dict[str, EnergyReport] = {}
    runs: dict[str, RunResult] = {"baseline": base_run}
    for label, (scheme, needs_drfb) in schemes.items():
        scheme_config = config.with_drfb() if needs_drfb else config
        run = FrameWindowSimulator(scheme_config, scheme).run(
            frames, fps, vr_work=vr_work, max_windows=max_windows,
            retain=retain,
        )
        candidates[label] = model.report(run)
        runs[label] = run
    return SchemeComparison(
        workload=workload,
        baseline=base_report,
        candidates=candidates,
        runs=runs,
    )
