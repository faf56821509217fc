"""Calibration sensitivity analysis.

The power library's constants are solved from the paper's published
anchors, but any decomposition has freedom in it — so the right question
is: *do the conclusions survive perturbing the constants?*  This module
simulates the headline comparison once, perturbs one calibrated
parameter at a time by a +/- spread, reprices both runs under each
perturbed library, and reports how the BurstLink reduction moves — a
tornado analysis over the model's knobs.  No simulation reads the power
library, so the runs need no repeating.

The result (see ``benchmarks/bench_sensitivity.py``) is the robustness
statement behind EXPERIMENTS.md: the *who-wins* conclusion is insensitive
to each :data:`PERTURBABLE` constant at +/-20% (an SoC floor capped at
its shallower neighbour's, see :func:`perturb_library`); only the
magnitude breathes by a few points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import Resolution, skylake_tablet
from ..core.burstlink import BurstLinkScheme
from ..errors import ConfigurationError
from ..pipeline.conventional import ConventionalScheme
from ..pipeline.sim import FrameWindowSimulator, RunResult
from ..power.calibration import (
    SKYLAKE_TABLET_POWER,
    ComponentPowerLibrary,
)
from ..power.model import PowerModel
from ..video.source import AnalyticContentModel

#: The constants worth perturbing, with how to scale each.
PERTURBABLE = (
    "panel_base",
    "panel_per_megapixel",
    "transition_extra",
    "cpu_active",
    "vd_active",
    "vd_low_power",
    "dc_mw_per_gbs",
    "edp_mw_per_gbps",
    "wifi_streaming",
    "dram_background_active",
    "dram_read_slope",
    "dram_write_slope",
    "soc_floor_c0",
    "soc_floor_c2",
    "soc_floor_c8",
    "soc_floor_c9",
)


def perturb_library(
    base: ComponentPowerLibrary, parameter: str, factor: float
) -> ComponentPowerLibrary:
    """A copy of ``base`` with one named parameter scaled by ``factor``.

    DRAM and SoC-floor parameters address into their nested structures;
    everything else is a direct field.
    """
    if factor <= 0:
        raise ConfigurationError("perturbation factor must be positive")
    if parameter.startswith("dram_"):
        dram = base.dram
        if parameter == "dram_background_active":
            from ..dram.states import DramPowerState

            background = dict(dram.background_mw)
            background[DramPowerState.ACTIVE] *= factor
            changes = {"background_mw": background}
        elif parameter == "dram_read_slope":
            changes = {"read_mw_per_gbs": dram.read_mw_per_gbs * factor}
        elif parameter == "dram_write_slope":
            changes = {
                "write_mw_per_gbs": dram.write_mw_per_gbs * factor
            }
        else:
            raise ConfigurationError(
                f"unknown DRAM parameter {parameter!r}"
            )
        return replace(base, dram=replace(dram, **changes))
    if parameter.startswith("soc_floor_"):
        from ..soc.cstates import PackageCState

        state = PackageCState[parameter.removeprefix("soc_floor_")
                              .upper()]
        floors = dict(base.soc_floor)
        floors[state] *= factor
        # Keep the monotonicity invariant by capping every floor at its
        # shallower neighbour's.  A floor scaled up stops there, so
        # soc_floor_c8 at +20% moves 180 -> 185 mW (C7's prime
        # sub-state), not to 216; deeper floors follow one scaled down.
        ordered = sorted(floors, key=lambda s: s.depth)
        for shallower, deeper in zip(ordered, ordered[1:]):
            floors[deeper] = min(floors[deeper], floors[shallower])
        return replace(base, soc_floor=floors)
    if not hasattr(base, parameter):
        raise ConfigurationError(f"unknown parameter {parameter!r}")
    return replace(base, **{parameter: getattr(base, parameter) * factor})


@dataclass(frozen=True)
class SensitivityRow:
    """One parameter's effect on the headline reduction."""

    parameter: str
    reduction_low: float
    reduction_base: float
    reduction_high: float

    @property
    def swing(self) -> float:
        """Total movement of the reduction across the perturbation."""
        return abs(self.reduction_high - self.reduction_low)

    @property
    def conclusion_stable(self) -> bool:
        """Whether BurstLink still wins at both extremes."""
        return self.reduction_low > 0 and self.reduction_high > 0


def _headline_runs(
    resolution: Resolution, fps: float, frame_count: int
) -> tuple[RunResult, RunResult]:
    """The conventional and BurstLink runs every library prices."""
    config = skylake_tablet(resolution)
    frames = AnalyticContentModel().frames(resolution, frame_count)
    conventional = FrameWindowSimulator(
        config, ConventionalScheme()
    ).run(frames, fps)
    burstlink = FrameWindowSimulator(
        config.with_drfb(), BurstLinkScheme()
    ).run(frames, fps)
    return conventional, burstlink


def _reduction(
    library: ComponentPowerLibrary, runs: tuple[RunResult, RunResult]
) -> float:
    model = PowerModel(library=library)
    base, burst = (model.report(run) for run in runs)
    return 1.0 - burst.average_power_mw / base.average_power_mw


def sensitivity_analysis(
    resolution: Resolution,
    fps: float = 30.0,
    parameters: tuple[str, ...] = PERTURBABLE,
    spread: float = 0.2,
    frame_count: int = 16,
) -> list[SensitivityRow]:
    """Tornado analysis: the headline reduction under each parameter's
    +/- ``spread`` perturbation, sorted by swing (largest first)."""
    if not parameters:
        raise ConfigurationError("need at least one parameter")
    if not 0 < spread < 1:
        raise ConfigurationError("spread must be in (0, 1)")
    runs = _headline_runs(resolution, fps, frame_count)
    base_reduction = _reduction(SKYLAKE_TABLET_POWER, runs)
    rows = []
    for parameter in parameters:
        low, high = (
            _reduction(
                perturb_library(SKYLAKE_TABLET_POWER, parameter, factor),
                runs,
            )
            for factor in (1.0 - spread, 1.0 + spread)
        )
        rows.append(
            SensitivityRow(
                parameter=parameter,
                reduction_low=low,
                reduction_base=base_reduction,
                reduction_high=high,
            )
        )
    return sorted(rows, key=lambda row: row.swing, reverse=True)
