"""The analytical power model of paper Sec. 5.2, its Skylake-anchored
calibration (Sec. 5.3) and component-level energy breakdown."""

from .calibration import ComponentPowerLibrary, SKYLAKE_TABLET_POWER
from .model import (
    CStateSummary,
    EnergyReport,
    PlatformExtras,
    PowerModel,
)
from .breakdown import SystemBreakdown, breakdown_report

__all__ = [
    "CStateSummary",
    "ComponentPowerLibrary",
    "EnergyReport",
    "PlatformExtras",
    "PowerModel",
    "SKYLAKE_TABLET_POWER",
    "SystemBreakdown",
    "breakdown_report",
]
