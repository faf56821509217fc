"""Mobile SoC substrate on the evaluation path: package C-states,
component power states and the power-management unit (PMU) (paper
Secs. 2.1-2.2).

The functional models of the control/status registers
(``soc.registers``) and the IO interconnect with its DMA/P2P engines
(``soc.interconnect``) are not re-exported here and no exhibit runs
them. Import them from their own modules."""

from .cstates import (
    CSTATE_TRANSITIONS,
    PackageCState,
    TransitionCost,
    deepest_allowed,
)
from .components import Component, ComponentPowerState, ComponentSet
from .pmu import Pmu, PmuFirmware, PlatformState

__all__ = [
    "CSTATE_TRANSITIONS",
    "Component",
    "ComponentPowerState",
    "ComponentSet",
    "PackageCState",
    "PlatformState",
    "Pmu",
    "PmuFirmware",
    "TransitionCost",
    "deepest_allowed",
]
