"""DRAM substrate: power states and the background + operating power
model of paper Sec. 5.2. Frame-buffer region management
(``dram.framebuffer``) is not on the evaluation path; import it from
its own module."""

from .states import DramPowerState, dram_state_for_package
from .power import DramPowerModel

__all__ = [
    "DramPowerModel",
    "DramPowerState",
    "dram_state_for_package",
]
