"""The two-part DRAM power model of paper Sec. 5.2.

DRAM power is modeled as:

* **background power**, which depends only on the DRAM power state
  (CKE-high / CKE-low / self-refresh) and is weighted by the time spent in
  each state; plus
* **operating power**, proportional to the read and write bandwidth
  actually consumed (mW per GB/s, with distinct read and write slopes as
  the paper's memory-benchmark extrapolation produces).

The default constants describe the evaluated 8 GB dual-channel
LPDDR3-1866 (Table 3) and are anchored so that DRAM contributes >30% of
system energy while streaming 4K video (Fig. 1) — the validation test in
``tests/power/test_calibration.py`` checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..units import gb_per_s
from .states import DramPowerState


@dataclass(frozen=True)
class DramPowerModel:
    """Background + operating DRAM power (all figures in mW)."""

    #: Background power per state, mW.
    background_mw: dict[DramPowerState, float] = field(
        default_factory=lambda: {
            DramPowerState.ACTIVE: 1100.0,
            DramPowerState.FAST_POWER_DOWN: 120.0,
            DramPowerState.SELF_REFRESH: 30.0,
        }
    )
    #: Operating power slope for reads, mW per GB/s.  The slopes cover the
    #: whole measured DRAM path of the paper's Sec. 5.3 setup (device
    #: VDD/VDDQ plus the DDRIO PHY and memory-controller datapath), which
    #: is why they sit well above bare-device datasheet numbers — and why
    #: DRAM reaches >30% of system energy at 4K (Fig. 1).
    read_mw_per_gbs: float = 400.0
    #: Operating power slope for writes, mW per GB/s (writes cost more:
    #: they burn the on-die termination both ways).
    write_mw_per_gbs: float = 440.0

    def __post_init__(self) -> None:
        for state in DramPowerState:
            if state not in self.background_mw:
                raise ConfigurationError(
                    f"background power missing for DRAM state {state.name}"
                )
            if self.background_mw[state] < 0:
                raise ConfigurationError(
                    f"background power for {state.name} must be >= 0"
                )
        if self.read_mw_per_gbs < 0 or self.write_mw_per_gbs < 0:
            raise ConfigurationError("operating power slopes must be >= 0")

    # -- instantaneous power ---------------------------------------------------

    def background_power(self, state: DramPowerState) -> float:
        """Background power (mW) in ``state``."""
        return self.background_mw[state]

    def operating_power(self, read_bw: float, write_bw: float) -> float:
        """Operating power (mW) while sustaining ``read_bw`` and
        ``write_bw`` (bytes/s each)."""
        if read_bw < 0 or write_bw < 0:
            raise ConfigurationError("bandwidths must be >= 0")
        return (
            self.read_mw_per_gbs * read_bw / gb_per_s(1)
            + self.write_mw_per_gbs * write_bw / gb_per_s(1)
        )

    def power(self, state: DramPowerState, read_bw: float = 0.0,
              write_bw: float = 0.0) -> float:
        """Total DRAM power (mW) in ``state`` at the given bandwidths.

        Traffic demands an active DRAM; asking for bandwidth in
        self-refresh or power-down is a modelling bug and raises.
        """
        if (read_bw > 0 or write_bw > 0) and not state.can_serve_requests:
            raise ConfigurationError(
                f"DRAM cannot serve traffic in state {state.name}"
            )
        return self.background_power(state) + self.operating_power(
            read_bw, write_bw
        )

    # -- energy of traffic volumes --------------------------------------------

    def traffic_energy(self, read_bytes: float, write_bytes: float) -> float:
        """Operating energy (mJ) of moving the given byte totals.

        Energy per byte is independent of how fast the bytes move (power
        scales linearly with bandwidth, so time cancels), which lets the
        analytical model charge traffic volumes directly.
        """
        if read_bytes < 0 or write_bytes < 0:
            raise ConfigurationError("byte totals must be >= 0")
        return (
            self.read_mw_per_gbs * read_bytes / gb_per_s(1)
            + self.write_mw_per_gbs * write_bytes / gb_per_s(1)
        )
