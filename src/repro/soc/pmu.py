"""The power-management unit (PMU).

The PMU observes every component's power state and places the SoC in the
deepest package C-state those states allow (paper Sec. 2.2, Table 1).
BurstLink modifies the PMU *firmware* in three ways (Sec. 4.4):

1. allow the processor to enter C9 while a video is playing, once the
   frame is safely inside the panel's DRFB;
2. wake the video decoder (empty/wakeup signalling) whenever the display
   controller's buffer drains, driving the C7 <-> C7' oscillation of
   Fig. 6 without any CPU involvement; and
3. let the DC transfer at the maximum eDP bandwidth when Frame Bursting
   is armed.

The firmware cost of those changes (a few tens of Pcode lines, ~0.004%
die area) is modeled in :mod:`repro.core.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .components import ComponentSet
from .cstates import PackageCState


@dataclass(frozen=True)
class PmuFirmware:
    """PMU firmware capabilities.

    ``conventional()`` reflects stock Skylake Pcode; ``burstlink()``
    enables the three Sec. 4.4 changes.
    """

    #: Firmware change 1: enter C9 during video playback once the frame
    #: resides in the panel's remote buffer.
    allow_c9_during_video: bool = False
    #: Firmware change 2: PMU-driven VD wakeup when the DC buffer empties
    #: (replaces driver interrupts).
    vd_wakeup_on_dc_empty: bool = False
    #: Firmware change 3: DC may run the eDP link at maximum bandwidth.
    frame_bursting_enabled: bool = False

    @classmethod
    def conventional(cls) -> "PmuFirmware":
        """Stock firmware: none of the BurstLink features."""
        return cls()

    @classmethod
    def burstlink(cls) -> "PmuFirmware":
        """Firmware with all three BurstLink changes applied."""
        return cls(
            allow_c9_during_video=True,
            vd_wakeup_on_dc_empty=True,
            frame_bursting_enabled=True,
        )

    def with_idealised_psr_c9(self) -> "PmuFirmware":
        """A conventional-firmware variant that still permits C9 in PSR
        repeat windows — the idealised Fig. 3(a) timeline
        (``SystemConfig.baseline_c9_in_psr``)."""
        return replace(self, allow_c9_during_video=True)


@dataclass
class PlatformState:
    """A snapshot of everything the PMU consults when resolving the
    package C-state."""

    components: ComponentSet = field(default_factory=ComponentSet)
    #: The display panel is lit (C10 requires the panel off).
    panel_displaying: bool = True
    #: The panel's remote buffer holds a frame it can self-refresh from.
    frame_in_remote_buffer: bool = False
    #: A video streaming/playback session is open.
    video_session_active: bool = False

    def copy(self) -> "PlatformState":
        """An independent copy of this snapshot."""
        return PlatformState(
            components=self.components.copy(),
            panel_displaying=self.panel_displaying,
            frame_in_remote_buffer=self.frame_in_remote_buffer,
            video_session_active=self.video_session_active,
        )


@dataclass
class Pmu:
    """The package C-state resolver and the eDP rate it allows the DC."""

    firmware: PmuFirmware = field(default_factory=PmuFirmware.conventional)

    def resolve(self, platform: PlatformState) -> PackageCState:
        """The package C-state for the given platform snapshot.

        Resolution is the component rule of Table 1 followed by two
        platform-level caps:

        * C10 requires the panel to be off — a lit panel caps at C9;
        * C9 during an active video session requires both firmware
          support (BurstLink change 1, or the idealised-PSR variant) and
          a frame resident in the panel's remote buffer for self-refresh.
        """
        state = platform.components.resolve_package_state()
        if platform.panel_displaying and state.depth > PackageCState.C9.depth:
            state = PackageCState.C9
        if (
            state.depth >= PackageCState.C9.depth
            and platform.video_session_active
        ):
            can_self_refresh = (
                platform.frame_in_remote_buffer
                and self.firmware.allow_c9_during_video
            )
            if not can_self_refresh:
                state = PackageCState.C8
        return state

    def burst_bandwidth(self, edp_max_bandwidth: float,
                        panel_rate: float) -> float:
        """The eDP transfer rate the DC is allowed: the link maximum when
        Frame Bursting is armed (firmware change 3), else the panel's
        pixel-update rate (the conventional coupling of Observation 2)."""
        if self.firmware.frame_bursting_enabled:
            return edp_max_bandwidth
        return min(panel_rate, edp_max_bandwidth)
