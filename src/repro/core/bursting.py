"""Frame Bursting alone (paper Sec. 4.2, and the "Burst" ablation of
Figs. 9/12; also the mechanism behind the Fig. 14b mobile workloads).

Decoded frames still travel through the DRAM frame buffer as in the
conventional pipeline, but the DC drains them to the panel's DRFB at the
*maximum* eDP bandwidth instead of the pixel-update rate.  The burst
overlaps the tail of the decode (the DC starts fetching as soon as the
first chunks land in the frame buffer); during the remaining burst the
package oscillates between C2 (refilling the DC buffer from DRAM) and C8
(streaming at the link maximum while DRAM naps), and once the frame is in
the DRFB everything drops to C9.

Repeat windows need no driver flip work — the frame self-refreshes from
the DRFB after a short PMU-side check (firmware change 1 accompanies the
DRFB).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..soc.cstates import PackageCState
from ..soc.pmu import Pmu, PmuFirmware
from ..pipeline.builder import TimelineBuilder
from ..pipeline.conventional import (
    effective_fetch_bandwidth,
    emit_fetch_cycles,
    plan_psr_repeat,
)
from ..pipeline.sim import (
    WindowContext,
    WindowResult,
    staged_stream_reads,
)
from ..pipeline.timeline import PanelMode, VdMode


@dataclass
class FrameBurstingScheme:
    """Burst-only ablation: conventional decode path, bursted display."""

    name: str = "frame-bursting"

    def __post_init__(self) -> None:
        # Firmware changes 1 (C9 during video) and 3 (max-bandwidth
        # transfer); the bypass signalling (change 2) is not present.
        self.pmu = Pmu(
            firmware=PmuFirmware(
                allow_c9_during_video=True,
                vd_wakeup_on_dc_empty=False,
                frame_bursting_enabled=True,
            )
        )

    def plan_key(self) -> tuple:
        """Collapse key: stateless (fixed firmware)."""
        return (self.name,)

    #: The encoded frame enters a new-frame plan only as equal DRAM
    #: reads and writes on the ``orchestrate+decode (+burst head)``
    #: segment.
    plan_reads = staticmethod(staged_stream_reads)

    def frame_phase(self, frame_index: int) -> object:
        """Plans read only the frame's content, never its index."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window with Frame Bursting only."""
        if ctx.window.is_new_frame:
            return self._plan_new_frame(ctx)
        # A short check, then C9 (the frame is in the DRFB).
        return plan_psr_repeat(
            ctx, ctx.config.orchestration.burstlink_repeat_window,
            "driver check", [PackageCState.C8, PackageCState.C9],
            "deep idle (frame in DRFB)",
        )

    # ------------------------------------------------------------------

    def _plan_new_frame(self, ctx: WindowContext) -> WindowResult:
        """C0 orchestrate+decode with the burst head overlapped, the
        remaining burst as a C2/C8 fetch-stream oscillation, C9 rest."""
        cfg = ctx.config
        window = ctx.window.duration
        display_bytes = ctx.display_bytes

        orchestration = cfg.orchestration.baseline_per_frame
        decode = cfg.decoder.decode_time(
            ctx.frame.decoded_bytes, window, race=True
        )
        projection = ctx.vr.projection_s if ctx.vr is not None else 0.0
        active = orchestration + decode + projection
        missed = active > window
        active = min(active, window)

        burst_rate = self.pmu.burst_bandwidth(
            cfg.edp.max_bandwidth, cfg.panel.pixel_update_bandwidth
        )
        fetch_bw = effective_fetch_bandwidth(cfg)
        burst_total = display_bytes / min(burst_rate, fetch_bw)
        # The DC starts bursting as soon as decoded chunks land: the
        # decode tail overlaps the burst head.
        overlap = min(decode + projection, burst_total)
        burst_remaining = burst_total - overlap
        burst_overlap_bytes = display_bytes * (overlap / burst_total)

        # Conventional C0 traffic plus the overlapped burst's fetch reads.
        writes = ctx.frame.encoded_bytes + ctx.frame.decoded_bytes
        reads = ctx.frame.encoded_bytes + burst_overlap_bytes
        if ctx.vr is not None:
            reads += ctx.vr.source_bytes
            writes += ctx.vr.projected_bytes

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        staged_segment = builder.add(
            active,
            PackageCState.C0,
            label="orchestrate+decode (+burst head)",
            cpu_active=True,
            vd_mode=VdMode.ACTIVE,
            gpu_active=ctx.vr is not None,
            dc_active=True,
            dram_read_bw=reads / active,
            dram_write_bw=writes / active,
            edp_rate=burst_overlap_bytes / active,
            drfb_active=True,
            panel_mode=PanelMode.SELF_REFRESH,
        )

        remaining_window = ctx.window.end - builder.now
        if burst_remaining > remaining_window:
            missed = True
            burst_remaining = remaining_window
        if burst_remaining > 0:
            # The burst body: C2 while the DC refills from DRAM, C8 while
            # it streams at the link maximum and DRAM naps.
            burst_bytes = display_bytes - burst_overlap_bytes
            streaming = dict(
                dc_active=True,
                edp_rate=min(burst_rate, fetch_bw),
                drfb_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
            if not emit_fetch_cycles(
                builder, cfg, burst_bytes, burst_remaining,
                ("burst fetch", "burst stream"), **streaming,
            ):
                # Fetch cannot nap: the whole burst stays in C2.
                rate = burst_bytes / burst_remaining
                builder.add(
                    burst_remaining,
                    PackageCState.C2,
                    label="burst (fetch-bound)",
                    dc_active=True,
                    dram_read_bw=rate,
                    edp_rate=rate,
                    drfb_active=True,
                    panel_mode=PanelMode.SELF_REFRESH,
                )
        builder.idle(
            ctx.window.end - builder.now,
            [PackageCState.C8, PackageCState.C9],
            label="deep idle (frame in DRFB)",
            panel_mode=PanelMode.SELF_REFRESH,
        )
        return WindowResult(
            timeline=builder.build(),
            deadline_missed=missed,
            burst=True,
            staged_segment=staged_segment,
        )
