"""VIP — Virtualizing IP chains (ISCA'15) — baseline (paper Sec. 6.4).

VIP chains IO IPs so each IP's output feeds the next directly (no DRAM
hop for the decoded frame) and trims the CPU orchestration overhead of
invoking the chain.  Its limitation, which the paper leans on: the
display panel still consumes frame data across the *entire* window, so
the VD, DC, and eDP interface stay powered all window — there is no
burst, no DRFB, and no deep C9 residency.

Model: a new-frame window runs a shortened C0 slice (reduced
orchestration + raced decode into the chain's SRAM buffers, encoded
bytes still staged through DRAM), then C8 for the rest of the window
with the DC draining at the pixel rate from the chained input.  Repeat
windows are conventional PSR windows (stock firmware: C8 parking, and
the driver's per-window work remains).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..soc.cstates import PackageCState
from ..pipeline.builder import TimelineBuilder
from ..pipeline.conventional import plan_psr_repeat
from ..pipeline.sim import (
    WindowContext,
    WindowResult,
    staged_stream_reads,
)
from ..pipeline.timeline import PanelMode, VdMode


@dataclass
class VipScheme:
    """IP chaining without bursting."""

    name: str = "vip"
    #: VIP trims CPU orchestration by chaining IP invocations.
    orchestration_scale: float = 0.8

    def plan_key(self) -> tuple:
        """Collapse key: VIP keeps no per-window state."""
        return (self.name, self.orchestration_scale)

    #: The encoded frame enters a new-frame plan only as equal DRAM
    #: reads and writes on the ``chain setup+decode`` segment.
    plan_reads = staticmethod(staged_stream_reads)

    def frame_phase(self, frame_index: int) -> object:
        """Plans read only the frame's content, never its index."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window under VIP."""
        if ctx.window.is_new_frame:
            return self._plan_new_frame(ctx)
        # A conventional PSR repeat window: chain upkeep, C8 parking.
        return plan_psr_repeat(
            ctx,
            ctx.config.orchestration.baseline_per_frame
            * self.orchestration_scale,
            "chain upkeep", [PackageCState.C8], "psr",
        )

    # ------------------------------------------------------------------

    def _plan_new_frame(self, ctx: WindowContext) -> WindowResult:
        """C0 chain setup + decode, then a full window of C8 draining."""
        cfg = ctx.config
        window = ctx.window.duration
        pixel_rate = cfg.panel.pixel_update_bandwidth

        orchestration = (
            cfg.orchestration.baseline_per_frame * self.orchestration_scale
        )
        decode = cfg.decoder.decode_time(
            ctx.frame.decoded_bytes, window, race=True
        )
        projection = ctx.vr.projection_s if ctx.vr is not None else 0.0
        active = orchestration + decode + projection
        missed = active > window
        active = min(active, window)

        # Only the encoded stream touches DRAM; the decoded frame rides
        # the chain's internal buffers.  VR chains still round-trip the
        # source sphere (the GPU needs random access into it).
        staged = ctx.frame.encoded_bytes
        reads = staged
        writes = staged
        if ctx.vr is not None:
            reads += ctx.vr.source_bytes
            writes += ctx.vr.source_bytes

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        staged_segment = builder.add(
            active,
            PackageCState.C0,
            label="chain setup+decode",
            cpu_active=True,
            vd_mode=VdMode.ACTIVE,
            gpu_active=ctx.vr is not None,
            dram_read_bw=reads / active,
            dram_write_bw=writes / active,
            dc_active=True,
            edp_rate=pixel_rate,
            panel_mode=PanelMode.LIVE,
        )
        builder.fill_to(
            ctx.window.end,
            PackageCState.C8,
            label="chained drain",
            dc_active=True,
            edp_rate=pixel_rate,
            panel_mode=PanelMode.LIVE,
        )
        return WindowResult(
            timeline=builder.build(),
            deadline_missed=missed,
            bypassed_dram=True,
            staged_segment=staged_segment,
        )
