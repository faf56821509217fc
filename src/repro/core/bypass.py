"""Frame Buffer Bypass alone (paper Sec. 4.1, Fig. 6; the "Bypass"
ablation of Figs. 9/12, and the mechanism behind Fig. 14a's local
high-resolution playback).

The VD streams decoded chunks straight into the DC buffer over the P2P
path — host DRAM is bypassed entirely for the video plane — but without
Frame Bursting the DC still drains to the panel at the pixel-update rate,
so the decode-display interleave (C7 while the VD fills, C7' while it
waits clock-gated) spans the whole window.  Repeat windows self-refresh
from the regular RFB with the processor in C9 (PMU firmware change 1
accompanies the bypass hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..soc.cstates import PackageCState
from ..soc.pmu import Pmu, PmuFirmware
from ..pipeline.builder import TimelineBuilder, excursion_latency
from ..pipeline.conventional import plan_psr_repeat
from ..pipeline.sim import (
    WindowContext,
    WindowResult,
    staged_stream_reads,
)
from ..pipeline.timeline import PanelMode, VdMode

#: Interleave cycles emitted per window; the real oscillation count is
#: ``frame / (DC half buffer)``, but emitting hundreds of segments per
#: window buys no accuracy — the builder's excursion accounting scales
#: with the *actual* cycle count either way (see ``_plan_new_frame``).
_EMITTED_CYCLES = 4


@dataclass
class FrameBufferBypassScheme:
    """Bypass-only ablation: direct VD->DC path at conventional link
    rate."""

    name: str = "frame-buffer-bypass"

    def __post_init__(self) -> None:
        # Firmware changes 1 and 2 accompany the bypass; bursting (change
        # 3) stays off, so the DC drains at the pixel-update rate.
        self.pmu = Pmu(
            firmware=PmuFirmware(
                allow_c9_during_video=True,
                vd_wakeup_on_dc_empty=True,
                frame_bursting_enabled=False,
            )
        )

    def plan_key(self) -> tuple:
        """Collapse key: stateless (fixed firmware)."""
        return (self.name,)

    #: The encoded frame enters a new-frame plan only as equal DRAM
    #: reads and writes on the ``orchestrate+stage`` segment.
    plan_reads = staticmethod(staged_stream_reads)

    def frame_phase(self, frame_index: int) -> object:
        """Plans read only the frame's content, never its index."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window with Frame Buffer Bypass only."""
        if ctx.window.is_new_frame:
            return self._plan_new_frame(ctx)
        # A short PMU-side check, then PSR from the RFB with the
        # processor in C9.
        return plan_psr_repeat(
            ctx, ctx.config.orchestration.burstlink_repeat_window,
            "driver check", [PackageCState.C8, PackageCState.C9],
            "psr (frame in RFB)",
        )

    # ------------------------------------------------------------------

    def _plan_new_frame(self, ctx: WindowContext) -> WindowResult:
        """Fig. 6: short C0 orchestration, then the C7/C7' interleave
        across the whole window while the DC drains at pixel rate."""
        cfg = ctx.config
        window = ctx.window.duration
        display_bytes = ctx.display_bytes
        pixel_rate = self.pmu.burst_bandwidth(
            cfg.edp.max_bandwidth, cfg.panel.pixel_update_bandwidth
        )

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        # Bypass-only keeps driver-based orchestration at its baseline
        # cost; the cheap PMU-offloaded orchestration is a full-BurstLink
        # feature (Sec. 4.4, firmware change set).
        orchestration = min(
            cfg.orchestration.baseline_per_frame, window
        )
        staged = ctx.frame.encoded_bytes
        gpu_time = 0.0
        reads = staged
        writes = staged
        if ctx.vr is not None:
            # VR bypass: the 360 source still round-trips DRAM (the GPU
            # needs the whole sphere); only the projected frame bypasses.
            decode_src = cfg.decoder.decode_time(
                ctx.frame.decoded_bytes, window, race=True
            )
            gpu_time = ctx.vr.projection_s
            reads += ctx.vr.source_bytes
            writes += ctx.vr.source_bytes
            orchestration += decode_src + gpu_time
        missed = orchestration > window
        orchestration = min(orchestration, window)
        staged_segment = builder.add(
            orchestration,
            PackageCState.C0,
            label="orchestrate+stage",
            cpu_active=True,
            vd_mode=VdMode.ACTIVE if ctx.vr is not None else VdMode.OFF,
            gpu_active=ctx.vr is not None,
            dram_read_bw=reads / orchestration,
            dram_write_bw=writes / orchestration,
            panel_mode=PanelMode.SELF_REFRESH,
        )

        # The interleave: the DC needs the whole remaining window to
        # drain at pixel rate; the VD decodes for t_dec of it and waits
        # clock-gated for the rest, waking once per DC-buffer cycle.
        remaining = ctx.window.end - builder.now
        if remaining <= 0:
            return WindowResult(
                timeline=builder.build(), deadline_missed=True,
                staged_segment=staged_segment,
            )
        decode = (
            cfg.decoder.decode_time(ctx.frame.decoded_bytes, window,
                                    race=False)
            if ctx.vr is None else 0.0
        )
        actual_cycles = cfg.dc.bypass_chunk_cycles(display_bytes)
        # Charge every real VD wake, but emit a bounded segment count.
        wake_total = actual_cycles * cfg.decoder.wake_latency
        emitted = max(1, min(_EMITTED_CYCLES, actual_cycles))
        into_c7_first = excursion_latency(builder.state, PackageCState.C7)
        into_c7_again = excursion_latency(
            PackageCState.C7_PRIME, PackageCState.C7
        )
        into_prime = excursion_latency(
            PackageCState.C7, PackageCState.C7_PRIME
        )
        excursions = (
            into_c7_first
            + (emitted - 1) * into_c7_again
            + emitted * into_prime
        )
        decode = min(decode + wake_total, remaining - excursions)
        decode = max(decode, 0.0)
        wait_total = max(0.0, remaining - decode - excursions)
        decode_slice = decode / emitted
        wait_slice = wait_total / emitted
        for cycle in builder.cycles(emitted):
            into = into_c7_first if cycle == 0 else into_c7_again
            builder.add(
                decode_slice + into,
                PackageCState.C7,
                label="bypass decode",
                vd_mode=VdMode.LOW_POWER,
                dc_active=True,
                edp_rate=pixel_rate,
                panel_mode=PanelMode.LIVE,
            )
            builder.add(
                wait_slice + into_prime,
                PackageCState.C7_PRIME,
                label="drain at pixel rate (VD halted)",
                vd_mode=VdMode.HALTED,
                dc_active=True,
                edp_rate=pixel_rate,
                panel_mode=PanelMode.LIVE,
            )
        builder.fill_to(
            ctx.window.end,
            PackageCState.C7_PRIME,
            label="drain tail",
            vd_mode=VdMode.HALTED,
            dc_active=True,
            edp_rate=pixel_rate,
            panel_mode=PanelMode.LIVE,
        )
        return WindowResult(
            timeline=builder.build(),
            deadline_missed=missed,
            vd_wakes=actual_cycles,
            bypassed_dram=True,
            staged_segment=staged_segment,
        )
