"""The full BurstLink display scheme (paper Secs. 4.1-4.3).

Both mechanisms combined:

* **Frame Buffer Bypass** — the VD (or, for VR, the GPU) sends the
  processed frame straight into the DC buffer over the on-chip P2P path;
  the host DRAM frame buffer is never touched.  Decode runs at the
  latency-tolerant DVFS point inside package C7, oscillating with C7'
  (VD clock-gated) whenever the DC buffer fills.
* **Frame Bursting** — the DC drains to the panel at the *maximum* eDP
  bandwidth into the DRFB's back buffer, decoupled from the pixel-update
  rate.

A new-frame window therefore runs: a short C0 orchestration slice (the
PMU firmware owns the per-chunk signalling), the C7/C7' decode-burst
period, then deep C9 for the rest of the window — Fig. 7.  A repeat
window of a sub-refresh-rate video is almost entirely C9, because the
frame already sits in the DRFB.
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


@dataclass
class BurstLinkScheme:
    """Frame Buffer Bypass + Frame Bursting."""

    name: str = "burstlink"

    def __post_init__(self) -> None:
        self.pmu = Pmu(firmware=PmuFirmware.burstlink())

    # ------------------------------------------------------------------

    def plan_key(self) -> tuple:
        """Collapse key: the scheme is stateless (the PMU firmware is
        fixed at construction), so identical windows plan identically."""
        return (self.name,)

    #: The encoded frame enters a new-frame plan (planar or VR) only as
    #: equal DRAM reads and writes on the ``orchestrate+stage`` segment.
    plan_reads = staticmethod(staged_stream_reads)

    def frame_phase(self, frame_index: int) -> object:
        """Plans read only the frame's content, never its index."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window under full BurstLink."""
        if not ctx.window.is_new_frame:
            # The frame is in the DRFB: after a short driver check the
            # system drops straight into C9 (Fig. 7a, second window).
            return plan_psr_repeat(
                ctx, ctx.config.orchestration.burstlink_repeat_window,
                "driver check", [PackageCState.C8, PackageCState.C9],
                "deep idle (frame in DRFB)",
            )
        if ctx.vr is not None:
            return self._plan_vr_new_frame(ctx)
        return self._plan_planar_new_frame(ctx)

    # ------------------------------------------------------------------

    def _plan_planar_new_frame(self, ctx: WindowContext) -> WindowResult:
        """Fig. 7: C0 orchestration, C7/C7' decode-burst, C9 rest."""
        cfg = ctx.config
        window = ctx.window.duration
        display_bytes = ctx.display_bytes
        burst_rate = self.pmu.burst_bandwidth(
            cfg.edp.max_bandwidth, cfg.panel.pixel_update_bandwidth
        )

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        orchestration = min(
            cfg.orchestration.burstlink_per_frame, window
        )
        # The encoded frame is staged into the VD during orchestration
        # (DRAM is only awake in C0; package C7 keeps it in self-refresh),
        # and the network's jitter-buffer write is batched into the same
        # slice.
        staged = ctx.frame.encoded_bytes
        staged_segment = builder.add(
            orchestration,
            PackageCState.C0,
            label="orchestrate+stage",
            cpu_active=True,
            dram_read_bw=staged / orchestration,
            dram_write_bw=staged / orchestration,
            panel_mode=PanelMode.SELF_REFRESH,
        )

        decode = cfg.decoder.decode_time(
            ctx.frame.decoded_bytes, window, race=False
        )
        burst = display_bytes / burst_rate
        wakes, missed = self._emit_decode_burst(
            builder, ctx, decode, burst, display_bytes,
            available=ctx.window.end - builder.now,
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
            vd_wakes=wakes,
            bypassed_dram=True,
            burst=True,
            staged_segment=staged_segment,
        )

    # ------------------------------------------------------------------

    def _emit_decode_burst(
        self,
        builder: TimelineBuilder,
        ctx: WindowContext,
        decode: float,
        burst: float,
        display_bytes: float,
        available: float,
    ) -> tuple[int, bool]:
        """Emit the C7/C7' decode-burst period within ``available``
        seconds.  Returns (PMU-driven VD wakes, deadline missed).

        When decode is the bottleneck (the DC drains faster than the VD
        fills), the VD never halts: one C7 segment covers the period.
        When the burst is longer (large frames at the link maximum,
        slow-decoding content), the VD periodically fills the DC double
        buffer and clock-gates while the DC drains — the oscillation of
        Fig. 6, with one PMU wake per buffer cycle.  A period that
        cannot fit the window is clamped (the frame lands late) and
        reported as a miss.
        """
        cfg = ctx.config
        missed = False
        if decode >= burst:
            if decode > available:
                decode = available
                missed = True
            if decode <= 0:
                return 0, True
            builder.add(
                decode,
                PackageCState.C7,
                label="bypass decode+burst",
                vd_mode=VdMode.LOW_POWER,
                dc_active=True,
                edp_rate=display_bytes / decode,
                drfb_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
            return 0, missed
        # The VD halts once per DC-buffer cycle; every wake is charged,
        # but the emitted segment count is bounded (hundreds of
        # sub-segments per window buy no modelling accuracy).
        cycles = cfg.dc.bypass_chunk_cycles(display_bytes)
        wake_total = cycles * cfg.decoder.wake_latency
        emitted = max(1, min(8, cycles))
        into_c7_first = excursion_latency(builder.state, PackageCState.C7)
        into_c7_again = excursion_latency(
            PackageCState.C7_PRIME, PackageCState.C7
        )
        into_prime = excursion_latency(
            PackageCState.C7, PackageCState.C7_PRIME
        )
        decode_total = decode + wake_total
        drain_total = burst - decode
        excursions = (
            into_c7_first
            + (emitted - 1) * into_c7_again
            + emitted * into_prime
        )
        period = decode_total + drain_total + excursions
        if period > available:
            # Clamp the working time to what the window has left.
            scale = max(0.0, (available - excursions)) / (
                decode_total + drain_total
            )
            decode_total *= scale
            drain_total *= scale
            missed = True
        if decode_total + drain_total <= 0:
            return cycles, True
        chunk_rate = display_bytes / (decode_total + drain_total)
        decode_slice = decode_total / emitted
        drain_slice = drain_total / emitted
        for cycle in builder.cycles(emitted):
            into = into_c7_first if cycle == 0 else into_c7_again
            builder.add(
                decode_slice + into,
                PackageCState.C7,
                label="decode chunk",
                vd_mode=VdMode.LOW_POWER,
                dc_active=True,
                edp_rate=chunk_rate,
                drfb_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
            builder.add(
                drain_slice + into_prime,
                PackageCState.C7_PRIME,
                label="drain (VD halted)",
                vd_mode=VdMode.HALTED,
                dc_active=True,
                edp_rate=chunk_rate,
                drfb_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
        return cycles, missed

    # ------------------------------------------------------------------

    def _plan_vr_new_frame(self, ctx: WindowContext) -> WindowResult:
        """VR: decode the 360-degree source (DRAM-resident — projection
        needs random access into the full sphere), then the GPU projects
        the viewport and streams it straight to the DC, which bursts it
        into the DRFB.  The projected frame never touches DRAM."""
        cfg = ctx.config
        vr = ctx.vr
        assert vr is not None
        window = ctx.window.duration
        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )

        orchestration = cfg.orchestration.burstlink_per_frame
        staged = ctx.frame.encoded_bytes
        staged_segment = builder.add(
            orchestration,
            PackageCState.C0,
            label="orchestrate+stage",
            cpu_active=True,
            dram_read_bw=staged / orchestration,
            dram_write_bw=staged / orchestration,
            panel_mode=PanelMode.SELF_REFRESH,
        )
        # Decode the 360-degree source at the racing point: the GPU needs
        # the whole sphere before projection, and the GPU rail is awake
        # anyway (package C0 either way).
        decode = cfg.decoder.decode_time(vr.source_bytes, window, race=True)
        builder.add(
            decode,
            PackageCState.C0,
            label="decode 360 source",
            vd_mode=VdMode.ACTIVE,
            dram_write_bw=vr.source_bytes / decode,
            panel_mode=PanelMode.SELF_REFRESH,
        )
        # Projection + burst overlap: the GPU reads the sphere from DRAM
        # and streams viewport pixels to the DC, which bursts them out.
        # When the link is the bottleneck (small panels), the GPU
        # finishes early and drops to RC6 while the DC drains the tail —
        # the package falls to C2 (DRAM still feeding the DC buffer).
        burst_rate = self.pmu.burst_bandwidth(
            cfg.edp.max_bandwidth, cfg.panel.pixel_update_bandwidth
        )
        burst = vr.projected_bytes / burst_rate
        project = max(vr.projection_s, burst)
        gpu_phase = vr.projection_s
        effective_rate = vr.projected_bytes / project
        builder.add(
            gpu_phase,
            PackageCState.C0,
            label="project+burst",
            gpu_active=True,
            dc_active=True,
            dram_read_bw=vr.source_bytes / project,
            edp_rate=effective_rate,
            drfb_active=True,
            panel_mode=PanelMode.SELF_REFRESH,
        )
        tail = project - gpu_phase
        if tail > 0:
            builder.add(
                tail,
                PackageCState.C2,
                label="burst tail (GPU in RC6)",
                dc_active=True,
                dram_read_bw=vr.source_bytes / project,
                edp_rate=effective_rate,
                drfb_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
        missed = builder.now > ctx.window.end + 1e-9
        if missed:
            builder.fill_to(ctx.window.end, PackageCState.C0,
                            cpu_active=True)
        else:
            builder.idle(
                ctx.window.end - builder.now,
                [PackageCState.C8, PackageCState.C9],
                label="deep idle (frame in DRFB)",
                panel_mode=PanelMode.SELF_REFRESH,
            )
        return WindowResult(
            timeline=builder.build(),
            deadline_missed=missed,
            bypassed_dram=True,
            burst=True,
            staged_segment=staged_segment,
        )
