"""Video capture with producer-side remote memory (paper Sec. 4.5).

The paper's general takeaway is that DRAM is an energy-inefficient
communication hub, and that small remote memory near the data *consumer*
(the display's DRFB) — or near the data *producer*, a camera sensor —
removes the costly hops.  This module builds that generalization as a
first-class pipeline:

* **Conventional capture** — the camera ISP writes each raw frame into
  DRAM; the video encoder reads it back and writes the encoded stream;
  the viewfinder preview is fetched from DRAM a third time.  The raw
  frame crosses DRAM twice per capture plus once for preview.
* **BurstLink-generalized capture** — the ISP stages each raw frame in
  a small local buffer and streams it over the P2P fabric directly to
  the encoder *and* to the display controller (which bursts the preview
  into the DRFB); DRAM sees only the encoded output on its way to
  storage.

The schemes plug into the same frame-window simulator as the display
pipelines: the per-frame "decoded" size is the raw sensor frame, the
"encoded" size the compressed output.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..soc.cstates import PackageCState
from ..soc.pmu import Pmu, PmuFirmware
from ..pipeline.builder import TimelineBuilder
from ..pipeline.conventional import (
    ConventionalScheme,
    emit_display_fetch,
    plan_psr_repeat,
)
from ..pipeline.sim import WindowContext, WindowResult
from ..pipeline.timeline import PanelMode, VdMode


@dataclass
class ConventionalCaptureScheme:
    """Record + preview through DRAM (the stock capture pipeline)."""

    name: str = "conventional-capture"

    def __post_init__(self) -> None:
        self._display = ConventionalScheme()

    def plan_key(self) -> tuple:
        """Collapse key: capture planning reads only the window's frame
        and config; the embedded display scheme's knobs join the key so
        repeat windows (which it plans) replay correctly."""
        return (self.name,) + self._display.plan_key()

    def frame_phase(self, frame_index: int) -> object:
        """Plans read only the frame's content, never its index."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """One refresh window of conventional capture."""
        if not ctx.window.is_new_frame:
            return self._display.plan_window(ctx)
        cfg = ctx.config
        window = ctx.window.duration
        raw = ctx.frame.decoded_bytes
        encoded = ctx.frame.encoded_bytes
        pixel_rate = cfg.panel.pixel_update_bandwidth

        orchestration = cfg.orchestration.baseline_per_frame
        # ISP output and encoder input run at fixed-function rates
        # comparable to the decoder's.
        produce = raw / cfg.decoder.max_output_rate
        encode = raw / cfg.decoder.max_output_rate
        active = min(orchestration + produce + encode, window)
        missed = orchestration + produce + encode > window

        # Raw frame: ISP write + encoder read; encoded: encoder write +
        # storage read; preview fetch overlaps C0 like display fetch.
        display_bytes = ctx.display_bytes
        overlap = active / window
        writes = raw + encoded
        reads = raw + encoded + display_bytes * overlap

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        builder.add(
            active,
            PackageCState.C0,
            label="capture+encode",
            cpu_active=True,
            gpu_active=True,  # the ISP rides the imaging/graphics rail
            vd_mode=VdMode.ACTIVE,  # the encoder is the VD-class IP
            dram_read_bw=reads / active,
            dram_write_bw=writes / active,
            dc_active=True,
            edp_rate=pixel_rate,
            panel_mode=PanelMode.LIVE,
        )
        remaining = ctx.window.end - builder.now
        if remaining > 0:
            missed |= not emit_display_fetch(
                builder, cfg, display_bytes * (1.0 - overlap), remaining
            )
            builder.fill_to(
                ctx.window.end,
                PackageCState.C8,
                label="preview drain",
                dc_active=True,
                edp_rate=pixel_rate,
                panel_mode=PanelMode.LIVE,
            )
        return WindowResult(
            timeline=builder.build(), deadline_missed=missed
        )


@dataclass
class BurstCaptureScheme:
    """Capture with producer-side staging: raw frames never touch DRAM."""

    name: str = "burst-capture"

    def __post_init__(self) -> None:
        self.pmu = Pmu(firmware=PmuFirmware.burstlink())

    def plan_key(self) -> tuple:
        """Collapse key: stateless (the PMU firmware is fixed at
        construction)."""
        return (self.name,)

    def frame_phase(self, frame_index: int) -> object:
        """Plans read only the frame's content, never its index."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """One refresh window of generalized-BurstLink capture."""
        cfg = ctx.config
        if not ctx.window.is_new_frame:
            return plan_psr_repeat(
                ctx, cfg.orchestration.burstlink_repeat_window,
                "driver check", [PackageCState.C8, PackageCState.C9],
                "deep idle (preview in DRFB)",
            )

        window = ctx.window.duration
        raw = ctx.frame.decoded_bytes
        encoded = ctx.frame.encoded_bytes
        display_bytes = ctx.display_bytes

        orchestration = cfg.orchestration.burstlink_per_frame
        produce = raw / cfg.decoder.max_output_rate
        encode = raw / cfg.decoder.max_output_rate
        # The ISP streams into the encoder's input FIFO: produce and
        # encode pipeline against each other; the chain takes the longer
        # of the two plus a FIFO fill.
        chain = max(produce, encode) * 1.1
        active = min(orchestration + chain, window)
        missed = orchestration + chain > window

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        builder.add(
            active,
            PackageCState.C0,
            label="capture chain (ISP->encoder P2P)",
            cpu_active=True,
            gpu_active=True,
            vd_mode=VdMode.ACTIVE,
            # DRAM sees only the encoded output heading to storage.
            dram_write_bw=encoded / active,
            panel_mode=PanelMode.SELF_REFRESH,
        )
        # Preview burst: the ISP's staging buffer feeds the DC directly;
        # the frame bursts into the DRFB at the link maximum.
        burst_rate = self.pmu.burst_bandwidth(
            cfg.edp.max_bandwidth, cfg.panel.pixel_update_bandwidth
        )
        burst = display_bytes / burst_rate
        remaining = ctx.window.end - builder.now
        if burst > remaining:
            missed = True
            burst = remaining
        if burst > 0:
            builder.add(
                burst,
                PackageCState.C7,
                label="preview burst",
                dc_active=True,
                edp_rate=min(burst_rate, display_bytes / burst),
                drfb_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
        builder.idle(
            ctx.window.end - builder.now,
            [PackageCState.C8, PackageCState.C9],
            label="deep idle (preview in DRFB)",
            panel_mode=PanelMode.SELF_REFRESH,
        )
        return WindowResult(
            timeline=builder.build(),
            deadline_missed=missed,
            bypassed_dram=True,
            burst=True,
        )
