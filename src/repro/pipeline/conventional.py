"""The conventional (PSR-baseline) display scheme.

This is the paper's baseline (Sec. 2.5, Fig. 3): in a new-frame window the
CPU orchestrates and the VD races the decode in package C0 (the GPU's
projective transform joins for VR), after which the display controller
oscillates between C2 (fetching a frame-buffer chunk from DRAM) and C8
(draining its buffer to the panel at the pixel-update rate).  A repeat
window of a sub-refresh-rate video self-refreshes from the panel RFB with
the host parked in C8 (or C9 under the idealised Fig. 3(a) variant —
``SystemConfig.baseline_c9_in_psr``).

Every decoded frame travels through the DRAM frame buffer: the VD writes
it, the DC reads it back — the data movement BurstLink exists to remove.

The window shapes other schemes share live here too: the PSR repeat
window (:func:`plan_psr_repeat`) and the DC's C2/C8 fetch-drain cycles
(:func:`emit_fetch_cycles`), which Frame Bursting runs at link speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import SystemConfig
from ..soc.cstates import PackageCState
from .builder import TimelineBuilder, excursion_latency
from .sim import WindowContext, WindowResult, staged_stream_reads
from .timeline import PanelMode, VdMode


def effective_fetch_bandwidth(config: SystemConfig) -> float:
    """The DC's sustained DRAM fetch bandwidth for this panel mode.

    The memory controller provisions display fetch with headroom over
    the panel's consumption rate (a starved display underruns visibly),
    so the effective bandwidth scales with the pixel-update rate at high
    resolutions while never dropping below the configured sustained
    floor.
    """
    return max(
        config.dram.sustained_fetch_bandwidth,
        4.0 * config.panel.pixel_update_bandwidth,
    )


@dataclass
class ConventionalScheme:
    """The baseline video display pipeline.

    The three trailing knobs exist for derived baselines (frame-buffer
    compression, caching schemes): they scale the decoded-frame
    write-back and the display-fetch traffic, and add per-frame C0 work
    (e.g. the compression engine's cost).  The stock baseline leaves
    them neutral.
    """

    name: str = "conventional"
    #: Scale on the decoded-frame DRAM write-back (1.0 = full frame).
    writeback_scale: float = 1.0
    #: Scale on the DC's display-fetch traffic (1.0 = full frame).
    fetch_scale: float = 1.0
    #: Extra C0 time per new frame (compression/caching engines).
    extra_c0_per_frame: float = 0.0

    # ------------------------------------------------------------------

    def plan_key(self) -> tuple:
        """The scheme's mutable planning state, for repeat-window
        collapsing: two windows plan identically (up to a time shift
        and the staged encoded bytes) whenever this key, the window
        kind, what the plan reads of the frame (``plan_reads``), and
        the entry state all match.  Derived baselines that mutate the
        traffic knobs (e.g. FBC re-deriving ``extra_c0_per_frame`` per
        frame) are covered because the knobs are part of the key."""
        return (
            self.name,
            self.writeback_scale,
            self.fetch_scale,
            self.extra_c0_per_frame,
        )

    #: The encoded frame enters a new-frame plan only as equal DRAM
    #: reads and writes on the ``orchestrate+decode`` segment (network
    #: DMA write, VD read), so plan groups key without it.
    plan_reads = staticmethod(staged_stream_reads)

    def frame_phase(self, frame_index: int) -> object:
        """What part of the frame *index* affects a new-frame plan.

        The conventional pipeline plans from the frame's content alone
        (what it reads is in the walker's plan-group key), so the
        index is irrelevant: ``None``.  Schemes whose plan branches on
        the index override this — e.g. Zhang's race-to-sleep returns
        ``frame_index % batch_size``.  Returning the raw index is always
        safe (it just forgoes cross-index sharing)."""
        return None

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window of the conventional pipeline."""
        if ctx.window.is_new_frame:
            return self._plan_new_frame(ctx)
        # PSR: the driver still does its per-window vblank/flip work,
        # then the panel self-refreshes from its RFB.
        candidates = [PackageCState.C8]
        if ctx.config.baseline_c9_in_psr:
            candidates.append(PackageCState.C9)
        return plan_psr_repeat(
            ctx, ctx.config.orchestration.baseline_per_frame,
            "driver vblank work", candidates, "psr",
        )

    # ------------------------------------------------------------------

    def _plan_new_frame(self, ctx: WindowContext) -> WindowResult:
        """A new-frame window: C0 decode, then the C2/C8 fetch-drain
        oscillation."""
        cfg = ctx.config
        window = ctx.window.duration
        display_bytes = ctx.display_bytes
        pixel_rate = cfg.panel.pixel_update_bandwidth

        # -- phase durations ------------------------------------------------
        orchestration = cfg.orchestration.baseline_per_frame
        decode = cfg.decoder.decode_time(
            ctx.frame.decoded_bytes, window, race=True
        )
        projection = ctx.vr.projection_s if ctx.vr is not None else 0.0
        active = (
            orchestration + decode + projection + self.extra_c0_per_frame
        )
        missed = False
        if active > window:
            active = window
            missed = True

        # -- C0 traffic ---------------------------------------------------------
        # Network DMA writes the encoded frame; the VD reads it back and
        # writes the decoded frame into the DRAM frame buffer.  For VR the
        # GPU additionally reads the decoded source and writes the
        # projected frame.  The DC's fetch of the displayed frame overlaps
        # C0 for free (DRAM is awake anyway); the overlapped share scales
        # with C0's fraction of the window.
        writes = (
            ctx.frame.encoded_bytes
            + ctx.frame.decoded_bytes * self.writeback_scale
        )
        reads = ctx.frame.encoded_bytes
        if ctx.vr is not None:
            reads += ctx.vr.source_bytes
            writes += ctx.vr.projected_bytes * self.writeback_scale
        overlap_fraction = active / window
        reads += display_bytes * self.fetch_scale * overlap_fraction

        builder = TimelineBuilder(
            start=ctx.window.start, initial_state=ctx.initial_state
        )
        staged = builder.add(
            active,
            PackageCState.C0,
            label="orchestrate+decode",
            dram_read_bw=reads / active,
            dram_write_bw=writes / active,
            cpu_active=True,
            vd_mode=VdMode.ACTIVE,
            gpu_active=ctx.vr is not None,
            dc_active=True,
            edp_rate=pixel_rate,
            panel_mode=PanelMode.LIVE,
        )

        # -- the C2/C8 fetch-drain oscillation --------------------------------
        remaining = window - active
        if remaining <= 0:
            return WindowResult(
                timeline=builder.build(), deadline_missed=True,
                staged_segment=staged,
            )
        fetch_bytes = (
            display_bytes * self.fetch_scale * (1.0 - overlap_fraction)
        )
        missed |= not emit_display_fetch(
            builder, cfg, fetch_bytes, remaining
        )
        builder.fill_to(
            ctx.window.end,
            PackageCState.C8,
            label="drain",
            dc_active=True,
            edp_rate=pixel_rate,
            panel_mode=PanelMode.LIVE,
        )
        return WindowResult(
            timeline=builder.build(), deadline_missed=missed,
            staged_segment=staged,
        )


def plan_psr_repeat(
    ctx: WindowContext,
    check: float,
    check_label: str,
    idle_states: list[PackageCState],
    idle_label: str,
) -> WindowResult:
    """A repeat window: ``check`` seconds of C0 work (clamped to the
    window), then the deepest worthwhile of ``idle_states`` while the
    panel self-refreshes."""
    builder = TimelineBuilder(
        start=ctx.window.start, initial_state=ctx.initial_state
    )
    check = min(check, ctx.window.duration)
    if check > 0:
        builder.add(
            check,
            PackageCState.C0,
            label=check_label,
            cpu_active=True,
            panel_mode=PanelMode.SELF_REFRESH,
        )
    builder.idle(
        ctx.window.end - builder.now,
        idle_states,
        label=idle_label,
        panel_mode=PanelMode.SELF_REFRESH,
    )
    return WindowResult(timeline=builder.build(), used_psr=True)


def emit_fetch_cycles(
    builder: TimelineBuilder,
    config: SystemConfig,
    fetch_bytes: float,
    span: float,
    labels: tuple[str, str],
    **attrs: object,
) -> bool:
    """Fill ``span`` seconds with the DC's C2 fetch / C8 drain cycles
    covering ``fetch_bytes`` from DRAM.

    Chunks are fetched at the effective fetch bandwidth, one per cycle,
    up to ``max_fetch_cycles_per_window`` cycles; fewer cycles are used
    while their setup and excursions overrun ``span``.  ``labels`` name
    the fetch and drain phases, and ``attrs`` go on both (the fetch
    also carries its DRAM read rate).  Returns False, and adds nothing,
    when even a single cycle cannot fit.
    """
    if fetch_bytes <= 0:
        return True
    dc = config.dc
    dram_bw = effective_fetch_bandwidth(config)
    into_c8 = excursion_latency(PackageCState.C2, PackageCState.C8)

    def cost(cycles: int) -> float:
        work = cycles * dc.chunk_setup_latency + fetch_bytes / dram_bw
        # First excursion comes from the builder's current state; the
        # later cycles oscillate C8 <-> C2.
        excursions = (
            excursion_latency(builder.state, PackageCState.C2)
            + (cycles - 1) * excursion_latency(
                PackageCState.C8, PackageCState.C2
            )
            + cycles * into_c8
        )
        return work + excursions

    cycles = max(1, min(
        math.ceil(fetch_bytes / dc.chunk_size),
        dc.max_fetch_cycles_per_window,
    ))
    while cycles > 1 and cost(cycles) > span:
        cycles -= 1
    if cost(cycles) > span:
        return False
    per_cycle_bytes = fetch_bytes / cycles
    fetch_work = dc.chunk_setup_latency + per_cycle_bytes / dram_bw
    drain = (span - cost(cycles)) / cycles
    fetch_label, drain_label = labels
    for _ in builder.cycles(cycles):
        builder.add(
            fetch_work + excursion_latency(builder.state, PackageCState.C2),
            PackageCState.C2,
            label=fetch_label,
            dram_read_bw=per_cycle_bytes / fetch_work,
            **attrs,
        )
        builder.add(
            drain + into_c8, PackageCState.C8, label=drain_label, **attrs
        )
    return True


def emit_display_fetch(
    builder: TimelineBuilder,
    config: SystemConfig,
    fetch_bytes: float,
    span: float,
) -> bool:
    """The conventional DC's fetch of ``fetch_bytes`` within ``span``
    seconds while it feeds the panel at the pixel-update rate.  Returns
    False on a deadline miss: when not even one fetch cycle fits, the
    system fetches flat-out for the whole span and still cannot
    finish."""
    live = dict(
        dc_active=True,
        edp_rate=config.panel.pixel_update_bandwidth,
        panel_mode=PanelMode.LIVE,
    )
    if emit_fetch_cycles(
        builder, config, fetch_bytes, span, ("fetch chunk", "drain"),
        **live,
    ):
        return True
    builder.add(
        span,
        PackageCState.C2,
        label="fetch (saturated)",
        dram_read_bw=effective_fetch_bandwidth(config),
        **live,
    )
    return False
