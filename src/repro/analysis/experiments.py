"""Experiment functions — one per table/figure of the paper's evaluation.

Every public function regenerates the data behind one exhibit:

========  ==========================================================
Exhibit   Function
========  ==========================================================
Fig. 1    :func:`fig01_energy_breakdown`
Fig. 3    :func:`fig03_conventional_timeline`
Fig. 4    :func:`fig04_browsing_then_streaming`
Fig. 6    :func:`fig06_bypass_timeline`
Fig. 7    :func:`fig07_burstlink_timeline`
Table 2   :func:`table2_power_comparison`
Fig. 9    :func:`fig09_planar_reduction_30fps`
Fig. 10   :func:`fig10_energy_breakdown_comparison`
Fig. 11a  :func:`fig11a_vr_workloads`
Fig. 11b  :func:`fig11b_vr_resolutions`
Fig. 12   :func:`fig12_planar_reduction_60fps`
Fig. 13   :func:`fig13_fbc_comparison`
Sec. 6.4  :func:`sec64_related_work`
Fig. 14a  :func:`fig14a_local_playback`
Fig. 14b  :func:`fig14b_mobile_workloads`
Standby   :func:`standby_ambient` (ambient screen-on extension)
OLED      :func:`oled_brightness_sweep` (luminance-aware extension)
Netstream :func:`network_streamed_playback` (ABR streaming extension)
========  ==========================================================

Each takes ``seed_offset=`` (>= 0), added to every content seed it
draws; 0 reproduces the canonical exhibits (see
:func:`repro.analysis.runner.run_exhibit`).

The benchmark harness (``benchmarks/``) wraps these and prints the same
rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured
for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..baselines import (
    FrameBufferCompressionScheme,
    VipScheme,
    ZhangScheme,
)
from ..config import (
    FHD,
    PLANAR_RESOLUTIONS,
    QHD,
    Resolution,
    UHD_4K,
    UHD_5K,
    VR_EYE_RESOLUTIONS,
    skylake_tablet,
)
from ..core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
)
from ..pipeline.conventional import ConventionalScheme
from ..pipeline.sim import FrameWindowSimulator, RunResult
from ..power.breakdown import SystemBreakdown, breakdown_report
from ..power.model import CStateSummary, PlatformExtras, PowerModel
from ..soc.cstates import PackageCState
from ..video.source import AnalyticContentModel
from ..workloads.browsing import browsing_timeline
from ..workloads.mobile import MOBILE_WORKLOADS, mobile_workload_run
from ..workloads.oled import OledVideoWorkload, oled_video_run
from ..workloads.standby import AmbientStandbyWorkload, ambient_standby_run
from ..workloads.streaming import NetworkStreamWorkload, network_stream_run
from ..workloads.video import PlanarVideoWorkload, local_playback_run
from ..workloads.vr import VR_WORKLOADS, vr_streaming_run
from .energy import compare_schemes, energy_reduction

#: Frames per simulated run: enough windows to average over content
#: variation while keeping a full-suite regeneration fast.
DEFAULT_FRAMES = 30

def _streaming_frames(
    resolution: Resolution, seed_offset: int, count: int = DEFAULT_FRAMES
):
    return AnalyticContentModel().frames(
        resolution, count, seed=seed_offset
    )


# ---------------------------------------------------------------------------
# Fig. 1 — baseline energy breakdown across resolutions
# ---------------------------------------------------------------------------


@dataclass
class Fig01Result:
    """Per-resolution baseline breakdown, normalised to the FHD total."""

    breakdowns: dict[str, SystemBreakdown]
    normalised: dict[str, tuple[float, float, float]]

    def dram_fraction(self, resolution: str) -> float:
        """DRAM share of that resolution's own total."""
        return self.breakdowns[resolution].dram_fraction


def fig01_energy_breakdown(
    resolutions: tuple[Resolution, ...] = (FHD, QHD, UHD_4K),
    fps: float = 30.0,
    seed_offset: int = 0,
) -> Fig01Result:
    """Fig. 1: DRAM / Display / Others while streaming, per resolution."""
    model = PowerModel()
    breakdowns: dict[str, SystemBreakdown] = {}
    for resolution in resolutions:
        config = skylake_tablet(resolution)
        run = FrameWindowSimulator(config, ConventionalScheme()).run(
            _streaming_frames(resolution, seed_offset), fps
        )
        breakdowns[str(resolution)] = breakdown_report(model.report(run))
    reference = breakdowns[str(resolutions[0])]
    normalised = {
        name: bd.normalised_to(reference)
        for name, bd in breakdowns.items()
    }
    return Fig01Result(breakdowns=breakdowns, normalised=normalised)


# ---------------------------------------------------------------------------
# Figs. 3 / 6 / 7 — package C-state timelines
# ---------------------------------------------------------------------------


@dataclass
class TimelineResult:
    """One scheme's timeline at 30 and 60 FPS on a 60 Hz FHD panel."""

    scheme: str
    pattern_30fps: str
    pattern_60fps: str
    residencies_30fps: dict[PackageCState, float]
    residencies_60fps: dict[PackageCState, float]
    runs: dict[float, RunResult] = field(default_factory=dict)


def _timeline_result(
    scheme_factory, needs_drfb: bool, seed_offset: int
) -> TimelineResult:
    config = skylake_tablet(FHD)
    if needs_drfb:
        config = config.with_drfb()
    frames = _streaming_frames(FHD, seed_offset, 8)
    runs = {}
    patterns = {}
    residencies = {}
    for fps in (30.0, 60.0):
        scheme = scheme_factory()
        # These figures draw individual segments, so the run keeps its
        # full timeline.
        run = FrameWindowSimulator(config, scheme).run(
            frames, fps, retain="full"
        )
        runs[fps] = run
        # Pattern over the first two windows, the unit Fig. 3/6/7 draw.
        two_windows = [
            s for s in run.timeline
            if s.start < 2 * config.frame_window - 1e-9
        ]
        from ..pipeline.timeline import Timeline

        patterns[fps] = Timeline(two_windows).pattern()
        residencies[fps] = run.residency_fractions()
    return TimelineResult(
        scheme=runs[30.0].scheme,
        pattern_30fps=patterns[30.0],
        pattern_60fps=patterns[60.0],
        residencies_30fps=residencies[30.0],
        residencies_60fps=residencies[60.0],
        runs=runs,
    )


def fig03_conventional_timeline(seed_offset: int = 0) -> TimelineResult:
    """Fig. 3: conventional timeline for 30/60 FPS on a 60 Hz panel."""
    return _timeline_result(
        ConventionalScheme, needs_drfb=False, seed_offset=seed_offset
    )


def fig06_bypass_timeline(seed_offset: int = 0) -> TimelineResult:
    """Fig. 6: Frame Buffer Bypass timeline (C0 then C7/C7')."""
    return _timeline_result(
        FrameBufferBypassScheme, needs_drfb=False, seed_offset=seed_offset
    )


def fig07_burstlink_timeline(seed_offset: int = 0) -> TimelineResult:
    """Fig. 7: full BurstLink timeline (C0, C7/C7' burst, C9)."""
    return _timeline_result(
        BurstLinkScheme, needs_drfb=True, seed_offset=seed_offset
    )


# ---------------------------------------------------------------------------
# Fig. 4 — browsing then streaming
# ---------------------------------------------------------------------------


@dataclass
class Fig04Result:
    """Mean power and residency for the two Fig. 4 phases."""

    browsing_power_mw: float
    streaming_power_mw: float
    browsing_residency: dict[PackageCState, float]
    streaming_residency: dict[PackageCState, float]


def fig04_browsing_then_streaming(seed_offset: int = 0) -> Fig04Result:
    """Fig. 4: web browsing followed by FHD 60 FPS streaming."""
    config = skylake_tablet(FHD)
    model = PowerModel()
    browse = browsing_timeline(
        config, duration_s=2.0, seed=seed_offset
    )
    browse_report = model.report_timeline(
        browse, config.panel, scheme="browsing"
    )
    stream_run = FrameWindowSimulator(config, ConventionalScheme()).run(
        _streaming_frames(FHD, seed_offset, 60), 60.0
    )
    stream_report = model.report(stream_run)
    return Fig04Result(
        browsing_power_mw=browse_report.average_power_mw,
        streaming_power_mw=stream_report.average_power_mw,
        browsing_residency={
            s: r.residency_fraction
            for s, r in browse_report.by_state.items()
        },
        streaming_residency=stream_run.residency_fractions(),
    )


# ---------------------------------------------------------------------------
# Table 2 — per-C-state power and residency, baseline vs BurstLink
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    """Both Table 2 halves."""

    baseline_rows: list[CStateSummary]
    burstlink_rows: list[CStateSummary]
    baseline_avg_mw: float
    burstlink_avg_mw: float

    @property
    def reduction(self) -> float:
        """Average-power reduction of BurstLink vs the baseline."""
        return 1.0 - self.burstlink_avg_mw / self.baseline_avg_mw


def table2_power_comparison(
    fps: float = 30.0, seed_offset: int = 0
) -> Table2Result:
    """Table 2: FHD 30 FPS on a 60 Hz display, both schemes."""
    model = PowerModel()
    config = skylake_tablet(FHD)
    frames = _streaming_frames(FHD, seed_offset, 60)
    base_run = FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, fps
    )
    base = model.report(base_run)
    bl_run = FrameWindowSimulator(
        config.with_drfb(), BurstLinkScheme()
    ).run(frames, fps)
    burstlink = model.report(bl_run)
    return Table2Result(
        baseline_rows=base.table2_rows(),
        burstlink_rows=burstlink.table2_rows(),
        baseline_avg_mw=base.average_power_mw,
        burstlink_avg_mw=burstlink.average_power_mw,
    )


# ---------------------------------------------------------------------------
# Figs. 9 / 12 — planar energy reduction sweeps
# ---------------------------------------------------------------------------


@dataclass
class PlanarReductionResult:
    """Reduction of each technique per resolution."""

    fps: float
    #: resolution name -> {technique -> fractional reduction}.
    reductions: dict[str, dict[str, float]]
    baseline_power_mw: dict[str, float]


def _planar_reduction(fps: float, seed_offset: int) -> PlanarReductionResult:
    reductions: dict[str, dict[str, float]] = {}
    baseline_power: dict[str, float] = {}
    for resolution in PLANAR_RESOLUTIONS:
        config = skylake_tablet(resolution)
        comparison = compare_schemes(
            config,
            _streaming_frames(resolution, seed_offset),
            fps,
            schemes={
                "burst": (FrameBurstingScheme(), True),
                "bypass": (FrameBufferBypassScheme(), False),
                "burstlink": (BurstLinkScheme(), True),
            },
            baseline=ConventionalScheme(),
            workload=f"planar-{resolution}-{fps:g}fps",
        )
        reductions[str(resolution)] = comparison.reductions()
        baseline_power[str(resolution)] = (
            comparison.baseline.average_power_mw
        )
    return PlanarReductionResult(
        fps=fps, reductions=reductions, baseline_power_mw=baseline_power
    )


def fig09_planar_reduction_30fps(
    seed_offset: int = 0,
) -> PlanarReductionResult:
    """Fig. 9: Burst / Bypass / BurstLink reductions, 30 FPS videos."""
    return _planar_reduction(30.0, seed_offset)


def fig12_planar_reduction_60fps(
    seed_offset: int = 0,
) -> PlanarReductionResult:
    """Fig. 12: the same sweep for 60 FPS videos."""
    return _planar_reduction(60.0, seed_offset)


# ---------------------------------------------------------------------------
# Fig. 10 — breakdown, baseline vs BurstLink
# ---------------------------------------------------------------------------


@dataclass
class Fig10Result:
    """Per-resolution breakdowns for both schemes plus the reduction
    factors the paper quotes (DRAM / Others, as ratios)."""

    baseline: dict[str, SystemBreakdown]
    burstlink: dict[str, SystemBreakdown]

    def dram_reduction_factor(self, resolution: str) -> float:
        """Baseline DRAM energy over BurstLink DRAM energy."""
        return (
            self.baseline[resolution].dram_mj
            / self.burstlink[resolution].dram_mj
        )

    def others_reduction_factor(self, resolution: str) -> float:
        """Baseline Others energy over BurstLink Others energy."""
        return (
            self.baseline[resolution].others_mj
            / self.burstlink[resolution].others_mj
        )


def fig10_energy_breakdown_comparison(
    fps: float = 30.0, seed_offset: int = 0
) -> Fig10Result:
    """Fig. 10: DRAM/Display/Others, baseline vs BurstLink, FHD-5K."""
    model = PowerModel()
    baseline: dict[str, SystemBreakdown] = {}
    burstlink: dict[str, SystemBreakdown] = {}
    for resolution in PLANAR_RESOLUTIONS:
        config = skylake_tablet(resolution)
        frames = _streaming_frames(resolution, seed_offset)
        base_run = FrameWindowSimulator(
            config, ConventionalScheme()
        ).run(frames, fps)
        bl_run = FrameWindowSimulator(
            config.with_drfb(), BurstLinkScheme()
        ).run(frames, fps)
        baseline[str(resolution)] = breakdown_report(
            model.report(base_run)
        )
        burstlink[str(resolution)] = breakdown_report(
            model.report(bl_run)
        )
    return Fig10Result(baseline=baseline, burstlink=burstlink)


# ---------------------------------------------------------------------------
# Fig. 11 — VR
# ---------------------------------------------------------------------------


@dataclass
class Fig11aResult:
    """Per-workload VR reduction."""

    reductions: dict[str, float]
    baseline_power_mw: dict[str, float]


def fig11a_vr_workloads(
    frame_count: int = DEFAULT_FRAMES, seed_offset: int = 0
) -> Fig11aResult:
    """Fig. 11a: BurstLink reduction for the five VR workloads."""
    model = PowerModel()
    reductions: dict[str, float] = {}
    baseline_power: dict[str, float] = {}
    for name, workload in VR_WORKLOADS.items():
        workload = replace(workload, seed=workload.seed + seed_offset)
        base = model.report(
            vr_streaming_run(
                workload, ConventionalScheme(), frame_count=frame_count
            )
        )
        burst = model.report(
            vr_streaming_run(
                workload,
                BurstLinkScheme(),
                frame_count=frame_count,
                with_drfb=True,
            )
        )
        reductions[name] = energy_reduction(base, burst)
        baseline_power[name] = base.average_power_mw
    return Fig11aResult(
        reductions=reductions, baseline_power_mw=baseline_power
    )


@dataclass
class Fig11bResult:
    """Rhino reduction per per-eye resolution."""

    reductions: dict[str, float]


def fig11b_vr_resolutions(
    workload_name: str = "Rhino",
    frame_count: int = DEFAULT_FRAMES,
    seed_offset: int = 0,
) -> Fig11bResult:
    """Fig. 11b: reduction vs per-eye display resolution."""
    model = PowerModel()
    workload = VR_WORKLOADS[workload_name]
    workload = replace(workload, seed=workload.seed + seed_offset)
    reductions: dict[str, float] = {}
    for per_eye in VR_EYE_RESOLUTIONS:
        base = model.report(
            vr_streaming_run(
                workload,
                ConventionalScheme(),
                per_eye=per_eye,
                frame_count=frame_count,
            )
        )
        burst = model.report(
            vr_streaming_run(
                workload,
                BurstLinkScheme(),
                per_eye=per_eye,
                frame_count=frame_count,
                with_drfb=True,
            )
        )
        reductions[str(per_eye)] = energy_reduction(base, burst)
    return Fig11bResult(reductions=reductions)


# ---------------------------------------------------------------------------
# Fig. 13 / Sec. 6.4 — against other techniques
# ---------------------------------------------------------------------------


@dataclass
class Fig13Result:
    """FBC vs BurstLink reductions per resolution and compression rate."""

    #: resolution name -> {label -> fractional reduction}.
    reductions: dict[str, dict[str, float]]


def fig13_fbc_comparison(
    fps: float = 30.0, seed_offset: int = 0
) -> Fig13Result:
    """Fig. 13: baseline+FBC (20/30/50%) vs BurstLink at 4K and 5K on a
    60 Hz panel."""
    reductions: dict[str, dict[str, float]] = {}
    for resolution in (UHD_4K, UHD_5K):
        config = skylake_tablet(resolution)
        comparison = compare_schemes(
            config,
            _streaming_frames(resolution, seed_offset),
            fps,
            schemes={
                "fbc-20": (
                    FrameBufferCompressionScheme(compression_rate=0.2),
                    False,
                ),
                "fbc-30": (
                    FrameBufferCompressionScheme(compression_rate=0.3),
                    False,
                ),
                "fbc-50": (
                    FrameBufferCompressionScheme(compression_rate=0.5),
                    False,
                ),
                "burstlink": (BurstLinkScheme(), True),
            },
            baseline=ConventionalScheme(),
            workload=f"fbc-{resolution}",
        )
        reductions[str(resolution)] = comparison.reductions()
    return Fig13Result(reductions=reductions)


@dataclass
class Sec64Result:
    """Zhang et al. and VIP against BurstLink at 4K."""

    reductions: dict[str, float]
    dram_bw_reduction: dict[str, float]


def sec64_related_work(
    fps: float = 30.0, seed_offset: int = 0
) -> Sec64Result:
    """Sec. 6.4: race-to-sleep+caching and VIP comparisons at 4K."""
    config = skylake_tablet(UHD_4K)
    frames = _streaming_frames(UHD_4K, seed_offset)
    comparison = compare_schemes(
        config,
        frames,
        fps,
        schemes={
            "zhang": (ZhangScheme(), False),
            "vip": (VipScheme(), False),
            "burstlink": (BurstLinkScheme(), True),
        },
        baseline=ConventionalScheme(),
        workload="sec64-4k",
    )
    base_bw = (
        comparison.runs["baseline"].dram_total_bytes
        / comparison.runs["baseline"].duration
    )
    bw_reduction = {}
    for label in ("zhang", "vip", "burstlink"):
        run = comparison.runs[label]
        bw = run.dram_total_bytes / run.duration
        bw_reduction[label] = 1.0 - bw / base_bw
    return Sec64Result(
        reductions=comparison.reductions(),
        dram_bw_reduction=bw_reduction,
    )


# ---------------------------------------------------------------------------
# Standby — ambient screen-on extension (streaming summary + collapsing)
# ---------------------------------------------------------------------------


@dataclass
class StandbyAmbientResult:
    """Ambient (screen-on, rarely-updating) standby under both schemes.

    Runs in ``retain="summary"`` mode with repeat-window collapsing —
    the exhibit that exercises the streaming path end to end.
    """

    duration_s: float
    update_fps: float
    power_mw: dict[str, float]
    residencies: dict[str, dict[PackageCState, float]]
    #: Fraction of windows that were repeats (collapse candidates).
    repeat_fraction: dict[str, float]

    @property
    def reduction(self) -> float:
        """BurstLink's fractional power reduction vs conventional."""
        return 1.0 - self.power_mw["burstlink"] / self.power_mw["conventional"]


def standby_ambient(
    duration_s: float = 60.0,
    update_fps: float = 0.2,
    seed_offset: int = 0,
) -> StandbyAmbientResult:
    """Ambient standby: a static FHD screen updating every few seconds.

    Nearly every window repeats the previous one, so this is the
    repeat-window-collapsing showcase: conventional vs BurstLink average
    power from :class:`~repro.pipeline.TimelineSummary` aggregation
    alone (no full timeline is ever materialised).
    """
    workload = AmbientStandbyWorkload(
        duration_s=duration_s,
        update_fps=update_fps,
        seed=seed_offset,
    )
    model = PowerModel(
        extras=PlatformExtras(streaming=False, local_playback=False)
    )
    power: dict[str, float] = {}
    residencies: dict[str, dict[PackageCState, float]] = {}
    repeat_fraction: dict[str, float] = {}
    for label, scheme, with_drfb in (
        ("conventional", ConventionalScheme(), False),
        ("burstlink", BurstLinkScheme(), True),
    ):
        run = ambient_standby_run(workload, scheme, with_drfb=with_drfb)
        power[label] = model.report(run).average_power_mw
        residencies[label] = run.residency_fractions()
        repeat_fraction[label] = (
            run.stats.repeat_windows / run.stats.windows
        )
    return StandbyAmbientResult(
        duration_s=duration_s,
        update_fps=update_fps,
        power_mw=power,
        residencies=residencies,
        repeat_fraction=repeat_fraction,
    )


# ---------------------------------------------------------------------------
# OLED — luminance-aware panel power extension
# ---------------------------------------------------------------------------


@dataclass
class OledBrightnessResult:
    """FHD30 video on an OLED panel across brightness settings.

    The panel term prices emission as slope x APL-seconds x brightness
    (content-dependent, unlike the LCD), so both total power and
    BurstLink's relative saving move with the brightness slider — the
    lever Duinkharjav et al. 2022 exploit perceptually.
    """

    brightness_levels: tuple[float, ...]
    #: scheme -> {brightness -> average power, mW}.
    power_mw: dict[str, dict[float, float]]
    #: Panel-component share of conventional energy per brightness.
    panel_fraction: dict[float, float]

    def reduction(self, brightness: float) -> float:
        """BurstLink's fractional power reduction at ``brightness``."""
        return 1.0 - (
            self.power_mw["burstlink"][brightness]
            / self.power_mw["conventional"][brightness]
        )


def oled_brightness_sweep(
    brightness_levels: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0),
    seed_offset: int = 0,
) -> OledBrightnessResult:
    """OLED brightness sweep: FHD 30 FPS natural content, both schemes.

    Emission power is linear in brightness, so the sweep separates the
    content-independent pipeline savings (which BurstLink targets) from
    the emissive floor it cannot touch: the *relative* reduction shrinks
    as brightness rises even though the absolute saving is flat.
    """
    model = PowerModel(
        extras=PlatformExtras(streaming=True, local_playback=False)
    )
    power: dict[str, dict[float, float]] = {
        "conventional": {}, "burstlink": {},
    }
    panel_fraction: dict[float, float] = {}
    for brightness in brightness_levels:
        workload = OledVideoWorkload(
            brightness=brightness,
            frame_count=DEFAULT_FRAMES,
            seed=seed_offset,
        )
        for label, scheme, with_drfb in (
            ("conventional", ConventionalScheme(), False),
            ("burstlink", BurstLinkScheme(), True),
        ):
            run = oled_video_run(
                workload, scheme, with_drfb=with_drfb
            )
            report = model.report(run)
            power[label][brightness] = report.average_power_mw
            if label == "conventional":
                panel_fraction[brightness] = (
                    report.by_component_mj["panel"]
                    / report.total_energy_mj
                )
    return OledBrightnessResult(
        brightness_levels=tuple(brightness_levels),
        power_mw=power,
        panel_fraction=panel_fraction,
    )


# ---------------------------------------------------------------------------
# Netstream — ABR network-streamed playback extension
# ---------------------------------------------------------------------------

#: The bandwidth conditions of the streamed-playback exhibit, in Mbps.
#: FHD30 natural content streams at ~5 Mbps full quality: "ample" always
#: affords the top rung, "moderate" oscillates mid-ladder, "constrained"
#: sits below the bottom rung often enough to rebuffer.
NETSTREAM_CONDITIONS: dict[str, float] = {
    "constrained": 1.3,
    "moderate": 4.5,
    "ample": 12.0,
}


@dataclass
class NetworkStreamResult:
    """Streamed FHD30 playback across network bandwidth conditions.

    Consistent with Herglotz et al.'s streaming-power measurements, the
    end-to-end power moves only weakly with delivered bitrate (the
    display path dominates); the interesting action is the stall repeats
    under constrained bandwidth, which BurstLink's repeat-window
    machinery turns into self-refresh windows.
    """

    #: condition -> mean bandwidth, Mbps.
    bandwidth_mbps: dict[str, float]
    #: condition -> {scheme -> average power, mW}.
    power_mw: dict[str, dict[str, float]]
    #: condition -> fraction of presented frames that are stall repeats.
    stall_ratio: dict[str, float]
    #: condition -> average ladder rung index (0 = lowest).
    mean_tier: dict[str, float]
    #: condition -> distinct rebuffering events.
    rebuffer_events: dict[str, int]

    def reduction(self, condition: str) -> float:
        """BurstLink's fractional power reduction under ``condition``."""
        return 1.0 - (
            self.power_mw[condition]["burstlink"]
            / self.power_mw[condition]["conventional"]
        )


def network_streamed_playback(
    conditions: dict[str, float] | None = None,
    seed_offset: int = 0,
) -> NetworkStreamResult:
    """Streamed playback: FHD 30 FPS through an ABR client, three
    bandwidth conditions, both schemes."""
    selected = dict(
        NETSTREAM_CONDITIONS if conditions is None else conditions
    )
    model = PowerModel(
        extras=PlatformExtras(streaming=True, local_playback=False)
    )
    power: dict[str, dict[str, float]] = {}
    stall_ratio: dict[str, float] = {}
    mean_tier: dict[str, float] = {}
    rebuffer_events: dict[str, int] = {}
    for condition, bandwidth_mbps in selected.items():
        workload = NetworkStreamWorkload(
            bandwidth_mbps=bandwidth_mbps,
            frame_count=3 * DEFAULT_FRAMES,
            seed=seed_offset,
        )
        source = workload.source()
        stall_ratio[condition] = source.stall_ratio
        mean_tier[condition] = source.mean_tier
        rebuffer_events[condition] = source.rebuffer_events
        power[condition] = {}
        for label, scheme, with_drfb in (
            ("conventional", ConventionalScheme(), False),
            ("burstlink", BurstLinkScheme(), True),
        ):
            run = network_stream_run(
                workload, scheme, with_drfb=with_drfb
            )
            power[condition][label] = model.report(
                run
            ).average_power_mw
    return NetworkStreamResult(
        bandwidth_mbps=selected,
        power_mw=power,
        stall_ratio=stall_ratio,
        mean_tier=mean_tier,
        rebuffer_events=rebuffer_events,
    )


# ---------------------------------------------------------------------------
# Fig. 14 — other mobile workloads
# ---------------------------------------------------------------------------


@dataclass
class Fig14aResult:
    """Local-playback reduction of Frame Buffer Bypassing."""

    reductions: dict[str, float]


def fig14a_local_playback(seed_offset: int = 0) -> Fig14aResult:
    """Fig. 14a: 4K@144, 4K@120, 5K@60 local playback with Bypass."""
    model = PowerModel(
        extras=PlatformExtras(streaming=False, local_playback=True)
    )
    reductions: dict[str, float] = {}
    for resolution, refresh in (
        (UHD_4K, 144.0), (UHD_4K, 120.0), (UHD_5K, 60.0)
    ):
        workload = PlanarVideoWorkload(
            resolution=resolution,
            fps=min(refresh, 60.0),
            refresh_hz=refresh,
            local=True,
            seed=seed_offset,
        )
        base = model.report(
            local_playback_run(workload, ConventionalScheme())
        )
        bypass = model.report(
            local_playback_run(workload, FrameBufferBypassScheme())
        )
        label = f"{resolution}@{refresh:g}Hz"
        reductions[label] = energy_reduction(base, bypass)
    return Fig14aResult(reductions=reductions)


@dataclass
class Fig14bResult:
    """Frame Bursting reduction for four mobile workloads per
    resolution."""

    #: resolution name -> {workload -> fractional reduction}.
    reductions: dict[str, dict[str, float]]


def fig14b_mobile_workloads(seed_offset: int = 0) -> Fig14bResult:
    """Fig. 14b: Frame Bursting on conferencing/capture/gaming/
    MobileMark at FHD/QHD/4K.  The mobile workloads draw no content,
    so ``seed_offset`` changes nothing."""
    reductions: dict[str, dict[str, float]] = {}
    for resolution in (FHD, QHD, UHD_4K):
        row: dict[str, float] = {}
        for name, workload in MOBILE_WORKLOADS.items():
            extras = PlatformExtras(
                streaming=workload.streaming,
                local_playback=workload.recording,
            )
            model = PowerModel(extras=extras)
            base = model.report(
                mobile_workload_run(
                    workload, ConventionalScheme(), resolution
                )
            )
            burst = model.report(
                mobile_workload_run(
                    workload,
                    FrameBurstingScheme(),
                    resolution,
                    with_drfb=True,
                )
            )
            row[name] = energy_reduction(base, burst)
        reductions[str(resolution)] = row
    return Fig14bResult(reductions=reductions)
