"""System, display, and video configuration objects.

These dataclasses pin down every architectural parameter the paper's
evaluation varies: display resolution (FHD/QHD/4K/5K and the VR per-eye
modes of Fig. 11b), panel refresh rate, video frame rate, eDP link
generation, DRAM geometry, and the sizes/latencies of the display
controller datapath.

The defaults reproduce the paper's baseline platform (Table 3): an Intel
Skylake i5-6300U reference tablet with LPDDR3-1866 dual-channel memory and
an eDP 1.4 panel link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError
from .units import gb_per_s, gbps, kib, mib, ms, us

# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Resolution:
    """A display or video resolution in pixels."""

    width: int
    height: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"resolution must be positive, got {self.width}x{self.height}"
            )

    @property
    def pixels(self) -> int:
        """Total pixel count of one frame."""
        return self.width * self.height

    def frame_bytes(self, bits_per_pixel: int = 24) -> int:
        """Size in bytes of one uncompressed frame at ``bits_per_pixel``."""
        if bits_per_pixel <= 0 or bits_per_pixel % 8:
            raise ConfigurationError(
                f"bits_per_pixel must be a positive multiple of 8, "
                f"got {bits_per_pixel}"
            )
        return self.pixels * bits_per_pixel // 8

    def macroblocks(self, block: int = 16) -> int:
        """Number of ``block`` x ``block`` macroblocks covering the frame
        (partial edge blocks are rounded up, as codecs do)."""
        if block <= 0:
            raise ConfigurationError(f"block must be positive, got {block}")
        return math.ceil(self.width / block) * math.ceil(self.height / block)

    def scaled(self, factor: float) -> "Resolution":
        """A resolution scaled by ``factor`` per axis (used by the windowed
        video path, where a stream is resized to fit a browser window)."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive: {factor}")
        return Resolution(
            max(1, round(self.width * factor)),
            max(1, round(self.height * factor)),
            name=f"{self.name}x{factor:g}" if self.name else "",
        )

    def __str__(self) -> str:
        return self.name or f"{self.width}x{self.height}"


#: Full high definition, 1920x1080 (the paper's Fig. 1/9/12 smallest point).
FHD = Resolution(1920, 1080, "FHD")
#: Quad high definition, 2560x1440.
QHD = Resolution(2560, 1440, "QHD")
#: 4K UHD, 3840x2160 (~24 MB/frame at 24 bpp, matching the paper's Sec. 1).
UHD_4K = Resolution(3840, 2160, "4K")
#: 5K, 5120x2880 (the paper's largest planar evaluation point).
UHD_5K = Resolution(5120, 2880, "5K")

#: Planar display resolutions in the order the paper sweeps them.
PLANAR_RESOLUTIONS = (FHD, QHD, UHD_4K, UHD_5K)

#: VR per-eye display resolutions of Fig. 11(b), smallest to largest.
VR_EYE_RESOLUTIONS = (
    Resolution(960, 1080, "960x1080"),
    Resolution(1080, 1200, "1080x1200"),
    Resolution(1280, 1440, "1280x1440"),
    Resolution(1440, 1600, "1440x1600"),
)


def vr_panel_resolution(per_eye: Resolution) -> Resolution:
    """The full panel resolution of a two-eye HMD given a per-eye mode
    (the two eye viewports sit side by side on one panel)."""
    return Resolution(
        per_eye.width * 2, per_eye.height, name=f"2x{per_eye}"
    )


# ---------------------------------------------------------------------------
# eDP link
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdpConfig:
    """An embedded-DisplayPort link between the display controller and the
    panel's T-con.

    ``max_bandwidth`` is the peak payload rate of the link; eDP 1.4 with
    four HBR3 lanes reaches 25.92 Gbps (Sec. 1 of the paper).  Conventional
    systems run the link at the panel's pixel-update rate instead; Frame
    Bursting is what unlocks ``max_bandwidth``.
    """

    name: str = "eDP 1.4"
    max_bandwidth: float = gbps(25.92)
    lane_count: int = 4
    #: Time for the link to leave a power-gated state and train, per burst.
    wake_latency: float = us(20.0)

    def __post_init__(self) -> None:
        if self.max_bandwidth <= 0:
            raise ConfigurationError("eDP max_bandwidth must be positive")
        if self.lane_count <= 0:
            raise ConfigurationError("eDP lane_count must be positive")
        if self.wake_latency < 0:
            raise ConfigurationError("eDP wake_latency must be >= 0")


#: eDP 1.3 link (17.28 Gbps payload), for what-if sweeps.
EDP_1_3 = EdpConfig(name="eDP 1.3", max_bandwidth=gbps(17.28))
#: eDP 1.4 link, the paper's evaluated generation.
EDP_1_4 = EdpConfig()


# ---------------------------------------------------------------------------
# Panel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PanelConfig:
    """A display panel with its T-con-side buffers.

    A conventional PSR panel carries a single remote frame buffer (RFB)
    sized for one frame; a BurstLink panel carries a *double* remote frame
    buffer (DRFB) sized for two (Sec. 4.1).
    """

    resolution: Resolution = FHD
    refresh_hz: float = 60.0
    bits_per_pixel: int = 24
    supports_psr: bool = True
    supports_psr2: bool = True
    #: Number of remote frame buffers in the T-con: 1 = RFB, 2 = DRFB.
    remote_buffers: int = 1
    #: Emission technology: ``"lcd"`` (backlit, content-independent
    #: panel power — the paper's reference tablet) or ``"oled"``
    #: (emissive, power scales with displayed luminance).
    technology: str = "lcd"
    #: Peak-brightness setting, 0 < b <= 1.  Scales the emission part
    #: of OLED panel power; LCD backlight is folded into the calibrated
    #: base and ignores this knob.
    brightness: float = 1.0

    def __post_init__(self) -> None:
        if self.refresh_hz <= 0:
            raise ConfigurationError(
                f"refresh rate must be positive, got {self.refresh_hz}"
            )
        if self.remote_buffers not in (0, 1, 2):
            raise ConfigurationError(
                f"remote_buffers must be 0, 1 or 2, got {self.remote_buffers}"
            )
        if self.remote_buffers == 0 and self.supports_psr:
            raise ConfigurationError("PSR requires at least one remote buffer")
        if self.technology not in ("lcd", "oled"):
            raise ConfigurationError(
                f"panel technology must be 'lcd' or 'oled', "
                f"got {self.technology!r}"
            )
        if not 0.0 < self.brightness <= 1.0:
            raise ConfigurationError(
                f"panel brightness must be in (0, 1], got {self.brightness}"
            )

    @property
    def frame_window(self) -> float:
        """Length of one refresh window in seconds (1 / refresh rate)."""
        return 1.0 / self.refresh_hz

    @property
    def frame_bytes(self) -> int:
        """Size of one uncompressed frame for this panel."""
        return self.resolution.frame_bytes(self.bits_per_pixel)

    @property
    def pixel_update_bandwidth(self) -> float:
        """The panel's pixel-update rate in bytes/s: frame size times
        refresh rate.  This is what throttles the eDP link in conventional
        systems (Observation 2 in the paper)."""
        return self.frame_bytes * self.refresh_hz

    @property
    def has_drfb(self) -> bool:
        """Whether the panel carries a double remote frame buffer."""
        return self.remote_buffers == 2

    @property
    def is_oled(self) -> bool:
        """Whether the panel is emissive (content-dependent power)."""
        return self.technology == "oled"

    def with_drfb(self) -> "PanelConfig":
        """This panel extended with a DRFB (the BurstLink hardware change)."""
        return replace(self, remote_buffers=2)

    def with_oled(self, brightness: float = 1.0) -> "PanelConfig":
        """This panel swapped for an emissive OLED at ``brightness``."""
        return replace(self, technology="oled", brightness=brightness)


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DramConfig:
    """Main-memory geometry and timing (paper Table 3: LPDDR3-1866, 8 GB,
    dual channel)."""

    name: str = "LPDDR3-1866"
    capacity: float = 8 * 1024 * mib(1)
    channels: int = 2
    #: Peak per-module bandwidth; dual-channel LPDDR3-1866 x64 peaks near
    #: 29.8 GB/s, of which display fetch traffic sustains a fraction.
    peak_bandwidth: float = gb_per_s(29.8)
    #: Sustained bandwidth the display controller's DMA achieves when
    #: streaming frame-buffer chunks (row-buffer friendly, but shared
    #: with every other agent and throttled by the fabric arbiter).
    sustained_fetch_bandwidth: float = gb_per_s(4.0)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("DRAM capacity must be positive")
        if self.channels <= 0:
            raise ConfigurationError("DRAM channels must be positive")
        if not 0 < self.sustained_fetch_bandwidth <= self.peak_bandwidth:
            raise ConfigurationError(
                "sustained fetch bandwidth must be positive and not exceed "
                "peak bandwidth"
            )


# ---------------------------------------------------------------------------
# Video decoder / GPU
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VideoDecoderConfig:
    """The fixed-function video decoder IP.

    ``max_output_rate`` is the decoded-pixel output bandwidth at the IP's
    highest frequency; fixed-function decoders race far ahead of the
    display rate (a 4K frame decodes in ~2 ms).  The *baseline* races: it decodes every frame at this maximum
    rate (Sec. 6.4's race-to-sleep discussion shows racing is the
    conventional behaviour).  Under BurstLink the decoder is
    latency-tolerant — the DRFB decouples it from the panel — so it runs at
    the lowest frequency that still meets the frame deadline, stretching
    decode up to ``deadline_utilization`` of the frame period.  That DVFS
    policy is what produces the paper's measured 19% C7 residency at
    FHD 30 FPS (Table 2) while still fitting a 4K frame's decode inside its
    7.2 ms burst (Sec. 3, Observation 2).
    """

    max_output_rate: float = gb_per_s(12.0)
    #: Target fraction of the frame period the BurstLink decoder may occupy
    #: when it has slack (calibrated against Table 2's 19% C7 residency).
    deadline_utilization: float = 0.38
    #: Latency to resume decoding after the PMU's wakeup signal (the
    #: C7 <-> C7' oscillation of Fig. 6).  The wake is a hardware signal
    #: from the PMU — no driver interrupt — so it costs microseconds.
    wake_latency: float = us(5.0)

    def __post_init__(self) -> None:
        if self.max_output_rate <= 0:
            raise ConfigurationError("decoder max_output_rate must be positive")
        if not 0 < self.deadline_utilization <= 1:
            raise ConfigurationError(
                "deadline_utilization must be in (0, 1], got "
                f"{self.deadline_utilization}"
            )
        if self.wake_latency < 0:
            raise ConfigurationError("decoder wake latency must be >= 0")

    def decode_time(self, frame_bytes: float, frame_period: float,
                    race: bool) -> float:
        """Decode duration for one frame.

        ``race=True`` models the conventional decoder (always at max rate);
        ``race=False`` models BurstLink's latency-tolerant DVFS, which
        stretches decode to ``deadline_utilization * frame_period`` when
        the maximum rate would finish earlier.
        """
        fastest = frame_bytes / self.max_output_rate
        if race:
            return fastest
        return max(fastest, self.deadline_utilization * frame_period)


@dataclass(frozen=True)
class GpuConfig:
    """The GPU used for VR projective transformation and for rendering
    graphics planes in non-video workloads."""

    #: Pixels per second the GPU projects during VR projective transform,
    #: at the reference output resolution.
    projection_rate: float = 0.8e9
    #: Extra projection work factor for head-motion-heavy content
    #: (re-sampling cost grows with angular velocity).
    motion_overhead_per_deg_s: float = 0.004
    #: Super-linear resolution scaling of projection cost: per-pixel work
    #: grows with output resolution (wider resampling filters and lower
    #: sampling locality on denser HMD panels), which is why compute
    #: energy dominates VR at high resolutions (paper Sec. 6.2).
    resolution_exponent: float = 2.2
    #: Output pixel count at which ``projection_rate`` is quoted
    #: (a two-eye 1440x1600 HMD panel).
    reference_pixels: float = 2 * 1440 * 1600

    def __post_init__(self) -> None:
        if self.projection_rate <= 0:
            raise ConfigurationError("GPU projection_rate must be positive")
        if self.motion_overhead_per_deg_s < 0:
            raise ConfigurationError("GPU motion overhead must be >= 0")
        if self.resolution_exponent < 1.0:
            raise ConfigurationError(
                "resolution_exponent must be >= 1 (per-pixel work cannot "
                "shrink with resolution)"
            )
        if self.reference_pixels <= 0:
            raise ConfigurationError("reference_pixels must be positive")

    def projection_time(self, output_pixels: float,
                        head_velocity_deg_s: float = 0.0,
                        intensity: float = 1.0) -> float:
        """Seconds of GPU work to project ``output_pixels``."""
        if output_pixels <= 0:
            raise ConfigurationError("output pixel count must be positive")
        if head_velocity_deg_s < 0:
            raise ConfigurationError("head velocity must be >= 0")
        if intensity <= 0:
            raise ConfigurationError("intensity must be positive")
        scale = (
            output_pixels / self.reference_pixels
        ) ** (self.resolution_exponent - 1.0)
        motion = 1.0 + self.motion_overhead_per_deg_s * head_velocity_deg_s
        return (
            output_pixels * scale * intensity * motion
            / self.projection_rate
        )


# ---------------------------------------------------------------------------
# Display controller
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisplayControllerConfig:
    """The display controller (DC) inside the processor's IO domain."""

    #: Size of the DC's internal double buffer (two halves; one fills from
    #: the interconnect while the other drains to the eDP link).
    buffer_size: float = mib(1)
    #: DRAM fetch granularity in conventional mode (Sec. 2.4: ~512 KB).
    chunk_size: float = kib(512)
    #: Per-chunk DMA programming overhead on the fetch path.
    chunk_setup_latency: float = us(8.0)
    #: Upper bound on fetch/drain oscillations per refresh window: at
    #: high resolutions the DC coalesces fetches into fewer, larger
    #: bursts rather than paying a package C-state excursion per 512 KB.
    max_fetch_cycles_per_window: int = 12

    def __post_init__(self) -> None:
        if self.buffer_size <= 0 or self.chunk_size <= 0:
            raise ConfigurationError("DC buffer and chunk sizes must be > 0")
        if self.chunk_size > self.buffer_size:
            raise ConfigurationError(
                "DC chunk size cannot exceed its buffer size"
            )
        if self.chunk_setup_latency < 0:
            raise ConfigurationError("chunk_setup_latency must be >= 0")
        if self.max_fetch_cycles_per_window < 1:
            raise ConfigurationError(
                "max_fetch_cycles_per_window must be >= 1"
            )

    @property
    def half_buffer(self) -> float:
        """Usable size of one half of the DC double buffer."""
        return self.buffer_size / 2

    def bypass_chunk_cycles(self, frame_bytes: float) -> int:
        """Number of fill/drain hand-offs when a frame streams through
        the double buffer (one cycle per half: one half fills while the
        other drains) — the C7/C7' oscillation count of Fig. 6."""
        if frame_bytes <= 0:
            raise ConfigurationError("frame size must be positive")
        return math.ceil(frame_bytes / self.half_buffer)


# ---------------------------------------------------------------------------
# Orchestration (driver/application CPU work)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrchestrationConfig:
    """CPU-side orchestration cost.

    Conventional display drivers do per-*window* work (vblank handling,
    flip programming, DMA descriptor setup) on top of the per-frame
    decode, which is what reconciles the paper's Table 2 (9% C0 at
    FHD 30 FPS) with Fig. 4 (~8% C0 at FHD 60 FPS): the driver cost
    recurs every refresh, the decode only per video frame.  The paper
    puts conventional orchestration near 10% of the frame time and
    BurstLink's PMU-firmware offload below 5% (Sec. 6.4).
    """

    #: CPU time per refresh window in the conventional pipeline.
    baseline_per_frame: float = ms(1.2)
    #: CPU time per new frame with BurstLink's PMU offload.
    burstlink_per_frame: float = ms(0.50)
    #: Driver check during a PSR repeat window under BurstLink (Fig. 7a's
    #: short C0 slice at the head of the second window).
    burstlink_repeat_window: float = ms(0.17)

    def __post_init__(self) -> None:
        if min(self.baseline_per_frame, self.burstlink_per_frame,
               self.burstlink_repeat_window) < 0:
            raise ConfigurationError("orchestration times must be >= 0")


# ---------------------------------------------------------------------------
# Whole system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """A complete platform configuration: the Skylake reference tablet by
    default, overridable piecewise for sweeps."""

    panel: PanelConfig = field(default_factory=PanelConfig)
    edp: EdpConfig = field(default_factory=lambda: EDP_1_4)
    dram: DramConfig = field(default_factory=DramConfig)
    decoder: VideoDecoderConfig = field(default_factory=VideoDecoderConfig)
    gpu: GpuConfig = field(default_factory=GpuConfig)
    dc: DisplayControllerConfig = field(
        default_factory=DisplayControllerConfig
    )
    orchestration: OrchestrationConfig = field(
        default_factory=OrchestrationConfig
    )
    #: Model the *idealised* Fig. 3(a) timeline where baseline PSR repeat
    #: windows reach C9.  The measured Table 2 baseline parks in C8, which
    #: is the default (DESIGN.md, modelling decision 1).
    baseline_c9_in_psr: bool = False
    #: Raise :class:`~repro.errors.DeadlineMissError` when a frame's
    #: decode/fetch/transfer cannot fit its refresh window; otherwise the
    #: miss is recorded on the run statistics.
    strict_deadlines: bool = False

    def __post_init__(self) -> None:
        # The eDP link must at least sustain the panel's pixel-update rate,
        # or even conventional display cannot keep the panel fed.
        if self.edp.max_bandwidth < self.panel.pixel_update_bandwidth:
            raise ConfigurationError(
                f"eDP bandwidth {self.edp.max_bandwidth:.3g} B/s cannot "
                f"sustain panel pixel-update rate "
                f"{self.panel.pixel_update_bandwidth:.3g} B/s"
            )

    @property
    def frame_window(self) -> float:
        """One refresh window in seconds."""
        return self.panel.frame_window

    def with_drfb(self) -> "SystemConfig":
        """A copy of this config whose panel carries the BurstLink DRFB."""
        return replace(self, panel=self.panel.with_drfb())


def skylake_tablet(resolution: Resolution = FHD,
                   refresh_hz: float = 60.0) -> SystemConfig:
    """The paper's baseline platform (Table 3) with the given panel mode."""
    return SystemConfig(
        panel=PanelConfig(resolution=resolution, refresh_hz=refresh_hz)
    )


def vr_headset(per_eye: Resolution = VR_EYE_RESOLUTIONS[-1],
               refresh_hz: float = 60.0) -> SystemConfig:
    """A VR HMD platform: two eye viewports side by side on one panel."""
    return SystemConfig(
        panel=PanelConfig(
            resolution=vr_panel_resolution(per_eye), refresh_hz=refresh_hz
        )
    )
