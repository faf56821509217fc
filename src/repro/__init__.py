"""BurstLink reproduction — energy-efficient video display for
conventional and virtual-reality systems (Haj-Yahya et al., MICRO 2021).

The evaluation path models the mobile video-display stack the way the
paper's analytical model does: package C-states and the PMU, DRAM with
the paper's two-part power model, refresh timing, an analytic content
model for frame sizes, a frame-window simulator, the BurstLink
mechanisms (Frame Buffer Bypass + Frame Bursting), every baseline the
paper compares against, and the validated power model that evaluates
them all.

The functional device models -- the macroblock codec, decoder IP and
GPU (``repro.video``), the display datapath (``repro.display``), the
SoC registers and interconnect (``repro.soc``), the DRAM
frame-buffer and traffic models (``repro.dram``) and the capture and
fallback schemes (``repro.core``) -- are not on that path. No exhibit
runs them, the package ``__init__``s do not import them, and callers
import them from their own modules.

Quickstart::

    from repro import (
        BurstLinkScheme, ConventionalScheme, FrameWindowSimulator,
        PowerModel, skylake_tablet, UHD_4K,
    )
    from repro.video.source import AnalyticContentModel

    config = skylake_tablet(UHD_4K)
    frames = AnalyticContentModel().frames(UHD_4K, 60)
    baseline = FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, video_fps=60.0
    )
    burstlink = FrameWindowSimulator(
        config.with_drfb(), BurstLinkScheme()
    ).run(frames, video_fps=60.0)
    model = PowerModel()
    saving = 1 - (model.report(burstlink).average_power_mw
                  / model.report(baseline).average_power_mw)
    print(f"BurstLink saves {saving:.0%}")
"""

from .config import (
    EDP_1_3,
    EDP_1_4,
    EdpConfig,
    FHD,
    PLANAR_RESOLUTIONS,
    PanelConfig,
    QHD,
    Resolution,
    SystemConfig,
    UHD_4K,
    UHD_5K,
    VR_EYE_RESOLUTIONS,
    skylake_tablet,
    vr_headset,
)
from .core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
    HardwareCostModel,
    WindowedVideoScheme,
)
from .errors import ReproError
from .pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    RunResult,
    Timeline,
)
from .power import (
    PlatformExtras,
    PowerModel,
    SKYLAKE_TABLET_POWER,
    breakdown_report,
)
from .soc import PackageCState

__version__ = "1.0.0"

__all__ = [
    "BurstLinkScheme",
    "ConventionalScheme",
    "EDP_1_3",
    "EDP_1_4",
    "EdpConfig",
    "FHD",
    "FrameBufferBypassScheme",
    "FrameBurstingScheme",
    "FrameWindowSimulator",
    "HardwareCostModel",
    "PLANAR_RESOLUTIONS",
    "PackageCState",
    "PanelConfig",
    "PlatformExtras",
    "PowerModel",
    "QHD",
    "ReproError",
    "Resolution",
    "RunResult",
    "SKYLAKE_TABLET_POWER",
    "SystemConfig",
    "Timeline",
    "UHD_4K",
    "UHD_5K",
    "VR_EYE_RESOLUTIONS",
    "WindowedVideoScheme",
    "breakdown_report",
    "skylake_tablet",
    "vr_headset",
    "__version__",
]
