"""Workload definitions and runners for every evaluation scenario in the
paper: planar streaming and local playback (Figs. 1/9/10/12/13/14a), the
five 360-degree VR streams (Fig. 11), the Fig. 14b mobile workloads, and
the Fig. 4 web-browsing phase. The multi-phase session scenario
(``workloads.scenario``) is not on the evaluation path; import it from
its own module."""

from .oled import OledVideoWorkload, oled_video_run
from .streaming import NetworkStreamWorkload, network_stream_run
from .standby import (
    AmbientStandbyWorkload,
    ambient_standby_run,
    standby_power_mw,
    standby_timeline,
)
from .traces import HeadTrace, HeadTraceParams, generate_head_trace
from .video import (
    PlanarVideoWorkload,
    local_playback_run,
    planar_streaming_run,
)
from .vr import VR_WORKLOADS, VrWorkload, vr_streaming_run
from .mobile import MOBILE_WORKLOADS, MobileWorkload, mobile_workload_run
from .browsing import browsing_timeline

__all__ = [
    "AmbientStandbyWorkload",
    "ambient_standby_run",
    "HeadTrace",
    "standby_power_mw",
    "standby_timeline",
    "HeadTraceParams",
    "MOBILE_WORKLOADS",
    "MobileWorkload",
    "NetworkStreamWorkload",
    "OledVideoWorkload",
    "PlanarVideoWorkload",
    "VR_WORKLOADS",
    "VrWorkload",
    "browsing_timeline",
    "generate_head_trace",
    "local_playback_run",
    "mobile_workload_run",
    "network_stream_run",
    "oled_video_run",
    "planar_streaming_run",
    "vr_streaming_run",
]
