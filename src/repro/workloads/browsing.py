"""The Fig. 4 web-browsing phase.

Fig. 4 shows the measured system power while a user browses the web and
then starts an FHD 60 FPS stream: browsing is bursty — interaction
events (scrolls, page paints) wake the pipeline for a few windows, then
the display self-refreshes — with a reported interrupt rate around
102 Hz during activity.

This generator builds the browsing timeline directly: each refresh
window is either *active* (CPU renders, the DC fetches and streams the
repaint) or *idle* (PSR with the conventional C8 parking), with activity
arriving in bursts of consecutive windows, deterministic per seed.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # eager; see video/source.py

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..pipeline.builder import TimelineBuilder
from ..pipeline.conventional import effective_fetch_bandwidth
from ..pipeline.timeline import PanelMode, Timeline
from ..soc.cstates import PackageCState


def browsing_timeline(
    config: SystemConfig,
    duration_s: float = 2.0,
    activity: float = 0.35,
    burst_windows: int = 6,
    seed: int = 0,
) -> Timeline:
    """A browsing-phase timeline.

    ``activity`` is the long-run fraction of refresh windows with live
    rendering; activity arrives in runs of ``burst_windows`` consecutive
    windows (a scroll animates several frames).
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if not 0 <= activity <= 1:
        raise ConfigurationError("activity must be in [0, 1]")
    if burst_windows < 1:
        raise ConfigurationError("burst_windows must be >= 1")

    rng = np.random.default_rng(seed)
    window = config.frame_window
    count = max(1, int(round(duration_s / window)))
    # Burst-start probability giving the requested long-run activity:
    # a renewal cycle is one geometric idle wait (mean 1/p) plus
    # burst_windows active windows, so
    # activity = burst / (burst + 1/p)  =>  p = activity / (burst * (1 - activity)).
    if activity >= 1.0:
        start_probability = 1.0
    elif activity <= 0.0:
        start_probability = 0.0
    else:
        start_probability = min(
            1.0, activity / (burst_windows * (1.0 - activity))
        )
    panel_bytes = float(config.panel.frame_bytes)
    pixel_rate = config.panel.pixel_update_bandwidth
    fetch_bw = effective_fetch_bandwidth(config)

    builder = TimelineBuilder(
        start=0.0, initial_state=PackageCState.C8
    )
    remaining_burst = 0
    for _ in range(count):
        if remaining_burst == 0 and rng.uniform() < start_probability:
            remaining_burst = burst_windows
        active = remaining_burst > 0
        if remaining_burst:
            remaining_burst -= 1
        window_end = builder.now + window
        if active:
            # CPU repaint, then one coalesced fetch, then live drain.
            render = min(
                config.orchestration.baseline_per_frame * 2.0,
                window * 0.5,
            )
            builder.add(
                render,
                PackageCState.C0,
                label="browse render",
                cpu_active=True,
                gpu_active=True,
                dram_read_bw=panel_bytes * 0.3 / render,
                dram_write_bw=panel_bytes / render,
                dc_active=True,
                edp_rate=pixel_rate,
                panel_mode=PanelMode.LIVE,
            )
            fetch = panel_bytes / fetch_bw
            builder.add(
                fetch,
                PackageCState.C2,
                label="browse fetch",
                dram_read_bw=fetch_bw,
                dc_active=True,
                edp_rate=pixel_rate,
                panel_mode=PanelMode.LIVE,
            )
            builder.fill_to(
                window_end,
                PackageCState.C8,
                label="browse drain",
                dc_active=True,
                edp_rate=pixel_rate,
                panel_mode=PanelMode.LIVE,
            )
        else:
            builder.add(
                min(config.orchestration.baseline_per_frame, window),
                PackageCState.C0,
                label="driver vblank work",
                cpu_active=True,
                panel_mode=PanelMode.SELF_REFRESH,
            )
            builder.fill_to(
                window_end,
                PackageCState.C8,
                label="browse psr",
                panel_mode=PanelMode.SELF_REFRESH,
            )
    return builder.build()
