"""A per-window planning oracle: every window of a run planned fresh.

The cadence walker files windows under shared plan groups; this oracle
walks the same cadence with none of that machinery — each window is
planned from its own frame, kind and entry state through the scheme's
``plan_window`` — so tests can check a group's replay against the plan
it stands in for.
"""

import dataclasses

from repro.display.timing import RefreshTiming
from repro.pipeline.sim import WindowContext, WindowResult
from repro.pipeline.timeline import TimelineSummary
from repro.soc.cstates import PackageCState


def fresh_windows(config, scheme, frames, fps, count=None):
    """``(effective kind, WindowResult)`` for every window of a
    completed stream of ``frames`` at ``fps``, each planned fresh.

    ``count`` defaults to the window count ``run()`` computes; windows
    past the last frame re-present it (clamped), as in the walker.  Each
    window is planned from time zero, as the walker plans it.
    """
    timing = RefreshTiming(config.panel.refresh_hz, fps)
    if count is None:
        count = int(round(len(frames) * timing.windows_per_frame))
    state = PackageCState.C0
    windows = []
    for plan in timing.windows(count):
        frame_index = plan.frame_index
        result = scheme.plan_window(
            WindowContext(
                config=config,
                window=dataclasses.replace(plan, start=0.0),
                frame=frames[min(frame_index, len(frames) - 1)],
                initial_state=state,
            )
        )
        kind = (
            "new_frame"
            if plan.is_new_frame and frame_index < len(frames)
            else "repeat"
        )
        windows.append((kind, result))
        state = result.timeline.segments[-1].state
    return windows


def window_quantities(result: WindowResult, kind: str, duration: float,
                      staged_bytes: float = 0.0) -> dict:
    """Class -> (seconds, DRAM read, DRAM write, eDP bytes) of one
    planned window, with ``staged_bytes`` more encoded bytes on its
    staged segment."""
    digest = TimelineSummary.window_digest(result.timeline, kind, duration)
    if staged_bytes:
        digest.add_staged_bytes(
            result.timeline.segments[result.staged_segment], kind,
            staged_bytes,
        )
    return {
        cls_key: (
            totals.seconds,
            totals.dram_read_bytes,
            totals.dram_write_bytes,
            totals.edp_bytes,
        )
        for cls_key, totals in digest.buckets.items()
    }


def result_flags(result: WindowResult) -> tuple:
    """The per-window stats a plan contributes, and its final state."""
    return (
        result.deadline_missed,
        result.vd_wakes,
        result.used_psr,
        result.bypassed_dram,
        result.burst,
        result.timeline.segments[-1].state,
    )
