"""Shared CLI lookup tables and flag helpers.

Every command module resolves user-facing names (resolutions, display
schemes) through the same two tables, and every batch-style command
applies ``--plan-cache`` through :func:`_apply_plan_cache_flag` so a flag
observed by the parent process is also observed (via the environment)
by any worker processes a fan-out spawns.
"""

from __future__ import annotations

import argparse
from typing import Callable

from ..baselines import (
    FrameBufferCompressionScheme,
    VipScheme,
    ZhangScheme,
)
from ..config import PLANAR_RESOLUTIONS
from ..core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
    WindowedVideoScheme,
)
from ..pipeline import ConventionalScheme

_RESOLUTIONS = {str(r): r for r in PLANAR_RESOLUTIONS}
_SCHEMES: dict[str, tuple[Callable, bool]] = {
    "conventional": (ConventionalScheme, False),
    "burstlink": (BurstLinkScheme, True),
    "bursting": (FrameBurstingScheme, True),
    "bypass": (FrameBufferBypassScheme, False),
    "windowed": (WindowedVideoScheme, True),
    "fbc": (
        lambda: FrameBufferCompressionScheme(compression_rate=0.5),
        False,
    ),
    "zhang": (ZhangScheme, False),
    "vip": (VipScheme, False),
}


def _config_for(resolution, needs_drfb):
    from ..config import skylake_tablet

    config = skylake_tablet(resolution)
    return config.with_drfb() if needs_drfb else config


def _apply_plan_cache_flag(args: argparse.Namespace) -> None:
    """Apply ``--plan-cache`` for this process *and* (via the
    environment) any worker processes a fan-out spawns."""
    import os

    from ..pipeline import sim

    if getattr(args, "plan_cache", False):
        os.environ["REPRO_PLAN_CACHE"] = "1"
        sim.set_plan_cache(True)


__all__ = [
    "_RESOLUTIONS",
    "_SCHEMES",
    "_apply_plan_cache_flag",
    "_config_for",
]
