"""Shared CLI lookup tables.

Every command module resolves user-facing names (resolutions, display
schemes) through the same two tables.
"""

from __future__ import annotations

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


__all__ = [
    "_RESOLUTIONS",
    "_SCHEMES",
    "_config_for",
]
