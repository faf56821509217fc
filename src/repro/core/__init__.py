"""BurstLink itself (paper Sec. 4): Frame Buffer Bypass, Frame Bursting,
the combined BurstLink scheme, windowed-video support via PSR2 and the
Sec. 4.4 hardware cost model. The camera-capture schemes
(``core.capture``) and the conventional-mode fallback policy
(``core.fallback``) are not on the evaluation path; import them from
their own modules."""

from .bursting import FrameBurstingScheme
from .bypass import FrameBufferBypassScheme
from .burstlink import BurstLinkScheme
from .windowed import WindowedVideoScheme
from .cost import HardwareCostModel, CostReport

__all__ = [
    "BurstLinkScheme",
    "CostReport",
    "FrameBufferBypassScheme",
    "FrameBurstingScheme",
    "HardwareCostModel",
    "WindowedVideoScheme",
]
