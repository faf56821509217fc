"""Video pipeline substrate on the evaluation path: frame and macroblock
types and the frame sources (analytic content model, network/storage
stream) that every run draws its frame sizes from (paper Sec. 2.4).

The functional device models -- the macroblock codec (``video.codec``,
``video.bitstream``), the decoder IP (``video.decoder``), the GPU with
VR projection (``video.gpu``) and the quality metrics
(``video.metrics``) -- are not re-exported here and no exhibit runs
them. Import them from their own modules; ``codec`` and ``metrics`` are
the only modules that load scipy."""

from .frames import (
    DecodedFrame,
    EncodedFrame,
    FrameType,
    GopStructure,
    MACROBLOCK_SIZE,
)
from .source import (
    AnalyticContentModel,
    AnalyticFrameSource,
    ContentClass,
    FrameSource,
    ListFrameSource,
    RepeatingFrameSource,
    StreamSource,
    as_frame_source,
)

__all__ = [
    "AnalyticContentModel",
    "AnalyticFrameSource",
    "FrameSource",
    "ListFrameSource",
    "RepeatingFrameSource",
    "as_frame_source",
    "ContentClass",
    "DecodedFrame",
    "EncodedFrame",
    "FrameType",
    "GopStructure",
    "MACROBLOCK_SIZE",
    "StreamSource",
]
