"""Stream sources: the network/storage side of video processing.

For streaming, the WiFi NIC DMA-writes encoded frames into a DRAM jitter
buffer; for playback, the storage controller does (paper Sec. 2.4,
"Buffering").  The buffer absorbs network bandwidth fluctuation.

Two content paths feed the pipeline:

* the **functional codec** produces real byte streams for small frames
  (tests, examples); and
* the **analytic content model** synthesises per-frame encoded sizes for
  full-resolution workloads, using bits-per-pixel rates representative of
  H.264/HEVC streaming ladders, with I/P/B size ratios and log-normal
  frame-to-frame variation.  The energy results depend only on sizes and
  timing, so this preserves the quantities that matter (DESIGN.md,
  substitution table).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import (
    Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable,
)

import numpy as np
# numpy loads ``numpy.random`` lazily, on the first ``default_rng``
# call. Loading it at import keeps that cost in the parent process
# instead of in every pool worker forked before the first draw.
import numpy.random

from ..config import Resolution
from ..errors import BufferUnderflowError, ConfigurationError
from .frames import FrameType, GopStructure


class ContentClass(enum.Enum):
    """Content families with representative compressed bit rates.

    The value is the average encoded bits per pixel at streaming quality
    (e.g. NATURAL at 4K30 gives ~0.08 bpp = ~20 Mbps, a typical 4K
    streaming ladder rung).
    """

    #: Camera-captured natural video (film, sports).
    NATURAL = 0.080
    #: Animation/synthetic content (flat regions compress further).
    ANIMATION = 0.045
    #: Screen content / productivity capture.
    SCREEN = 0.030
    #: High-motion content (action, 360-degree VR source video).
    HIGH_MOTION = 0.120

    @property
    def bits_per_pixel(self) -> float:
        """Average encoded bits per displayed pixel."""
        return self.value


#: Representative average picture level per content family, used when a
#: workload opts into content-aware (OLED) pricing.  Screen content is
#: bright (white documents), high-motion/film skews dark.
CONTENT_APL = {
    ContentClass.NATURAL: 0.45,
    ContentClass.ANIMATION: 0.60,
    ContentClass.SCREEN: 0.85,
    ContentClass.HIGH_MOTION: 0.40,
}


@dataclass(frozen=True)
class ContentAttributes:
    """Displayed-content attributes that power terms may price on.

    Attached per frame; ``None`` on a :class:`FrameDescriptor` means
    "content-agnostic" and reproduces the historical behavior exactly.
    """

    #: Average picture level (mean relative luminance), 0..1.
    apl: float = 0.0
    #: Rung index on the source's ABR ladder (0 = lowest).
    bitrate_tier: int = 0
    #: The frame is a stall repeat (rebuffering re-presented the
    #: previous picture instead of advancing the stream).
    stalled: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.apl <= 1.0:
            raise ConfigurationError("APL must be within [0, 1]")
        if self.bitrate_tier < 0:
            raise ConfigurationError("bitrate tier must be >= 0")

    def to_payload(self) -> dict[str, Any]:
        """The attributes as a JSON-safe wire payload."""
        return {
            "apl": self.apl,
            "bitrate_tier": self.bitrate_tier,
            "stalled": self.stalled,
        }


@dataclass(frozen=True)
class FrameDescriptor:
    """A lightweight stand-in for an encoded frame: everything the energy
    pipeline needs (sizes and type) without a payload."""

    index: int
    frame_type: FrameType
    encoded_bytes: float
    decoded_bytes: float
    #: Content attributes for content-aware power terms; ``None`` keeps
    #: the frame content-agnostic (the historical default).
    attributes: "ContentAttributes | None" = None

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is false.
        if not (
            0 < self.encoded_bytes < math.inf
            and 0 < self.decoded_bytes < math.inf
        ):
            raise ConfigurationError(
                "frame sizes must be positive and finite, got "
                f"{self.encoded_bytes!r}/{self.decoded_bytes!r}"
            )

    def to_payload(self) -> dict[str, Any]:
        """The descriptor as a JSON-safe wire payload (the ``repro
        serve`` session protocol ships frames in this shape).  The
        ``attributes`` key appears only for content-aware frames, so
        historical payloads are unchanged byte for byte."""
        payload = {
            "index": self.index,
            "type": self.frame_type.value,
            "encoded_bytes": self.encoded_bytes,
            "decoded_bytes": self.decoded_bytes,
        }
        if self.attributes is not None:
            payload["attributes"] = self.attributes.to_payload()
        return payload


def descriptor_from_payload(payload: dict[str, Any]) -> FrameDescriptor:
    """Parse one wire-protocol frame payload (the inverse of
    :meth:`FrameDescriptor.to_payload`), validating sizes and type."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    try:
        frame_type = FrameType(str(payload.get("type", "P")))
    except ValueError:
        raise ConfigurationError(
            f"unknown frame type {payload.get('type')!r}"
        ) from None
    attributes = None
    raw_attributes = payload.get("attributes")
    if raw_attributes is not None:
        if not isinstance(raw_attributes, dict):
            raise ConfigurationError(
                "frame attributes must be an object"
            )
        try:
            attributes = ContentAttributes(
                apl=float(raw_attributes.get("apl", 0.0)),
                bitrate_tier=int(raw_attributes.get("bitrate_tier", 0)),
                stalled=bool(raw_attributes.get("stalled", False)),
            )
        except (TypeError, ValueError):
            raise ConfigurationError(
                "frame attributes need numeric apl/bitrate_tier"
            ) from None
    try:
        return FrameDescriptor(
            index=int(payload.get("index", 0)),
            frame_type=frame_type,
            encoded_bytes=float(payload["encoded_bytes"]),
            decoded_bytes=float(payload["decoded_bytes"]),
            attributes=attributes,
        )
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(
            "frame payload needs numeric encoded_bytes/decoded_bytes"
        ) from None


#: Relative encoded-size weights of I, P, and B frames (I frames are the
#: big intra-coded anchors; B frames compress best).
_TYPE_WEIGHTS = {FrameType.I: 4.0, FrameType.P: 1.3, FrameType.B: 0.7}


@dataclass(frozen=True)
class AnalyticContentModel:
    """Synthesises representative encoded frame sizes for a content class."""

    content: ContentClass = ContentClass.NATURAL
    gop: GopStructure = field(default_factory=GopStructure)
    #: Log-normal sigma of frame-to-frame size variation.
    variability: float = 0.18
    #: Average picture level stamped on every generated frame (0
    #: disables content attributes — the historical, content-agnostic
    #: default).  Pass :data:`CONTENT_APL` values for representative
    #: luminance per content family.
    apl: float = 0.0

    def __post_init__(self) -> None:
        if self.variability < 0:
            raise ConfigurationError("variability must be >= 0")
        if not 0.0 <= self.apl <= 1.0:
            raise ConfigurationError("APL must be within [0, 1]")

    def _normalised_weights(self) -> dict[FrameType, float]:
        """Per-type size multipliers scaled so the GOP average equals the
        content class's bits-per-pixel budget."""
        counts = self.gop.type_counts()
        total = sum(
            _TYPE_WEIGHTS[t] * n for t, n in counts.items() if n
        )
        frames = self.gop.length
        scale = frames / total
        return {t: _TYPE_WEIGHTS[t] * scale for t in FrameType}

    def iter_frames(self, resolution: Resolution, count: int,
                    seed: int = 0) -> Iterator[FrameDescriptor]:
        """Lazily yield ``count`` frame descriptors for a stream at
        ``resolution``.

        One RNG draw per frame in index order, so the stream is
        reproducible and materializing it with :meth:`frames` gives the
        identical sequence.
        """
        if count < 0:
            raise ConfigurationError("frame count must be >= 0")
        rng = np.random.default_rng(seed)
        weights = self._normalised_weights()
        mean_bytes = (
            self.content.bits_per_pixel * resolution.pixels / 8.0
        )
        decoded = float(resolution.frame_bytes())
        attributes = (
            ContentAttributes(apl=self.apl) if self.apl > 0 else None
        )
        for index in range(count):
            frame_type = self.gop.frame_type(index)
            noise = (
                float(rng.lognormal(mean=0.0, sigma=self.variability))
                if self.variability else 1.0
            )
            size = max(64.0, mean_bytes * weights[frame_type] * noise)
            yield FrameDescriptor(
                index=index,
                frame_type=frame_type,
                encoded_bytes=size,
                decoded_bytes=decoded,
                attributes=attributes,
            )

    def frames(self, resolution: Resolution, count: int,
               seed: int = 0) -> list[FrameDescriptor]:
        """``count`` frame descriptors for a stream at ``resolution``."""
        return list(self.iter_frames(resolution, count, seed=seed))

    def average_encoded_bytes(self, resolution: Resolution) -> float:
        """Long-run mean encoded frame size at ``resolution``."""
        return self.content.bits_per_pixel * resolution.pixels / 8.0


# ---------------------------------------------------------------------------
# Frame sources: streaming input to the simulator
# ---------------------------------------------------------------------------


@runtime_checkable
class FrameSource(Protocol):
    """An iterable stream of frame descriptors.

    The simulator pulls one frame per new-frame window, so a source only
    ever needs O(1) frames in memory.  Sources with a known length also
    implement ``__len__`` (frame count); unbounded/opaque sources require
    the caller to pass ``max_windows``.  ``fingerprint_token`` returns a
    compact canonical description of the stream for run memoization, or
    raises ``TypeError`` when the stream cannot be fingerprinted without
    materializing it.  A source with index access may also implement
    ``content_run(index)`` (see :meth:`RepeatingFrameSource.content_run`)
    and ``source[index]`` / ``source[start:stop]``: the simulator then
    reads frames by index and accounts the steady updates of frames
    that plan alike in blocks.
    """

    def __iter__(self) -> Iterator[FrameDescriptor]:
        ...  # pragma: no cover - protocol

    def fingerprint_token(self) -> Any:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ListFrameSource:
    """A fully materialized frame list viewed as a source."""

    frames: tuple[FrameDescriptor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))

    def __iter__(self) -> Iterator[FrameDescriptor]:
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, key: "int | slice") -> Any:
        """Frame ``key``, or a tuple of frames for a slice."""
        return self.frames[key]

    def content_run(
        self, index: int
    ) -> "tuple[FrameDescriptor, int] | None":
        """Frame ``index`` and how many frames from it on share its
        content, of which a list claims only the frame itself; ``None``
        past the end (see :meth:`RepeatingFrameSource.content_run`)."""
        if not 0 <= index < len(self.frames):
            return None
        return self.frames[index], 1

    def fingerprint_token(self) -> Any:
        return ("frames/list", self.frames)


@dataclass(frozen=True)
class RepeatingFrameSource:
    """The same frame presented ``count`` times (standby, static UI).

    Yields copies re-indexed 0..count-1 so downstream consumers see a
    well-formed stream, while the run fingerprint stays O(1).
    """

    frame: FrameDescriptor
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("repeat count must be >= 1")

    def _copies(self, indices: Iterable[int]) -> Iterator[FrameDescriptor]:
        # The constructor, not ``dataclasses.replace``: the same
        # validated copies at a fraction of the cost per redraw.
        frame = self.frame
        fields = (frame.frame_type, frame.encoded_bytes,
                  frame.decoded_bytes, frame.attributes)
        for index in indices:
            yield FrameDescriptor(index, *fields)

    def __iter__(self) -> Iterator[FrameDescriptor]:
        return self._copies(range(self.count))

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, key: "int | slice") -> Any:
        """Frame ``key``, or a tuple of frames for a slice."""
        if isinstance(key, slice):
            return tuple(self._copies(range(self.count)[key]))
        [frame] = self._copies([range(self.count)[key]])
        return frame

    def content_run(
        self, index: int
    ) -> "tuple[FrameDescriptor, int] | None":
        """Frame ``index`` and how many frames from it on share its
        content (all the rest), or ``None`` past the end.

        The cadence walker pulls through this instead of iterating, so
        it can skip a block of frames without building their
        descriptors."""
        if not 0 <= index < self.count:
            return None
        return self[index], self.count - index

    def fingerprint_token(self) -> Any:
        return ("frames/repeat", self.frame, self.count)


@dataclass(frozen=True)
class AnalyticFrameSource:
    """A lazily generated analytic content stream.

    Streams :meth:`AnalyticContentModel.iter_frames` without
    materializing it, so hour-long synthetic traces cost O(1) memory.
    The fingerprint covers the generator parameters, not the frames.
    """

    model: AnalyticContentModel
    resolution: Resolution
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError("frame count must be >= 0")

    def __iter__(self) -> Iterator[FrameDescriptor]:
        return self.model.iter_frames(
            self.resolution, self.count, seed=self.seed
        )

    def __len__(self) -> int:
        return self.count

    def fingerprint_token(self) -> Any:
        return (
            "frames/analytic",
            self.model,
            self.resolution,
            self.count,
            self.seed,
        )


def as_frame_source(
    frames: "FrameSource | Sequence[FrameDescriptor]",
) -> FrameSource:
    """Coerce a frame list (the historical input type) or any
    :class:`FrameSource` to a source."""
    if isinstance(frames, (list, tuple)):
        return ListFrameSource(tuple(frames))
    if isinstance(frames, FrameSource):
        return frames
    raise ConfigurationError(
        f"cannot stream frames from {type(frames).__qualname__}"
    )


@dataclass
class StreamSource:
    """The DRAM jitter buffer between the network/storage producer and the
    video decoder.

    ``deliver_until(t)`` advances the (fluctuating) arrival process;
    ``pop_frame(t)`` hands the next frame to the VD.  Underruns model a
    stall (rebuffering) and are counted.
    """

    frames: list[FrameDescriptor]
    #: Average delivery bandwidth of the network/storage path, bytes/s.
    bandwidth: float
    #: Peak-to-mean fluctuation of the delivery rate (0 = constant).
    fluctuation: float = 0.25
    #: Frames buffered before playback starts.
    prebuffer_frames: int = 4
    seed: int = 0
    delivered: int = field(default=0, init=False)
    consumed: int = field(default=0, init=False)
    underruns: int = field(default=0, init=False)
    buffered_bytes: float = field(default=0.0, init=False)
    _arrival_times: list[float] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError("source bandwidth must be positive")
        if not 0 <= self.fluctuation < 1:
            raise ConfigurationError("fluctuation must be in [0, 1)")
        if self.prebuffer_frames < 0:
            raise ConfigurationError("prebuffer_frames must be >= 0")
        self._compute_arrivals()

    def _compute_arrivals(self) -> None:
        """Precompute each frame's arrival completion time under the
        fluctuating delivery rate (deterministic given the seed)."""
        rng = np.random.default_rng(self.seed)
        clock = 0.0
        for descriptor in self.frames:
            rate = self.bandwidth * (
                1.0 + self.fluctuation * float(rng.uniform(-1.0, 1.0))
            )
            clock += descriptor.encoded_bytes / rate
            self._arrival_times.append(clock)

    @property
    def startup_delay(self) -> float:
        """Time until the prebuffer target is met and playback may start."""
        if not self.frames:
            return 0.0
        target = min(self.prebuffer_frames, len(self.frames))
        if target == 0:
            return 0.0
        return self._arrival_times[target - 1]

    def deliver_until(self, now: float) -> float:
        """Advance arrivals to time ``now``; returns the bytes newly
        DMA-written into the jitter buffer (DRAM write traffic)."""
        written = 0.0
        while (
            self.delivered < len(self.frames)
            and self._arrival_times[self.delivered] <= now
        ):
            size = self.frames[self.delivered].encoded_bytes
            self.buffered_bytes += size
            written += size
            self.delivered += 1
        return written

    def pop_frame(self, now: float) -> FrameDescriptor:
        """The VD takes the next frame out of the jitter buffer.

        An underrun (frame not yet delivered) is counted and the frame is
        handed over anyway at its arrival time semantics — the pipeline
        layer decides whether to stall or drop.
        """
        if self.consumed >= len(self.frames):
            raise BufferUnderflowError("the stream is exhausted")
        self.deliver_until(now)
        descriptor = self.frames[self.consumed]
        if self._arrival_times[self.consumed] > now:
            self.underruns += 1
        else:
            self.buffered_bytes = max(
                0.0, self.buffered_bytes - descriptor.encoded_bytes
            )
        self.consumed += 1
        return descriptor

    @property
    def exhausted(self) -> bool:
        """Whether every frame has been consumed."""
        return self.consumed >= len(self.frames)
