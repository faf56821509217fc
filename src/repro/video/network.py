"""Network-streamed playback: an ABR client in front of the pipeline.

:class:`~repro.video.source.StreamSource` models the *jitter buffer*
(arrival timing of a fixed byte stream); this module models the layer
above it — an HTTP adaptive-streaming client that picks a bitrate-ladder
rung per chunk from the observed bandwidth, accumulates a playout
buffer, and **stalls** (re-presents the last picture) when a chunk
cannot be fetched before the buffer drains.  Energy-wise this matters
two ways (Herglotz et al. study the streaming-power side of this
trade): lower rungs shrink encoded frames (less decode/DRAM/WiFi work),
while stall repeats turn new-frame windows into repeat windows — the
regime BurstLink's repeat-window collapsing and PSR fallback machinery
target.

Everything is deterministic given the seed: the per-chunk bandwidth
draws, rung choices, buffer levels, and stall placements are all
precomputed at construction, so the source fingerprints in O(1) and the
run memoizer can reuse results across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

import numpy as np
import numpy.random  # eager; see video/source.py

from ..config import Resolution
from ..errors import ConfigurationError
from .source import AnalyticContentModel, ContentAttributes, FrameDescriptor


@dataclass(frozen=True)
class NetworkFrameSource:
    """An ABR-streamed frame source with rebuffering stalls.

    Presents exactly ``count`` frames.  Real frames advance the
    underlying analytic stream with their encoded size scaled by the
    chosen ladder rung; stall frames re-present the previous descriptor
    (flagged ``stalled`` in its :class:`ContentAttributes`), displacing
    real frames within the fixed presentation budget — a stalled session
    shows fewer distinct pictures, exactly like a real player.
    """

    model: AnalyticContentModel
    resolution: Resolution
    count: int
    #: Presentation rate, frames per second.
    fps: float = 30.0
    #: Mean network bandwidth, bits per second (note: *bits*, the
    #: natural unit for media ladders; :class:`StreamSource` uses
    #: bytes/s for its DMA-side accounting).
    bandwidth_bps: float = 10e6
    #: The bitrate ladder as fractions of the content's nominal rate,
    #: ascending; the top rung is the full-quality stream.
    ladder: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    #: Peak-to-mean fluctuation of the per-chunk bandwidth (0 = steady).
    fluctuation: float = 0.3
    #: Frames per ABR chunk (segment).
    chunk_frames: int = 24
    #: The client never downloads more than this many seconds ahead.
    buffer_cap_s: float = 8.0
    #: The client picks the highest rung whose rate fits within
    #: ``safety`` times the observed bandwidth.
    safety: float = 0.85
    seed: int = 0
    #: Per-presented-frame schedule of ``(rung index, stalled)``,
    #: derived deterministically in ``__post_init__``.
    _schedule: tuple[tuple[int, bool], ...] = field(
        init=False, repr=False, compare=False
    )
    _rebuffer_events: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("frame count must be >= 1")
        if self.fps <= 0:
            raise ConfigurationError("fps must be positive")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not self.ladder or any(
            not 0.0 < rung <= 1.0 for rung in self.ladder
        ):
            raise ConfigurationError(
                "ladder rungs must be fractions in (0, 1]"
            )
        if tuple(sorted(self.ladder)) != tuple(self.ladder):
            raise ConfigurationError("ladder must be ascending")
        if not 0.0 <= self.fluctuation < 1.0:
            raise ConfigurationError("fluctuation must be in [0, 1)")
        if self.chunk_frames < 1:
            raise ConfigurationError("chunk_frames must be >= 1")
        if self.buffer_cap_s <= 0:
            raise ConfigurationError("buffer cap must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError("safety must be in (0, 1]")
        schedule, rebuffers = self._plan_session()
        object.__setattr__(self, "_schedule", schedule)
        object.__setattr__(self, "_rebuffer_events", rebuffers)

    # -- the ABR session plan --------------------------------------------------

    def nominal_rate_bps(self) -> float:
        """The full-quality (top-rung) stream rate in bits per second."""
        return (
            self.model.content.bits_per_pixel
            * self.resolution.pixels
            * self.fps
        )

    def _plan_session(self) -> tuple[tuple[tuple[int, bool], ...], int]:
        """Simulate the chunk-by-chunk download/playback race.

        Per chunk: draw the bandwidth, pick the highest affordable rung,
        and race the download against the playout buffer.  A download
        that outlasts the buffer stalls playback for the deficit —
        emitted as repeat frames at the presentation rate.  The first
        chunk downloads during startup (before playback), so it never
        stalls; startup delay itself is not presented.
        """
        rng = np.random.default_rng(self.seed)
        nominal = self.nominal_rate_bps()
        chunk_s = self.chunk_frames / self.fps
        schedule: list[tuple[int, bool]] = []
        rebuffers = 0
        buffer_s = 0.0
        first = True
        while len(schedule) < self.count:
            bandwidth = self.bandwidth_bps * (
                1.0 + self.fluctuation * float(rng.uniform(-1.0, 1.0))
            )
            tier = 0
            for index, rung in enumerate(self.ladder):
                if rung * nominal <= self.safety * bandwidth:
                    tier = index
            download_s = (
                self.ladder[tier] * nominal * chunk_s / bandwidth
            )
            if first:
                buffer_s = chunk_s
                first = False
            else:
                deficit = download_s - buffer_s
                if deficit > 0.0:
                    stalled = min(
                        self.count - len(schedule),
                        int(math.ceil(deficit * self.fps)),
                    )
                    previous = schedule[-1][0]
                    schedule.extend(
                        ((previous, True),) * stalled
                    )
                    rebuffers += 1
                    buffer_s = 0.0
                else:
                    buffer_s -= download_s
                buffer_s = min(
                    buffer_s + chunk_s, self.buffer_cap_s
                )
            remaining = self.count - len(schedule)
            if remaining > 0:
                schedule.extend(
                    ((tier, False),)
                    * min(self.chunk_frames, remaining)
                )
        return tuple(schedule[: self.count]), rebuffers

    # -- session statistics ----------------------------------------------------

    @property
    def rebuffer_events(self) -> int:
        """Distinct stall (rebuffering) events in the session."""
        return self._rebuffer_events

    @property
    def stall_ratio(self) -> float:
        """Fraction of presented frames that are stall repeats."""
        stalls = sum(1 for _, stalled in self._schedule if stalled)
        return stalls / len(self._schedule)

    @property
    def mean_tier(self) -> float:
        """Average ladder rung index across presented frames."""
        return sum(tier for tier, _ in self._schedule) / len(
            self._schedule
        )

    def tier_counts(self) -> dict[int, int]:
        """Presented frames per ladder rung."""
        counts: dict[int, int] = {}
        for tier, _ in self._schedule:
            counts[tier] = counts.get(tier, 0) + 1
        return counts

    # -- the frame stream ------------------------------------------------------

    def __iter__(self) -> Iterator[FrameDescriptor]:
        frames = self.model.iter_frames(
            self.resolution, self.count, seed=self.seed
        )
        previous: FrameDescriptor | None = None
        for index, (tier, stalled) in enumerate(self._schedule):
            if stalled:
                assert previous is not None
                yield replace(
                    previous,
                    index=index,
                    attributes=replace(
                        previous.attributes
                        or ContentAttributes(apl=self.model.apl),
                        stalled=True,
                    ),
                )
                continue
            base = next(frames)
            descriptor = replace(
                base,
                index=index,
                encoded_bytes=base.encoded_bytes * self.ladder[tier],
                attributes=ContentAttributes(
                    apl=self.model.apl,
                    bitrate_tier=tier,
                    stalled=False,
                ),
            )
            previous = descriptor
            yield descriptor

    def __len__(self) -> int:
        return self.count

    def fingerprint_token(self) -> Any:
        return (
            "frames/network",
            self.model,
            self.resolution,
            self.count,
            self.fps,
            self.bandwidth_bps,
            self.ladder,
            self.fluctuation,
            self.chunk_frames,
            self.buffer_cap_s,
            self.safety,
            self.seed,
        )
