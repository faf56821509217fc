"""Display Stream Compression (DSC) over the eDP link — an extension.

The paper evaluates panel links up to eDP 1.4's 25.92 Gbps and notes
that higher-refresh modes outrun it.  VESA DSC is the industry answer:
a visually-lossless, *fixed-rate* compressor between the DC and the
T-con, which multiplies the link's effective payload.  Combining DSC
with Frame Bursting shortens the burst (deeper C9 residency) and makes
4K@144-class modes feasible on a stock link — the sweep in
``benchmarks/bench_extensions.py`` quantifies both.

The functional codec here is a real fixed-rate line compressor in the
DSC spirit: per scan line, delta/predictive coding with a hard output
budget — the encoder degrades precision (never the rate) when the
budget tightens, exactly the guarantee real DSC makes to the link
layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..config import EdpConfig, SystemConfig
from ..errors import CodecError, ConfigurationError


@dataclass(frozen=True)
class DscConfig:
    """DSC operating point.

    The energy model charges DSC implicitly: segments under a DSC link
    carry the *effective* (multiplied) payload rate, so the
    rate-proportional eDP term grows by the same ratio."""

    #: Guaranteed compression ratio (2.0 halves every line's bytes).
    ratio: float = 2.0

    def __post_init__(self) -> None:
        if not 1.0 < self.ratio <= 3.0:
            raise ConfigurationError(
                f"DSC ratio must be in (1, 3], got {self.ratio}"
            )

    def effective_link(self, edp: EdpConfig) -> EdpConfig:
        """The link as the datapath sees it: payload multiplied by the
        compression ratio."""
        return EdpConfig(
            name=f"{edp.name} +DSC{self.ratio:g}",
            max_bandwidth=edp.max_bandwidth * self.ratio,
            lane_count=edp.lane_count,
            wake_latency=edp.wake_latency,
        )


def with_dsc(config: SystemConfig,
             dsc: DscConfig | None = None) -> SystemConfig:
    """A system config whose link carries DSC (the panel-side T-con is
    assumed DSC-capable)."""
    dsc = dsc or DscConfig()
    return replace(config, edp=dsc.effective_link(config.edp))


class DscLineCodec:
    """The functional fixed-rate line compressor.

    Per channel, each scan line is DPCM-coded *closed loop*: every
    4-bit symbol quantizes the difference between the true sample and
    the decoder's reconstruction of the previous one, so quantization
    error never accumulates.  The per-channel step size is chosen from
    the line's own dynamic range; the header carries the three steps and
    the first pixel verbatim.  Quality degrades gracefully with content
    difficulty but the output rate never exceeds the budget — the
    property real DSC guarantees the link layer.
    """

    #: Header: three per-channel step sizes + the first pixel verbatim.
    _HEADER_BYTES = 6

    def __init__(self, config: DscConfig | None = None) -> None:
        self.config = config or DscConfig()
        # The 4-bit symbol alphabet caps the functional codec at 2:1;
        # the *link* model (``with_dsc``) accepts the standard's 3:1.
        if self.config.ratio > 2.0:
            raise ConfigurationError(
                "the functional line codec supports ratios up to 2.0 "
                f"(got {self.config.ratio}); higher ratios are modeled "
                "at the link level only"
            )

    def budget(self, line_pixels: int) -> int:
        """The hard output budget for one line, in bytes: the
        rate-compressed payload plus the fixed header (for long lines
        the effective ratio converges to the nominal one)."""
        raw = line_pixels * 3
        return self._HEADER_BYTES + max(
            1, math.ceil(raw / self.config.ratio)
        )

    # -- encode ----------------------------------------------------------------

    def encode_line(self, line: np.ndarray) -> bytes:
        """Compress one scan line into at most :meth:`budget` bytes."""
        if line.ndim != 2 or line.shape[1] != 3:
            raise CodecError(
                f"a scan line must be Nx3, got {line.shape}"
            )
        if line.dtype != np.uint8:
            raise CodecError(f"scan lines are uint8, got {line.dtype}")
        pixels = line.shape[0]
        steps = []
        symbols = []
        for channel in range(3):
            samples = line[:, channel].astype(np.int32)
            if pixels > 1:
                peak = int(np.max(np.abs(np.diff(samples))))
            else:
                peak = 0
            step = max(1, math.ceil(peak / 7))
            steps.append(step)
            # Closed-loop DPCM: quantize against the reconstruction.
            reconstruction = int(samples[0])
            for sample in samples[1:]:
                error = int(sample) - reconstruction
                symbol = max(-8, min(7, round(error / step)))
                reconstruction += symbol * step
                symbols.append(symbol + 8)
        header = bytes(
            [min(255, s) for s in steps]
            + [int(line[0, c]) for c in range(3)]
        )
        payload = self._pack_nibbles(
            np.asarray(symbols, dtype=np.uint8)
        )
        encoded = header + payload
        if len(encoded) > self.budget(pixels):  # pragma: no cover
            raise CodecError("DSC line exceeded its fixed budget")
        return encoded

    def decode_line(self, payload: bytes, line_pixels: int) -> np.ndarray:
        """Invert :meth:`encode_line`."""
        if len(payload) < self._HEADER_BYTES:
            raise CodecError("truncated DSC line")
        steps = payload[0:3]
        first = payload[3:6]
        per_channel = line_pixels - 1
        nibbles = self._unpack_nibbles(
            payload[self._HEADER_BYTES:], 3 * per_channel
        )
        out = np.empty((line_pixels, 3), dtype=np.int32)
        for channel in range(3):
            symbols = nibbles[
                channel * per_channel:(channel + 1) * per_channel
            ].astype(np.int32) - 8
            deltas = symbols * int(steps[channel])
            out[0, channel] = first[channel]
            if per_channel:
                out[1:, channel] = first[channel] + np.cumsum(deltas)
        return np.clip(out, 0, 255).astype(np.uint8)

    # -- frame helpers -----------------------------------------------------------

    def encode_frame(self, frame: np.ndarray) -> list[bytes]:
        """Compress every line of an H x W x 3 frame."""
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise CodecError(f"frames must be HxWx3, got {frame.shape}")
        return [self.encode_line(row) for row in frame]

    def decode_frame(self, lines: list[bytes],
                     width: int) -> np.ndarray:
        """Invert :meth:`encode_frame`."""
        rows = [self.decode_line(line, width) for line in lines]
        return np.stack(rows, axis=0)

    def compressed_bytes(self, frame: np.ndarray) -> int:
        """Total compressed size of a frame (sums line payloads)."""
        return sum(len(line) for line in self.encode_frame(frame))

    # -- bit packing -----------------------------------------------------------

    @staticmethod
    def _pack_nibbles(values: np.ndarray) -> bytes:
        if len(values) % 2:
            values = np.append(values, 8)  # pad with a zero delta
        high = values[0::2].astype(np.uint8)
        low = values[1::2].astype(np.uint8)
        return ((high << 4) | low).tobytes()

    @staticmethod
    def _unpack_nibbles(payload: bytes, count: int) -> np.ndarray:
        raw = np.frombuffer(payload, dtype=np.uint8)
        values = np.empty(len(raw) * 2, dtype=np.uint8)
        values[0::2] = raw >> 4
        values[1::2] = raw & 0x0F
        if len(values) < count:
            raise CodecError("DSC payload shorter than the line")
        return values[:count]
