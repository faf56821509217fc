"""Substrate micro-benchmarks: the functional codec and the frame-window
simulator themselves (how fast the reproduction machinery runs, not a
paper exhibit).

The simulator benches run with memoization disabled — they time the raw
simulator, not a cache load.
"""

import numpy as np

from repro.analysis.runner import cache_disabled
from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.video.codec import Codec, CodecConfig
from repro.video.frames import FrameType
from repro.video.source import AnalyticContentModel

#: Frames per simulated run.
_SIM_FRAMES = 120


def _test_frame(size=96):
    ys, xs = np.mgrid[0:size, 0:size]
    base = (xs * 3 + ys * 2) % 256
    return np.stack(
        [base, 255 - base, base // 2], axis=-1
    ).astype(np.uint8)


def test_codec_encode_throughput(benchmark):
    codec = Codec(CodecConfig(qstep=12.0))
    frame = _test_frame()

    encoded, _ = benchmark(
        codec.encode_frame, 0, frame, FrameType.I
    )
    pixels = frame.shape[0] * frame.shape[1]
    print(f"\nencoded {pixels} px -> {encoded.size_bytes} B")


def test_codec_decode_throughput(benchmark):
    codec = Codec(CodecConfig(qstep=12.0))
    encoded, _ = codec.encode_frame(0, _test_frame(), FrameType.I)

    decoded = benchmark(codec.decode_frame, encoded)
    print(f"\ndecoded to {decoded.size_bytes} B")


def test_simulator_throughput_baseline(benchmark):
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        with cache_disabled():
            return FrameWindowSimulator(
                config, ConventionalScheme()
            ).run(frames, 60.0)

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s)")


def test_simulator_throughput_burstlink(benchmark):
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        with cache_disabled():
            return FrameWindowSimulator(
                config, BurstLinkScheme()
            ).run(frames, 60.0)

    result = benchmark(run)
    print(f"\n{result.stats.windows} windows simulated")


def test_simulator_unique_frames(benchmark):
    """Unique-frame video at ``retain="summary"``: every new-frame
    window plans fresh, so planning and the summary fold dominate."""
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        with cache_disabled():
            return FrameWindowSimulator(config, BurstLinkScheme()).run(
                frames, 60.0, retain="summary"
            )

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s, unique frames)")


def test_simulator_standby(benchmark):
    """The walker's best case: a repeating ambient frame where nearly
    every window replays one plan."""
    from repro.core.burstlink import BurstLinkScheme as _BL
    from repro.workloads.standby import (
        AmbientStandbyWorkload,
        ambient_standby_run,
    )

    workload = AmbientStandbyWorkload(duration_s=60.0)

    def run():
        with cache_disabled():
            return ambient_standby_run(workload, _BL())

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s, ambient standby)")
