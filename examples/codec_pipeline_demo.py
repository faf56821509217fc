#!/usr/bin/env python3
"""Functional datapath demo: a real frame travels the whole pipeline.

Everything here moves actual bytes: a synthetic clip is encoded with the
macroblock codec (I/P/B frames, motion vectors, Exp-Golomb entropy
coding), buffered through the DRAM jitter buffer, decoded by the VD IP —
whose destination selector routes the output — pushed through the
interconnect's P2P path into the display controller, burst over the eDP
link into the panel's DRFB, and scanned out by the pixel formatter.

Run:  python examples/codec_pipeline_demo.py
"""

import numpy as np

from repro.config import PanelConfig, Resolution
from repro.display.edp import EdpLink
from repro.display.panel import DisplayPanel
from repro.soc.interconnect import Interconnect
from repro.soc.registers import RegisterFile
from repro.units import gb_per_s, to_ms
from repro.video.codec import Codec, CodecConfig
from repro.video.decoder import VideoDecoderIP
from repro.video.frames import DecodedFrame, GopStructure


def make_clip(width: int, height: int, count: int) -> list[np.ndarray]:
    """A moving-gradient clip with a drifting bright blob."""
    frames = []
    ys, xs = np.mgrid[0:height, 0:width]
    for t in range(count):
        base = (xs * 2 + ys * 3 + 7 * t) % 256
        blob = 90 * np.exp(
            -(((xs - 20 - 3 * t) ** 2 + (ys - 24) ** 2) / 120.0)
        )
        frame = np.stack(
            [base, 255 - base, (base + blob) % 256], axis=-1
        ) + blob[..., None] * 0.3
        frames.append(np.clip(frame, 0, 255).astype(np.uint8))
    return frames


def main() -> None:
    resolution = Resolution(96, 64, "demo")
    clip = make_clip(resolution.width, resolution.height, 8)

    # Encode with an IPBP GOP.
    codec = Codec(CodecConfig(qstep=10.0, gop=GopStructure("IPBP")))
    encoded = codec.encode_sequence(clip)
    total_encoded = sum(e.size_bytes for e in encoded)
    print(f"Encoded {len(encoded)} frames: {total_encoded} bytes "
          f"({clip[0].nbytes * len(clip) / total_encoded:.1f}x "
          f"compression)")
    for frame in encoded:
        print(f"  frame {frame.index}: {frame.frame_type.value} "
              f"{frame.size_bytes:5d} B")

    # The hardware assembly: fabric, VD with bypass-eligible registers,
    # eDP link, and a DRFB panel.
    fabric = Interconnect()
    vd_port = fabric.attach("vd", gb_per_s(12.0))
    dc_port = fabric.attach("dc", gb_per_s(6.0))
    registers = RegisterFile.full_screen_video()
    decoder = VideoDecoderIP(codec=codec, registers=registers)
    panel = DisplayPanel(
        PanelConfig(resolution=resolution, remote_buffers=2)
    )
    link = EdpLink()

    # Decode in coding order (anchors before the B frames that
    # bi-predict from them), then display in presentation order through
    # P2P -> eDP -> DRFB -> scan-out.
    from repro.soc.interconnect import P2PEngine
    from repro.video.frames import FrameType

    decoded: dict[int, DecodedFrame] = {}
    anchors: list[int] = []
    for enc in encoded:
        if enc.frame_type is FrameType.B:
            continue
        past = decoded[anchors[-1]].pixels if anchors else None
        decoded[enc.index] = decoder.decode(enc, past=past)
        anchors.append(enc.index)
    for enc in encoded:
        if enc.frame_type is not FrameType.B:
            continue
        past_anchor = max(a for a in anchors if a < enc.index)
        future_anchor = min(a for a in anchors if a > enc.index)
        decoded[enc.index] = decoder.decode(
            enc,
            past=decoded[past_anchor].pixels,
            future=decoded[future_anchor].pixels,
        )

    p2p = P2PEngine(vd_port)
    for enc in encoded:
        frame = decoded[enc.index]
        p2p.send(dc_port, frame.size_bytes)  # Frame Buffer Bypass
        transfer = link.transmit(frame.size_bytes, link.config.max_bandwidth)
        panel.receive_frame(enc.index, frame.size_bytes)
        panel.swap_buffers()
        scanned = panel.refresh()
        print(f"  displayed frame {enc.index}: burst "
              f"{to_ms(transfer.duration):.3f} ms, scanned "
              f"{scanned:.0f} B from the DRFB")

    # Quality + datapath accounting.
    worst = min(
        decoded[e.index].psnr(
            DecodedFrame(e.index, e.frame_type, clip[e.index])
        )
        for e in encoded
    )
    print(f"\nWorst-frame PSNR: {worst:.1f} dB")
    print(f"DRAM bytes via fabric: {fabric.dram_read_bytes:.0f} read / "
          f"{fabric.dram_write_bytes:.0f} written "
          f"(bypass moved {fabric.p2p_bytes:.0f} B peer-to-peer)")
    print(f"Decoder routed {decoder.bytes_to_dc:.0f} B to the DC and "
          f"{decoder.bytes_to_dram:.0f} B to DRAM")
    print(f"Panel DRFB swaps: {panel.remote_buffer.swaps}, "
          f"refreshes: {panel.refreshes}")


if __name__ == "__main__":
    main()
