"""End-to-end functional datapath: real bytes through every component.

A synthetic clip travels encode -> jitter buffer -> VD -> (P2P or DRAM)
-> DC -> eDP -> DRFB -> pixel formatter, with the traffic accounting
checked at every hop.  This is the integration test of the substrates
the energy model abstracts over.
"""

import numpy as np
import pytest

from repro.config import DisplayControllerConfig, PanelConfig, Resolution
from repro.display.controller import DisplayController
from repro.display.edp import EdpLink
from repro.display.panel import DisplayPanel
from repro.dram.framebuffer import FrameBufferManager
from repro.soc.interconnect import DmaEngine, Interconnect, P2PEngine
from repro.soc.registers import RegisterFile
from repro.units import gb_per_s, gib, kib
from repro.video.codec import Codec, CodecConfig
from repro.video.decoder import VideoDecoderIP
from repro.video.frames import DecodedFrame, FrameType, GopStructure


@pytest.fixture
def clip(small_clip):
    return small_clip[:4]


@pytest.fixture
def hardware():
    fabric = Interconnect()
    return {
        "fabric": fabric,
        "vd_port": fabric.attach("vd", gb_per_s(12.0)),
        "dc_port": fabric.attach("dc", gb_per_s(6.0)),
    }


def decode_all(decoder, encoded):
    decoded = {}
    anchors = []
    for frame in encoded:
        if frame.frame_type is FrameType.B:
            continue
        past = decoded[anchors[-1]].pixels if anchors else None
        decoded[frame.index] = decoder.decode(frame, past=past)
        anchors.append(frame.index)
    for frame in encoded:
        if frame.frame_type is not FrameType.B:
            continue
        past = max(a for a in anchors if a < frame.index)
        future = min(a for a in anchors if a > frame.index)
        decoded[frame.index] = decoder.decode(
            frame,
            past=decoded[past].pixels,
            future=decoded[future].pixels,
        )
    return [decoded[f.index] for f in encoded]


class TestBypassPath:
    def test_frame_travels_to_panel_without_dram(self, clip, hardware):
        codec = Codec(CodecConfig(qstep=10.0))
        encoded = codec.encode_sequence(clip)
        decoder = VideoDecoderIP(
            codec=codec, registers=RegisterFile.full_screen_video()
        )
        panel = DisplayPanel(
            PanelConfig(
                resolution=Resolution(96, 64), remote_buffers=2
            )
        )
        link = EdpLink()
        p2p = P2PEngine(hardware["vd_port"])

        for frame in decode_all(decoder, encoded):
            p2p.send(hardware["dc_port"], frame.size_bytes)
            link.transmit(frame.size_bytes, link.config.max_bandwidth)
            panel.receive_frame(frame.index, frame.size_bytes)
            panel.swap_buffers()
            panel.refresh()

        fabric = hardware["fabric"]
        assert fabric.dram_read_bytes == 0
        assert fabric.dram_write_bytes == 0
        assert fabric.p2p_bytes == sum(f.nbytes for f in clip)
        assert link.bytes_transferred == sum(f.nbytes for f in clip)
        assert panel.refreshes == len(clip)
        assert panel.remote_buffer.swaps == len(clip)

    def test_quality_preserved_through_pipeline(self, clip):
        codec = Codec(CodecConfig(qstep=8.0, gop=GopStructure("IPPP")))
        encoded = codec.encode_sequence(clip)
        decoder = VideoDecoderIP(codec=codec)
        decoded = decode_all(decoder, encoded)
        for original, output in zip(clip, decoded):
            reference = DecodedFrame(
                output.index, output.frame_type, original
            )
            assert output.psnr(reference) > 35.0


class TestConventionalPath:
    def test_frame_round_trips_dram(self, clip, hardware):
        """The conventional flow: VD DMA-writes the decoded frame, the
        DC DMA-reads it back chunk by chunk."""
        codec = Codec(CodecConfig(qstep=10.0))
        encoded = codec.encode_sequence(clip)
        decoder = VideoDecoderIP(codec=codec)  # no registers -> DRAM
        frame_bytes = clip[0].nbytes
        buffers = FrameBufferManager(dram_capacity=gib(1))
        buffers.allocate("video", frame_bytes, slots=2)
        dc = DisplayController(
            DisplayControllerConfig(
                buffer_size=kib(16), chunk_size=kib(8)
            )
        )
        vd_dma = DmaEngine(hardware["vd_port"])
        dc_dma = DmaEngine(hardware["dc_port"])

        for frame in decode_all(decoder, encoded):
            slot = buffers.region("video").acquire_slot()
            vd_dma.to_memory(frame.size_bytes)
            buffers.write("video", frame.size_bytes)
            # Chunked fetch through the DC's double buffer.
            remaining = frame.size_bytes
            while remaining > 0:
                chunk = min(dc.config.chunk_size, remaining)
                dc_dma.from_memory(chunk)
                buffers.read("video", chunk)
                dc.fill(chunk)
                dc.drain(chunk)
                remaining -= chunk
            buffers.region("video").release_slot(slot)

        fabric = hardware["fabric"]
        total = frame_bytes * len(clip)
        assert fabric.dram_write_bytes == total
        assert fabric.dram_read_bytes == total
        assert buffers.total_traffic == 2 * total
        assert dc.is_empty

    def test_decoder_destination_accounting(self, clip):
        codec = Codec(CodecConfig(qstep=10.0))
        encoded = codec.encode_sequence(clip)
        decoder = VideoDecoderIP(codec=codec)
        decode_all(decoder, encoded)
        assert decoder.bytes_to_dram == sum(f.nbytes for f in clip)
        assert decoder.bytes_to_dc == 0
