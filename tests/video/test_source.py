"""The analytic content model and the jitter-buffer stream source."""

import dataclasses
import json

import pytest

from repro.config import FHD, UHD_4K
from repro.errors import BufferUnderflowError, ConfigurationError
from repro.video.frames import FrameType, GopStructure
from repro.video.source import (
    AnalyticContentModel,
    AnalyticFrameSource,
    ContentAttributes,
    ContentClass,
    FrameDescriptor,
    ListFrameSource,
    RepeatingFrameSource,
    StreamSource,
    as_frame_source,
    descriptor_from_payload,
)
from repro.units import mbps


class TestContentClass:
    def test_ordering(self):
        assert (
            ContentClass.SCREEN.bits_per_pixel
            < ContentClass.ANIMATION.bits_per_pixel
            < ContentClass.NATURAL.bits_per_pixel
            < ContentClass.HIGH_MOTION.bits_per_pixel
        )

    def test_natural_4k30_is_streaming_ladder_rate(self):
        """NATURAL at 4K30 lands near a 20 Mbps streaming rung."""
        bits_per_s = (
            ContentClass.NATURAL.bits_per_pixel * UHD_4K.pixels * 30
        )
        assert 15e6 < bits_per_s < 25e6


class TestAnalyticContentModel:
    def test_deterministic_per_seed(self):
        model = AnalyticContentModel()
        a = model.frames(FHD, 10, seed=3)
        b = model.frames(FHD, 10, seed=3)
        assert [f.encoded_bytes for f in a] == [
            f.encoded_bytes for f in b
        ]

    def test_different_seeds_differ(self):
        model = AnalyticContentModel()
        a = model.frames(FHD, 10, seed=1)
        b = model.frames(FHD, 10, seed=2)
        assert [f.encoded_bytes for f in a] != [
            f.encoded_bytes for f in b
        ]

    def test_i_frames_bigger_than_p(self):
        model = AnalyticContentModel(variability=0.0)
        frames = model.frames(FHD, 8)
        i_frames = [
            f for f in frames if f.frame_type is FrameType.I
        ]
        p_frames = [
            f for f in frames if f.frame_type is FrameType.P
        ]
        assert min(f.encoded_bytes for f in i_frames) > max(
            f.encoded_bytes for f in p_frames
        )

    def test_gop_average_matches_budget(self):
        model = AnalyticContentModel(variability=0.0)
        frames = model.frames(FHD, 40)
        mean = sum(f.encoded_bytes for f in frames) / len(frames)
        assert mean == pytest.approx(
            model.average_encoded_bytes(FHD), rel=0.05
        )

    def test_decoded_size_is_raw_frame(self):
        frames = AnalyticContentModel().frames(FHD, 1)
        assert frames[0].decoded_bytes == FHD.frame_bytes()

    def test_types_follow_gop(self):
        model = AnalyticContentModel(gop=GopStructure("IPBP"))
        frames = model.frames(FHD, 8)
        assert [f.frame_type.value for f in frames] == [
            "I", "P", "B", "P", "I", "P", "B", "P",
        ]

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalyticContentModel().frames(FHD, -1)

    def test_descriptor_validation(self):
        with pytest.raises(ConfigurationError):
            FrameDescriptor(0, FrameType.I, 0, 100)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_descriptor_rejects_non_finite_sizes(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FrameDescriptor(0, FrameType.P, bad, 3e6)
        with pytest.raises(ConfigurationError, match="finite"):
            FrameDescriptor(0, FrameType.P, 3e5, bad)

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_payload_rejects_non_finite_sizes(self, token):
        # json.loads accepts these tokens, so they reach the serve plane.
        payload = json.loads(
            f'{{"type": "P", "encoded_bytes": {token}, '
            f'"decoded_bytes": 3e6}}'
        )
        with pytest.raises(ConfigurationError, match="finite"):
            descriptor_from_payload(payload)


class TestFrameSources:
    def test_list_source_round_trip(self):
        frames = AnalyticContentModel().frames(FHD, 5, seed=2)
        source = ListFrameSource(tuple(frames))
        assert len(source) == 5
        assert list(source) == frames
        assert source.fingerprint_token() == (
            "frames/list", tuple(frames)
        )

    def test_repeating_source_reindexes(self):
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        source = RepeatingFrameSource(frame, 4)
        out = list(source)
        assert len(source) == 4
        assert [f.index for f in out] == [0, 1, 2, 3]
        assert all(
            f.encoded_bytes == frame.encoded_bytes for f in out
        )

    @pytest.mark.parametrize(
        "attributes", [None, ContentAttributes(apl=0.85, bitrate_tier=2)]
    )
    def test_repeating_copies_equal_replace(self, attributes):
        frame = dataclasses.replace(
            AnalyticContentModel().frames(FHD, 1)[0],
            index=7, attributes=attributes,
        )
        assert list(RepeatingFrameSource(frame, 3)) == [
            dataclasses.replace(frame, index=index) for index in range(3)
        ]

    def test_repeating_content_run_matches_iteration(self):
        """``content_run(i)`` is frame ``i`` of the iteration and the
        length of the rest of the run; nothing lies outside the count."""
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        source = RepeatingFrameSource(frame, 5)
        assert [source.content_run(i) for i in range(5)] == [
            (copy, 5 - copy.index) for copy in source
        ]
        assert source.content_run(5) is None
        assert source.content_run(-1) is None

    def test_list_content_run_claims_one_frame(self):
        frames = AnalyticContentModel().frames(FHD, 3, seed=2)
        source = ListFrameSource(frames)
        assert [source.content_run(i) for i in range(3)] == [
            (frame, 1) for frame in frames
        ]
        assert source.content_run(3) is None
        assert source.content_run(-1) is None

    @pytest.mark.parametrize("kind", ["list", "repeat"])
    def test_index_access_matches_iteration(self, kind):
        """``source[i]`` and ``source[a:b]`` read the iteration's
        frames, with sequence bounds and negative indices."""
        frames = AnalyticContentModel().frames(FHD, 5, seed=2)
        source = (
            ListFrameSource(frames) if kind == "list"
            else RepeatingFrameSource(frames[0], 5)
        )
        iterated = tuple(source)
        assert tuple(source[i] for i in range(5)) == iterated
        assert source[-1] == iterated[-1]
        assert source[1:4] == iterated[1:4]
        assert source[3:9] == iterated[3:]
        assert source[5:9] == ()
        with pytest.raises(IndexError):
            source[5]

    def test_repeating_fingerprint_is_constant_size(self):
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        small = RepeatingFrameSource(frame, 2).fingerprint_token()
        huge = RepeatingFrameSource(frame, 10**9).fingerprint_token()
        assert small[:2] == huge[:2]
        assert small != huge

    def test_repeating_count_validated(self):
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        with pytest.raises(ConfigurationError):
            RepeatingFrameSource(frame, 0)

    def test_analytic_source_matches_materialized(self):
        model = AnalyticContentModel()
        source = AnalyticFrameSource(model, FHD, 8, seed=3)
        assert len(source) == 8
        assert list(source) == model.frames(FHD, 8, seed=3)
        # Iterating twice restarts the stream identically.
        assert list(source) == list(source)

    def test_iter_frames_matches_frames(self):
        model = AnalyticContentModel()
        assert list(model.iter_frames(FHD, 10, seed=9)) == (
            model.frames(FHD, 10, seed=9)
        )

    def test_as_frame_source_coerces_lists(self):
        frames = AnalyticContentModel().frames(FHD, 3)
        coerced = as_frame_source(frames)
        assert isinstance(coerced, ListFrameSource)
        assert list(coerced) == frames

    def test_as_frame_source_passes_sources_through(self):
        frame = AnalyticContentModel().frames(FHD, 1)[0]
        source = RepeatingFrameSource(frame, 2)
        assert as_frame_source(source) is source

    def test_as_frame_source_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            as_frame_source(42)


def make_source(bandwidth=mbps(20), fluctuation=0.25, count=20,
                prebuffer=4):
    frames = AnalyticContentModel().frames(FHD, count)
    return StreamSource(
        frames=frames,
        bandwidth=bandwidth,
        fluctuation=fluctuation,
        prebuffer_frames=prebuffer,
    )


class TestStreamSource:
    def test_startup_delay_covers_prebuffer(self):
        source = make_source()
        assert source.startup_delay > 0

    def test_delivery_advances_buffer(self):
        source = make_source()
        written = source.deliver_until(source.startup_delay)
        assert written > 0
        assert source.delivered >= source.prebuffer_frames

    def test_pop_after_prebuffer_has_no_underrun(self):
        source = make_source(bandwidth=mbps(100))
        start = source.startup_delay
        for i in range(10):
            source.pop_frame(start + 0.1 + i / 30)
        assert source.underruns == 0

    def test_slow_network_underruns(self):
        # 1 Mbps cannot feed an FHD NATURAL stream at 30 FPS.
        source = make_source(bandwidth=mbps(1), prebuffer=1)
        for i in range(10):
            source.pop_frame(i / 30)
        assert source.underruns > 0

    def test_exhaustion(self):
        source = make_source(count=2, prebuffer=1)
        source.pop_frame(10.0)
        source.pop_frame(10.0)
        assert source.exhausted
        with pytest.raises(BufferUnderflowError):
            source.pop_frame(10.0)

    def test_deterministic_arrivals(self):
        a = make_source()
        b = make_source()
        assert a._arrival_times == b._arrival_times

    def test_fluctuation_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            make_source(fluctuation=1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            make_source(bandwidth=0)

    def test_buffered_bytes_tracks_occupancy(self):
        source = make_source(bandwidth=mbps(100))
        source.deliver_until(1.0)
        occupancy = source.buffered_bytes
        source.pop_frame(1.0)
        assert source.buffered_bytes < occupancy
