"""Cross-cutting instrumentation behavior: the traced hot paths stay
correct when tracing is on, silent when it is off."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.runner import SimulationCache, cache_disabled
from repro.config import FHD, skylake_tablet
from repro.errors import CodecError, DeadlineMissError
from repro.obs import trace
from repro.obs.trace import tracing
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import install_run_memo
from repro.video.codec import Codec
from repro.video.frames import EncodedFrame, FrameType
from repro.video.source import AnalyticContentModel


def _run(frame_count=2, seed=5, fps=30.0):
    frames = AnalyticContentModel().frames(FHD, frame_count, seed=seed)
    return FrameWindowSimulator(
        skylake_tablet(FHD), ConventionalScheme()
    ).run(frames, fps, retain="full")


class TestNoOpDefault:
    def test_untraced_run_emits_nothing(self):
        assert trace.active() is None
        with cache_disabled():
            run = _run()
        assert run.stats.windows > 0  # ran fine with tracing off

    def test_traced_and_untraced_runs_agree(self):
        with cache_disabled():
            plain = _run()
            with tracing():
                traced = _run()
        assert plain.stats == traced.stats
        assert list(plain.timeline) == list(traced.timeline)


class TestSimulatorTrace:
    def test_run_span_carries_stats(self):
        with cache_disabled(), tracing() as tracer:
            run = _run()
        begin = next(
            e for e in tracer.events
            if e["kind"] == "B" and e["name"] == "sim.run"
        )
        end = next(
            e for e in tracer.events
            if e["kind"] == "E" and e["span"] == begin["seq"]
        )
        assert end["attrs"]["windows"] == run.stats.windows
        assert end["attrs"]["psr_windows"] == run.stats.psr_windows
        assert end["t"] == pytest.approx(run.timeline.end)

    def test_cache_hit_skips_sim_span(self):
        cache = SimulationCache()
        previous = install_run_memo(cache)
        try:
            _run()
            with tracing() as tracer:
                _run()  # memoized: no simulation happens
        finally:
            install_run_memo(previous)
        names = [e["name"] for e in tracer.events]
        assert "cache.hit" in names
        assert "sim.run" not in names


class TestCodecTrace:
    def test_encode_decode_spans_balance(self):
        frame = np.zeros((32, 32, 3), dtype=np.uint8)
        codec = Codec()
        with tracing() as tracer:
            encoded, _ = codec.encode_frame(0, frame, FrameType.I)
            codec.decode_frame(encoded)
        assert tracer.open_spans == 0
        names = [
            e["name"] for e in tracer.events if e["kind"] == "B"
        ]
        assert names == ["codec.encode", "codec.decode"]
        phases = [
            e["attrs"]["phase"]
            for e in tracer.events
            if e["name"] == "codec.phase"
        ]
        assert phases == [
            "header", "macroblocks", "header", "macroblocks",
        ]

    def test_decode_error_closes_span(self):
        codec = Codec()
        bogus = EncodedFrame(
            index=0,
            frame_type=FrameType.I,
            width=32,
            height=32,
            payload=b"\x00\x00\x00\x00\x00\x00\x00\x00",
        )
        with tracing() as tracer:
            with pytest.raises(CodecError):
                codec.decode_frame(bogus)
            # The tracer must still accept balanced spans afterwards.
            with tracer.span("after"):
                pass
        assert tracer.open_spans == 0
        end = next(
            e for e in tracer.events
            if e["kind"] == "E" and "error" in e.get("attrs", {})
        )
        assert end["attrs"]["error"] == "CodecError"


class TestErrorTrace:
    def test_run_error_closes_span(self):
        """A strict run that misses a deadline raises out of the open
        ``sim.run`` span; the span is closed and names the error."""
        config = skylake_tablet(FHD)
        strict = dataclasses.replace(
            config,
            orchestration=dataclasses.replace(
                config.orchestration, baseline_per_frame=0.050
            ),
            strict_deadlines=True,
        )
        frames = AnalyticContentModel().frames(FHD, 2, seed=5)
        with tracing() as tracer:
            with pytest.raises(DeadlineMissError):
                FrameWindowSimulator(strict, ConventionalScheme()).run(
                    frames, 30.0
                )
            # The tracer must still accept balanced spans afterwards.
            with tracer.span("after"):
                pass
        assert tracer.open_spans == 0
        end = next(
            e for e in tracer.events
            if e["kind"] == "E" and "error" in e.get("attrs", {})
        )
        assert end["attrs"]["error"] == "DeadlineMissError"


class TestCliTraceIntegration:
    def test_figures_trace_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "figures",
                "--out", str(tmp_path / "figs"),
                "--trace", str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert '"name":"exhibit"' in text
        assert "wrote trace" in capsys.readouterr().out

    def test_trace_metrics_flag(self, capsys):
        from repro.cli import main

        assert main(["trace", "burstlink", "--metrics"]) == 0
        stdout = capsys.readouterr().out
        assert "sim.windows" in stdout
        assert "metric" in stdout
