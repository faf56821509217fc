"""Determinism: every experiment must reproduce itself exactly.

Reproduction work is worthless if two runs disagree; all randomness in
the stack is seeded (content sizes, head traces, browsing activity), so
identical calls must return identical numbers — bit-for-bit, not just
approximately.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.experiments import (
    fig09_planar_reduction_30fps,
    fig11a_vr_workloads,
    table2_power_comparison,
)
from repro.analysis.figures import figure_csv, figure_records, get_figure
from repro.analysis.runner import cache_disabled, run_exhibits
from repro.config import FHD, skylake_tablet
from repro.pipeline.sim import run_fingerprint
from repro.core import BurstLinkScheme
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.power import PowerModel
from repro.video.source import AnalyticContentModel
from repro.workloads.browsing import browsing_timeline
from repro.workloads.scenario import streaming_session

SPECS = Path(__file__).resolve().parent.parent / "golden" / "specs"


class TestRunDeterminism:
    def test_identical_runs_identical_energy(self):
        def once():
            config = skylake_tablet(FHD).with_drfb()
            frames = AnalyticContentModel().frames(FHD, 12, seed=5)
            run = FrameWindowSimulator(config, BurstLinkScheme()).run(
                frames, 30.0
            )
            return PowerModel().report(run).total_energy_mj

        assert once() == once()

    def test_identical_timelines_segment_for_segment(self):
        def once():
            config = skylake_tablet(FHD)
            frames = AnalyticContentModel().frames(FHD, 8, seed=3)
            return FrameWindowSimulator(
                config, ConventionalScheme()
            ).run(frames, 60.0, retain="full").timeline

        a, b = once(), once()
        assert len(a) == len(b)
        for left, right in zip(a, b):
            assert left == right


class TestExperimentDeterminism:
    def test_table2_reproduces(self):
        first = table2_power_comparison()
        second = table2_power_comparison()
        assert first.baseline_avg_mw == second.baseline_avg_mw
        assert first.burstlink_avg_mw == second.burstlink_avg_mw

    def test_fig09_reproduces(self):
        assert (
            fig09_planar_reduction_30fps().reductions
            == fig09_planar_reduction_30fps().reductions
        )

    def test_fig11a_reproduces(self):
        assert (
            fig11a_vr_workloads(frame_count=8).reductions
            == fig11a_vr_workloads(frame_count=8).reductions
        )


class TestEngineParity:
    """The parallel + cached engine must change nothing but the clock."""

    EXHIBITS = ("fig01", "fig09", "table2")

    def test_cached_matches_uncached(self):
        with cache_disabled():
            plain = run_exhibits(self.EXHIBITS)
        cached_cold = run_exhibits(self.EXHIBITS)
        cached_warm = run_exhibits(self.EXHIBITS)
        for a, b, c in zip(plain, cached_cold, cached_warm):
            assert a.result == b.result == c.result

    def test_parallel_matches_sequential(self):
        sequential = run_exhibits(self.EXHIBITS, jobs=1)
        parallel = run_exhibits(self.EXHIBITS, jobs=2)
        assert [o.name for o in parallel] == list(self.EXHIBITS)
        for a, b in zip(sequential, parallel):
            assert a.result == b.result

    def test_seed_offsets_interleave_without_reset(self):
        """Offsets are arguments, not process state: interleaved offsets
        in one process reproduce each other at one worker and at two,
        and offset 0 is the pinned canonical figure."""
        names = ("table2", "oled")
        passes: dict[int, set[tuple[str, ...]]] = {}
        for jobs in (1, 2):
            for offset in (2, 0, 1, 0):
                outcomes = run_exhibits(
                    names, jobs=jobs, seed_offset=offset
                )
                passes.setdefault(offset, set()).add(
                    tuple(
                        figure_csv(
                            get_figure(o.name),
                            figure_records(get_figure(o.name), o.result),
                        )
                        for o in outcomes
                    )
                )
        assert all(len(texts) == 1 for texts in passes.values())
        assert len({texts for (texts,) in passes.values()}) == 3
        (canonical,) = passes[0]
        for name, text in zip(names, canonical):
            pinned = SPECS / get_figure(name).csv_name()
            assert text.encode("utf-8") == pinned.read_bytes()

    def test_memoized_run_equals_fresh_run(self):
        config = skylake_tablet(FHD).with_drfb()
        frames = AnalyticContentModel().frames(FHD, 10, seed=7)

        def once():
            return FrameWindowSimulator(
                config, BurstLinkScheme()
            ).run(frames, 30.0, retain="full")

        with cache_disabled():
            fresh = once()
        cold, warm = once(), once()
        for run in (cold, warm):
            assert run.stats == fresh.stats
            assert list(run.timeline) == list(fresh.timeline)
            assert (
                PowerModel().report(run).total_energy_mj
                == PowerModel().report(fresh).total_energy_mj
            )


class TestCacheInvalidation:
    """Any change to any run input must change the fingerprint."""

    @staticmethod
    def _fingerprint(config, frames, fps=30.0, scheme=None):
        key = run_fingerprint(
            config, scheme or BurstLinkScheme(), frames, fps
        )
        assert key is not None
        return key

    def test_config_field_change_invalidates(self):
        frames = AnalyticContentModel().frames(FHD, 4, seed=1)
        base = skylake_tablet(FHD).with_drfb()
        baseline = self._fingerprint(base, frames)
        assert self._fingerprint(base, frames) == baseline
        assert self._fingerprint(
            skylake_tablet(FHD), frames
        ) != baseline

    def test_cadence_and_frames_invalidate(self):
        config = skylake_tablet(FHD).with_drfb()
        frames = AnalyticContentModel().frames(FHD, 4, seed=1)
        baseline = self._fingerprint(config, frames)
        assert self._fingerprint(config, frames, fps=60.0) != baseline
        other = AnalyticContentModel().frames(FHD, 4, seed=2)
        assert self._fingerprint(config, other) != baseline

    def test_scheme_identity_invalidates(self):
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 4, seed=1)
        assert self._fingerprint(
            config, frames, scheme=BurstLinkScheme()
        ) != self._fingerprint(
            config, frames, scheme=ConventionalScheme()
        )


    def test_key_is_independent_of_hash_seed(self):
        """Pool workers and their parent share one disk cache, so a key
        that followed the interpreter's hash order would miss silently
        in every process but the one that stored it."""
        script = (
            "import dataclasses\n"
            "from repro.config import FHD, skylake_tablet\n"
            "from repro.core import BurstLinkScheme\n"
            "from repro.pipeline.sim import VrWork, run_fingerprint\n"
            "from repro.video.source import (\n"
            "    AnalyticContentModel, ContentAttributes)\n"
            "frames = [\n"
            "    dataclasses.replace(frame, attributes=ContentAttributes(\n"
            "        apl=0.1 * (i % 10), bitrate_tier=i % 3,\n"
            "        stalled=i % 7 == 0))\n"
            "    for i, frame in enumerate(\n"
            "        AnalyticContentModel().frames(FHD, 12, seed=3))\n"
            "]\n"
            "vr_work = [VrWork(2.0e7 + i, 0.004, 8.0e6) for i in range(12)]\n"
            "print(run_fingerprint(\n"
            "    skylake_tablet(FHD).with_drfb(), BurstLinkScheme(),\n"
            "    frames, 30.0, vr_work=vr_work))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        keys = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
                check=True,
            )
            keys.add(done.stdout.strip())
        assert len(keys) == 1
        assert len(keys.pop()) == 64


class TestGeneratorDeterminism:
    def test_browsing_timeline_reproduces(self):
        config = skylake_tablet(FHD)
        a = browsing_timeline(config, duration_s=1.0, seed=4)
        b = browsing_timeline(config, duration_s=1.0, seed=4)
        assert [s.state for s in a] == [s.state for s in b]

    def test_scenario_reproduces(self):
        a = streaming_session(skylake_tablet(FHD)).play()
        b = streaming_session(skylake_tablet(FHD)).play()
        assert a.average_power_mw == b.average_power_mw
        assert a.scheme_sequence() == b.scheme_sequence()
