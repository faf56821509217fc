"""Disk cache format 3: plan payloads and backward-compatible reads."""

import json

import pytest

from repro.analysis.runner import (
    SimulationCache,
    cache_disabled,
    plan_from_payload,
    plan_to_payload,
    run_from_payload,
    run_to_payload,
)
from repro.config import FHD, skylake_tablet
from repro.errors import ConfigurationError
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.batch import CachedPlan
from repro.display.timing import WindowKind, WindowPlan
from repro.pipeline.sim import WindowContext
from repro.pipeline.timeline import TimelineSummary
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


def _plan():
    """One real planned window as a CachedPlan."""
    config = skylake_tablet(FHD)
    frame = AnalyticContentModel().frames(FHD, 1, seed=3)[0]
    window = WindowPlan(
        index=0, start=0.0, duration=1 / 60.0,
        kind=WindowKind.NEW_FRAME, frame_index=0,
    )
    result = ConventionalScheme().plan_window(
        WindowContext(
            config=config, window=window, frame=frame, vr=None,
            initial_state=PackageCState.C0,
        )
    )
    return CachedPlan(
        start=window.start,
        result=result,
        digest=TimelineSummary.window_digest(
            result.timeline, "new_frame", window.duration
        ),
        final_state=result.timeline.segments[-1].state,
    )


class TestPlanPayload:
    def test_round_trip_is_exact(self):
        plan = _plan()
        payload = json.loads(json.dumps(plan_to_payload(plan)))
        rebuilt = plan_from_payload(payload)
        assert rebuilt.start == plan.start
        assert rebuilt.final_state is plan.final_state
        assert list(rebuilt.result.timeline) == list(
            plan.result.timeline
        )
        assert rebuilt.result.deadline_missed == (
            plan.result.deadline_missed
        )
        assert rebuilt.result.used_psr == plan.result.used_psr
        assert rebuilt.digest.buckets == plan.digest.buckets
        assert rebuilt.digest.window_counts == (
            plan.digest.window_counts
        )
        assert rebuilt.digest.end == plan.digest.end

    def test_wrong_format_rejected(self):
        payload = plan_to_payload(_plan())
        payload["format"] = 2
        with pytest.raises(ConfigurationError):
            plan_from_payload(payload)

    def test_run_payload_rejected_as_plan(self):
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(
                AnalyticContentModel().frames(FHD, 4, seed=1), 30.0
            )
        with pytest.raises(ConfigurationError):
            plan_from_payload(run_to_payload(run))


class TestFormatCompatibility:
    def test_run_payloads_write_format_4(self):
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(
                AnalyticContentModel().frames(FHD, 4, seed=1), 30.0
            )
        assert run_to_payload(run)["format"] == 4

    def test_older_format_runs_still_read(self):
        """A cache directory written before the bump stays warm: format
        4 only appends content-attribute columns, which older payloads
        read back as zero — exactly what a content-agnostic run wrote."""
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(
                AnalyticContentModel().frames(FHD, 4, seed=1), 30.0
            )
        for older in (2, 3):
            payload = json.loads(json.dumps(run_to_payload(run)))
            payload["format"] = older
            for record in payload["segments"]:
                del record[14:]
            rebuilt = run_from_payload(payload)
            assert rebuilt.stats == run.stats
            assert list(rebuilt.timeline) == list(run.timeline)

    def test_format_1_runs_rejected(self):
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(
                AnalyticContentModel().frames(FHD, 4, seed=1), 30.0
            )
        payload = run_to_payload(run)
        payload["format"] = 1
        with pytest.raises(ConfigurationError):
            run_from_payload(payload)


class TestPlanDiskLayer:
    def test_store_and_cold_load(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        plan = _plan()
        cache.store_plan("deadbeef", plan)
        assert (tmp_path / "deadbeef.plan.json").exists()
        cold = SimulationCache(directory=tmp_path)
        loaded = cold.load_plan("deadbeef")
        assert loaded is not None
        assert cold.stats.plan_disk_hits == 1
        assert list(loaded.result.timeline) == list(
            plan.result.timeline
        )

    def test_corrupt_plan_reads_as_miss(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        path = tmp_path / "deadbeef.plan.json"
        path.write_text('{"format": 3, "kind": "pl', "utf-8")
        assert cache.load_plan("deadbeef") is None
        assert cache.stats.plan_misses == 1
        # The corrupt file was dropped so the next store rewrites it.
        assert not path.exists()

    def test_plan_lru_eviction(self):
        cache = SimulationCache(capacity=1)
        assert cache.plan_capacity == 8
        plan = _plan()
        for index in range(10):
            cache.store_plan(f"key{index}", plan)
        assert cache.load_plan("key0") is None
        assert cache.load_plan("key9") is not None

    def test_loads_are_defensive_copies(self):
        cache = SimulationCache()
        cache.store_plan("k", _plan())
        first = cache.load_plan("k")
        first.digest.buckets.clear()
        second = cache.load_plan("k")
        assert second.digest.buckets

    def test_clear_drops_plans(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        cache.store_plan("k", _plan())
        cache.clear(disk=True)
        assert cache.load_plan("k") is None
        assert not list(tmp_path.glob("*.plan.json"))
