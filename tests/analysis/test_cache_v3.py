"""Disk cache formats: run payloads write format 4 and older run
payloads (formats 2 and 3) still read."""

import json

import pytest

from repro.analysis.runner import (
    SimulationCache,
    cache_disabled,
    run_from_payload,
    run_to_payload,
)
from repro.config import FHD, skylake_tablet
from repro.errors import ConfigurationError
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.video.source import AnalyticContentModel


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

    def test_leftover_plan_files_ignored_and_cleared(self, tmp_path):
        """Format 3 also wrote ``<key>.plan.json`` plan entries.  Nothing
        reads them any more, and ``clear(disk=True)`` removes them."""
        leftover = tmp_path / "deadbeef.plan.json"
        leftover.write_text('{"format": 3, "kind": "plan"}', "utf-8")
        cache = SimulationCache(directory=tmp_path)
        assert cache.load("deadbeef") is None
        assert leftover.exists()
        cache.clear(disk=True)
        assert not leftover.exists()
