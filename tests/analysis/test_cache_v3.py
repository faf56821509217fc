"""Disk cache formats: run payloads write and read format 4 only; an
older payload is a stale entry."""

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

    @pytest.mark.parametrize("older", [1, 2, 3])
    def test_older_format_runs_rejected(self, older, tmp_path):
        """An older payload does not read, and a cache directory
        holding one reads it as a miss and removes the file."""
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(
                AnalyticContentModel().frames(FHD, 4, seed=1), 30.0,
                retain="full",
            )
        payload = json.loads(json.dumps(run_to_payload(run)))
        payload["format"] = older
        # Formats 2 and 3 had no content-attribute columns.
        for record in payload["segments"]:
            del record[14:]
        for record in payload["summary"]["buckets"]:
            del record[16:]
        with pytest.raises(ConfigurationError):
            run_from_payload(payload)
        path = tmp_path / "deadbeef.json"
        path.write_text(json.dumps(payload), "utf-8")
        assert SimulationCache(directory=tmp_path).load("deadbeef") is None
        assert not path.exists()

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
