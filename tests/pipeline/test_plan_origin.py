"""Every window is planned from time zero, so one plan is the same
segment list wherever in the stream it is made.

A plan made at a window's absolute start could land its float sums just
short of the window end and fill the rest with a ~1e-17 s segment, and
whether it did depended on the start.  Planned from zero, exported
timelines hold no such dust, and a summary run counts exactly the
segments a full run retains.
"""

import csv
import io

import pytest

from repro.cli import main
from repro.cli._helpers import _SCHEMES, _config_for
from repro.config import FHD
from repro.pipeline import FrameWindowSimulator
from repro.video.source import AnalyticContentModel

SCHEMES = sorted(_SCHEMES)


@pytest.mark.parametrize("fps", ["30", "60"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_export_holds_no_dust_segments(capsys, scheme, fps):
    assert main(["export", scheme, "--fps", fps, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows
    dust = [
        row for row in rows
        if float(row["end_s"]) - float(row["start_s"]) < 1e-12
    ]
    assert dust == []


@pytest.mark.parametrize("fps", [30.0, 60.0])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_summary_and_full_runs_count_the_same_segments(scheme, fps):
    factory, needs_drfb = _SCHEMES[scheme]
    config = _config_for(FHD, needs_drfb)
    frames = AnalyticContentModel().frames(FHD, 30)

    def segment_counts(retain):
        run = FrameWindowSimulator(config, factory()).run(
            frames, fps, retain=retain
        )
        return run, {
            cls_key: totals.segments
            for cls_key, totals in run.summary.buckets.items()
        }

    full, full_counts = segment_counts("full")
    _, summary_counts = segment_counts("summary")
    assert full_counts == summary_counts
    assert sum(full_counts.values()) == len(full.timeline)
