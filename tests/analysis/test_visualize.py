"""Text-art timeline rendering."""

import pytest

from repro.analysis.visualize import (
    render_lanes,
    render_residency_bars,
    render_strip,
    render_window_report,
)
from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.errors import SimulationError
from repro.pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    Timeline,
)
from repro.video.source import AnalyticContentModel


@pytest.fixture(scope="module")
def burstlink_run():
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, 4)
    return FrameWindowSimulator(config, BurstLinkScheme()).run(
        frames, 30.0, retain="full"
    )


@pytest.fixture(scope="module")
def baseline_run():
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, 4)
    return FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, 30.0, retain="full"
    )


class TestStrip:
    def test_bounded_width(self, burstlink_run):
        strip = render_strip(burstlink_run.timeline, width=60)
        # Width is approximate (one rounded cell per segment) but must
        # stay near the requested size.
        assert 40 <= len(strip) <= 140

    def test_labels_appear(self, burstlink_run):
        strip = render_strip(burstlink_run.timeline, width=100)
        assert "C9" in strip

    def test_delimited(self, burstlink_run):
        strip = render_strip(burstlink_run.timeline)
        assert strip.startswith("|") and strip.endswith("|")

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            render_strip(Timeline())

    def test_tiny_width_rejected(self, burstlink_run):
        with pytest.raises(SimulationError):
            render_strip(burstlink_run.timeline, width=4)


class TestLanes:
    def test_one_lane_per_state(self, baseline_run):
        lanes = render_lanes(baseline_run.timeline)
        lines = lanes.splitlines()
        assert [line.split()[0] for line in lines] == [
            "C0", "C2", "C8",
        ]

    def test_every_column_covered(self, baseline_run):
        """Time is fully covered: every column belongs to at least one
        lane (short segments can share a column, so lanes may overlap
        at boundaries but never leave gaps)."""
        lanes = render_lanes(baseline_run.timeline, width=60)
        rows = [
            line.split("|")[1] for line in lanes.splitlines()
        ]
        for column in range(60):
            marks = sum(1 for row in rows if row[column] != " ")
            assert marks >= 1

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            render_lanes(Timeline())


class TestResidencyBars:
    def test_percentages_shown(self, burstlink_run):
        bars = render_residency_bars(burstlink_run.timeline)
        assert "%" in bars
        assert "C9" in bars

    def test_dominant_state_longest_bar(self, burstlink_run):
        bars = render_residency_bars(burstlink_run.timeline, width=40)
        lengths = {
            line.split()[0]: len(line.split("|")[1])
            for line in bars.splitlines()
        }
        assert max(lengths, key=lengths.get) == "C9"


class TestWindowReport:
    def test_one_line_per_window(self, burstlink_run):
        report = render_window_report(
            burstlink_run.timeline, 1 / 60
        )
        assert len(report.splitlines()) == (
            burstlink_run.stats.windows
        )

    def test_fig7_shape_visible(self, burstlink_run):
        report = render_window_report(
            burstlink_run.timeline, 1 / 60
        )
        first = report.splitlines()[0]
        second = report.splitlines()[1]
        assert "C7" in first and "C9" in first
        assert "C7" not in second  # the repeat window is pure C9

    def test_bad_window_rejected(self, burstlink_run):
        with pytest.raises(SimulationError):
            render_window_report(burstlink_run.timeline, 0)
