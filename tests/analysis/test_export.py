"""JSON/CSV serialization of runs, timelines, and reports."""

import csv
import io
import json

import pytest

from repro.analysis.export import (
    report_to_dict,
    run_to_dict,
    timeline_to_csv,
    timeline_to_records,
    to_json,
)
from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.errors import SimulationError
from repro.pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    Timeline,
)
from repro.power import PowerModel
from repro.video.source import AnalyticContentModel


@pytest.fixture(scope="module")
def run():
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, 6)
    return FrameWindowSimulator(config, BurstLinkScheme()).run(
        frames, 30.0, retain="full"
    )


@pytest.fixture(scope="module")
def report(run):
    return PowerModel().report(run)


class TestTimelineExport:
    def test_one_record_per_segment(self, run):
        records = timeline_to_records(run.timeline)
        assert len(records) == len(run.timeline)

    def test_records_are_json_serialisable(self, run):
        text = to_json(timeline_to_records(run.timeline))
        parsed = json.loads(text)
        assert parsed[0]["state"] == "C0"

    def test_csv_roundtrip(self, run):
        text = timeline_to_csv(run.timeline)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(run.timeline)
        assert float(rows[0]["start_s"]) == pytest.approx(0.0)

    def test_csv_durations_cover_run(self, run):
        rows = list(
            csv.DictReader(io.StringIO(timeline_to_csv(run.timeline)))
        )
        covered = sum(
            float(r["end_s"]) - float(r["start_s"]) for r in rows
        )
        assert covered == pytest.approx(run.duration)

    def test_empty_timeline_rejected(self):
        with pytest.raises(SimulationError):
            timeline_to_csv(Timeline())


class TestReportExport:
    def test_energy_fields_present(self, report):
        payload = report_to_dict(report)
        assert payload["average_power_mw"] == pytest.approx(
            report.average_power_mw
        )
        assert "C9" in payload["by_state"]
        assert payload["by_component_mj"]["panel"] > 0

    def test_state_fractions_sum_to_one(self, report):
        payload = report_to_dict(report)
        assert sum(
            row["residency_fraction"]
            for row in payload["by_state"].values()
        ) == pytest.approx(1.0)


class TestRunExport:
    def test_core_fields(self, run):
        payload = run_to_dict(run)
        assert payload["scheme"] == "burstlink"
        assert payload["panel"]["drfb"] is True
        assert payload["stats"]["windows"] == run.stats.windows
        assert "energy" not in payload

    def test_with_report_attached(self, run, report):
        payload = run_to_dict(run, report)
        assert payload["energy"]["average_power_mw"] == (
            pytest.approx(report.average_power_mw)
        )

    def test_round_trips_through_json(self, run, report):
        text = to_json(run_to_dict(run, report))
        parsed = json.loads(text)
        assert parsed["residency"]["C9"] > 0.5

    def test_summary_run_exports_like_full_run(self, run):
        frames = AnalyticContentModel().frames(FHD, 6)
        summary_run = FrameWindowSimulator(
            run.config, BurstLinkScheme()
        ).run(frames, 30.0, retain="summary")
        assert summary_run.timeline is None
        full = run_to_dict(run)
        summary = run_to_dict(summary_run)
        assert summary.keys() == full.keys()
        # A full run's accessors read its timeline, a summary run's its
        # class buckets: the same totals up to float re-association.
        for key, value in full.items():
            if key == "residency" or isinstance(value, float):
                assert summary[key] == pytest.approx(value, rel=1e-12)
            else:
                assert summary[key] == value, key

    def test_baseline_export_differs(self):
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 6)
        baseline = FrameWindowSimulator(
            config, ConventionalScheme()
        ).run(frames, 30.0)
        payload = run_to_dict(baseline)
        assert payload["panel"]["drfb"] is False
        assert "C9" not in payload["residency"]


class TestNonFiniteRejection:
    """Regression: NaN/inf must never reach an emitted artifact.

    ``json.dumps`` would happily write bare ``NaN`` (invalid JSON) and
    ``csv`` the string ``"nan"``; both are silent corruption for any
    downstream reader, so the exporters fail loudly instead."""

    def test_records_to_csv_rejects_nan(self):
        from repro.analysis.export import records_to_csv

        with pytest.raises(SimulationError, match="non-finite"):
            records_to_csv([{"a": 1.0}, {"a": float("nan")}])

    def test_records_to_csv_rejects_inf(self):
        from repro.analysis.export import records_to_csv

        with pytest.raises(SimulationError, match="non-finite"):
            records_to_csv([{"a": float("inf")}])

    def test_error_names_field_and_record(self):
        from repro.analysis.export import check_finite

        with pytest.raises(
            SimulationError, match=r"'power'.*record 1"
        ):
            check_finite(
                [{"power": 1.0}, {"power": float("-inf")}]
            )

    def test_to_json_rejects_nan(self):
        with pytest.raises(SimulationError, match="non-finite"):
            to_json({"value": float("nan")})

    def test_to_json_rejects_nested_inf(self):
        with pytest.raises(SimulationError, match="non-finite"):
            to_json({"rows": [{"value": float("inf")}]})

    def test_finite_payloads_unaffected(self):
        from repro.analysis.export import records_to_csv

        assert json.loads(to_json({"v": 1.5}))["v"] == 1.5
        assert records_to_csv([{"v": 1.5}]).splitlines() == [
            "v", "1.5",
        ]


class TestRecordsToCsv:
    def test_pinned_fieldnames_order(self):
        from repro.analysis.export import records_to_csv

        text = records_to_csv(
            [{"b": 2, "a": 1}], fieldnames=("a", "b")
        )
        assert text.splitlines()[0] == "a,b"

    def test_rejects_zero_records(self):
        from repro.analysis.export import records_to_csv

        with pytest.raises(SimulationError):
            records_to_csv([])
