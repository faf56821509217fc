"""The paper-drift regression gate and its Sec. 5.3 accuracy table."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.cli import main
from repro.obs.drift import (
    ACCURACY_KEYS,
    DRIFT_SECTIONS,
    PAPER_EXPECTATIONS,
    Expectation,
    check_drift,
    expectations_for,
    measure_expectations,
)
from repro.power.calibration import SKYLAKE_TABLET_POWER


class TestExpectation:
    def test_band_from_absolute_tolerance(self):
        e = Expectation("k", "table2", "d", 40.0, "%", tol_abs=3.0)
        assert (e.low, e.high) == (37.0, 43.0)

    def test_band_from_relative_tolerance(self):
        e = Expectation("k", "table2", "d", 2000.0, "mW", tol_rel=0.05)
        assert e.tolerance == 100.0

    def test_requires_exactly_one_tolerance(self):
        with pytest.raises(ConfigurationError):
            Expectation("k", "s", "d", 1.0, "mW")
        with pytest.raises(ConfigurationError):
            Expectation(
                "k", "s", "d", 1.0, "mW", tol_abs=1.0, tol_rel=0.1
            )

    def test_check_flags_out_of_band(self):
        e = Expectation("k", "s", "d", 10.0, "%", tol_abs=1.0)
        assert e.check(10.5).ok
        assert not e.check(12.0).ok
        assert not e.check(float("nan")).ok

    def test_table_is_well_formed(self):
        keys = [e.key for e in PAPER_EXPECTATIONS]
        assert len(keys) == len(set(keys))
        assert {e.section for e in PAPER_EXPECTATIONS} == set(
            DRIFT_SECTIONS
        )


class TestSections:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            expectations_for(("table3",))
        with pytest.raises(ConfigurationError):
            measure_expectations(("nope",))

    def test_selection_filters(self):
        selected = expectations_for(("fig01",))
        assert selected and all(
            e.section == "fig01" for e in selected
        )


class TestCheckDrift:
    def test_supplied_actuals_pass(self):
        actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
        report = check_drift(actuals=actuals)
        assert report.ok and not report.skipped
        assert len(report.rows) == len(PAPER_EXPECTATIONS)

    def test_supplied_actuals_fail_out_of_band(self):
        actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
        actuals["table2.reduction_pct"] = 0.0
        report = check_drift(actuals=actuals)
        assert not report.ok
        assert [
            r.expectation.key for r in report.failures
        ] == ["table2.reduction_pct"]
        assert "FAIL" in report.summary()

    def test_missing_actuals_reported_as_skipped(self):
        report = check_drift(
            actuals={}, sections=("fig01",)
        )
        assert report.ok  # nothing measured, nothing failed
        assert set(report.skipped) == {
            e.key for e in expectations_for(("fig01",))
        }
        assert "skipped" in report.summary()

    def test_to_dict_shape(self):
        actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
        payload = check_drift(actuals=actuals).to_dict()
        assert payload["ok"] is True
        anchor = payload["anchors"][0]
        assert {
            "key", "section", "paper", "low", "high", "actual",
            "deviation", "ok",
        } <= set(anchor)


class TestLiveMeasurement:
    def test_table2_anchors_in_band(self):
        report = check_drift(sections=("table2",))
        assert report.ok, report.summary()
        assert len(report.rows) == 8

    def test_perturbed_power_constant_caught(self, monkeypatch):
        # The acceptance demonstration: perturbing one calibrated
        # constant must trip the gate.  The warm pass first proves a
        # cached run is still priced with the patched library.
        from repro.power import calibration

        assert check_drift(sections=("table2", "fig04")).ok
        monkeypatch.setattr(
            calibration,
            "SKYLAKE_TABLET_POWER",
            dataclasses.replace(
                SKYLAKE_TABLET_POWER,
                cpu_active=SKYLAKE_TABLET_POWER.cpu_active * 3,
            ),
        )
        report = check_drift(sections=("table2", "fig04"))
        assert not report.ok
        assert "fig04.streaming_avg_mw" in [
            r.expectation.key for r in report.failures
        ]
        assert "DRIFT" in report.summary()

    def test_summary_mentions_pass(self):
        report = check_drift(sections=("table2",))
        assert "drift gate: PASS" in report.summary()


class TestIntervalSemantics:
    """The uncertainty-aware gate: a CI that overlaps the paper band
    passes; one seed degenerates to exactly the point check."""

    def _expectation(self):
        return Expectation("k", "s", "d", 40.0, "%", tol_abs=3.0)

    def test_overlapping_ci_passes(self):
        from repro.stats.bootstrap import IntervalEstimate

        e = self._expectation()
        # Mean outside the band but CI reaching into it still passes —
        # the reproduction is *consistent* with the paper value.
        row = e.check_interval(IntervalEstimate(
            n=3, mean=44.0, sd=1.5, lo=42.5, hi=45.5,
        ))
        assert row.ok
        assert row.estimate is not None

    def test_disjoint_ci_fails(self):
        from repro.stats.bootstrap import IntervalEstimate

        e = self._expectation()
        row = e.check_interval(IntervalEstimate(
            n=3, mean=50.0, sd=1.0, lo=49.0, hi=51.0,
        ))
        assert not row.ok

    def test_single_seed_equals_point_check(self):
        from repro.stats.bootstrap import bootstrap_mean

        e = self._expectation()
        for value in (36.9, 37.0, 40.0, 43.0, 43.1):
            degenerate = e.check_interval(bootstrap_mean([value]))
            point = e.check(value)
            assert degenerate.ok == point.ok
            assert degenerate.actual == point.actual

    def test_non_finite_mean_fails(self):
        from repro.stats.bootstrap import IntervalEstimate

        e = self._expectation()
        nan = float("nan")
        row = e.check_interval(IntervalEstimate(
            n=2, mean=nan, sd=0.0, lo=nan, hi=nan,
        ))
        assert not row.ok


class TestCheckDriftInterval:
    def _samples(self, **overrides):
        samples = {
            e.key: [e.paper, e.paper] for e in PAPER_EXPECTATIONS
        }
        samples.update(overrides)
        return samples

    def test_supplied_samples_pass(self):
        from repro.obs.drift import check_drift_interval

        report = check_drift_interval(samples=self._samples())
        assert report.ok and report.interval
        assert len(report.rows) == len(PAPER_EXPECTATIONS)
        assert all(r.estimate.n == 2 for r in report.rows)

    def test_out_of_band_samples_fail(self):
        from repro.obs.drift import check_drift_interval

        report = check_drift_interval(samples=self._samples(
            **{"table2.reduction_pct": [0.0, 0.1]}
        ))
        assert not report.ok
        assert [r.expectation.key for r in report.failures] == [
            "table2.reduction_pct"
        ]

    def test_missing_anchor_skipped(self):
        from repro.obs.drift import check_drift_interval

        samples = self._samples()
        del samples["fig01.dram_share_fhd_pct"]
        report = check_drift_interval(samples=samples)
        assert report.ok
        assert report.skipped == ["fig01.dram_share_fhd_pct"]

    def test_summary_gains_ci_column_and_seed_count(self):
        from repro.obs.drift import check_drift_interval

        text = check_drift_interval(
            samples=self._samples()
        ).summary()
        assert "ci" in text.splitlines()[0]
        assert "CI overlap over 2 seeds" in text

    def test_point_summary_has_no_ci_column(self):
        actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
        text = check_drift(actuals=actuals).summary()
        assert "ci" not in text.splitlines()[0]
        assert "CI overlap" not in text

    def test_to_dict_carries_interval_fields(self):
        from repro.obs.drift import check_drift_interval

        payload = check_drift_interval(
            samples=self._samples()
        ).to_dict()
        assert payload["mode"] == "interval"
        anchor = payload["anchors"][0]
        assert {"lo", "hi", "tolerance", "ci"} <= set(anchor)
        assert anchor["ci"]["n"] == 2
        assert anchor["ci"]["lo"] <= anchor["ci"]["hi"]

    def test_point_to_dict_keeps_aliases_without_ci(self):
        actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
        payload = check_drift(actuals=actuals).to_dict()
        assert payload["mode"] == "point"
        anchor = payload["anchors"][0]
        assert {"lo", "hi", "tolerance"} <= set(anchor)
        assert "ci" not in anchor
        assert anchor["lo"] == anchor["low"]
        assert anchor["hi"] == anchor["high"]

    def test_live_two_seed_fig04_passes(self):
        from repro.obs.drift import check_drift_interval

        report = check_drift_interval(
            sections=("fig04",), seeds=2
        )
        assert report.ok, report.summary()
        assert report.interval
        assert all(r.estimate.n == 2 for r in report.rows)


def _row(paper, actual):
    return Expectation("k", "s", "d", paper, "mW", tol_abs=1.0).check(
        actual
    )


def _validation_report(**overrides):
    """A point report over table2 + fig04 with every anchor at its
    paper value except ``overrides`` (key -> fraction of paper)."""
    actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
    for key, fraction in overrides.items():
        actuals[key] *= fraction
    return check_drift(actuals=actuals, sections=("table2", "fig04"))


class TestAccuracy:
    def test_perfect_accuracy(self):
        assert _row(100.0, 100.0).accuracy == 1.0

    def test_ten_percent_error(self):
        assert _row(100.0, 110.0).accuracy == pytest.approx(0.9)

    def test_zero_paper_value(self):
        assert _row(0.0, 0.0).accuracy == 1.0
        assert _row(0.0, 5.0).accuracy == 0.0


class TestAccuracyTable:
    def test_keys_name_paper_expectations(self):
        known = {e.key for e in PAPER_EXPECTATIONS}
        assert len(set(ACCURACY_KEYS)) == 8
        assert set(ACCURACY_KEYS) <= known

    def test_mean_accuracy(self):
        report = _validation_report(**{"table2.baseline.avg_mw": 0.9})
        assert report.mean_accuracy == pytest.approx((7 + 0.9) / 8)

    def test_worst(self):
        report = _validation_report(**{"fig04.streaming_avg_mw": 0.5})
        worst = min(report.accuracy_rows(), key=lambda r: r.accuracy)
        assert worst.expectation.key == "fig04.streaming_avg_mw"
        assert worst.accuracy == pytest.approx(0.5)

    def test_empty_result(self):
        actuals = {e.key: e.paper for e in PAPER_EXPECTATIONS}
        report = check_drift(actuals=actuals, sections=("table2",))
        assert report.accuracy_rows() == []
        assert report.mean_accuracy == 0.0


class TestAgainstPaper:
    """The headline check: the reproduction achieves the paper's own
    claimed model accuracy (~96%) at the Sec. 5.3 anchors."""

    @pytest.fixture(scope="class")
    def report(self):
        return check_drift(sections=("table2", "fig04"))

    def _accuracy(self, report, key):
        row = next(
            r for r in report.accuracy_rows() if r.expectation.key == key
        )
        return row.accuracy

    def test_mean_accuracy_at_least_94_percent(self, report):
        assert report.mean_accuracy >= 0.94

    def test_every_anchor_at_least_80_percent(self, report):
        assert min(r.accuracy for r in report.accuracy_rows()) >= 0.80

    def test_all_eight_anchors_present(self, report):
        assert [
            r.expectation.key for r in report.accuracy_rows()
        ] == list(ACCURACY_KEYS)

    def test_baseline_avgp_within_5_percent(self, report):
        assert self._accuracy(report, "table2.baseline.avg_mw") >= 0.95

    def test_burstlink_avgp_within_6_percent(self, report):
        assert self._accuracy(report, "table2.burstlink.avg_mw") >= 0.94

    def test_summary_renders(self, report):
        text = report.accuracy_summary()
        assert "mean accuracy" in text
        assert "table2.baseline.avg_mw" in text

    def test_model_values_equal_actuals(self, report):
        actuals = {r.expectation.key: r.actual for r in report.rows}
        anchors = report.accuracy_dict()["anchors"]
        assert [a["key"] for a in anchors] == list(ACCURACY_KEYS)
        for anchor in anchors:
            assert anchor["model"] == actuals[anchor["key"]]


class TestValidateCommand:
    def test_table2_and_fig04_print_the_table(self, capsys):
        code = main(["validate", "--section", "table2", "--section", "fig04"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean accuracy" in out
        assert "drift gate: PASS (9 anchors in band)" in out

    def test_fig01_omits_the_table(self, capsys):
        code = main(["validate", "--section", "fig01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean accuracy" not in out
        assert "drift gate: PASS" in out
