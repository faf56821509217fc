"""The declarative figure registry: extraction, metric keys, interval
merging, Vega-Lite emission, and golden byte-pinning.

Regenerating the pinned specs/CSVs (after an intentional change)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_figures.py

then review the diff of ``tests/golden/specs/*`` like any other code
change before committing.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.figures import (
    INTERVAL_FIELDS,
    VALUE_FIELD,
    VEGA_LITE_SCHEMA,
    Figure,
    figure_csv,
    figure_metrics,
    figure_records,
    figure_registry,
    get_figure,
    merge_seed_records,
    metric_key,
    vega_lite_spec,
    write_figure_files,
)
from repro.analysis.runner import (
    exhibit_registry,
    run_exhibit,
    run_exhibits,
)
from repro.analysis.vega import spec_problems, validate_spec
from repro.errors import ConfigurationError, SimulationError

GOLDEN_DIR = (
    Path(__file__).resolve().parent.parent / "golden" / "specs"
)

#: The exhibits whose emitted spec + CSV are byte-pinned.
PINNED = ("table2", "fig09", "standby", "oled", "netstream")


def _maybe_update(path: Path, text: str) -> bool:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return True
    return False


def _assert_matches_golden(path: Path, text: str) -> None:
    _maybe_update(path, text)
    assert path.exists(), (
        f"missing golden {path}; regenerate with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    assert path.read_bytes() == text.encode("utf-8"), (
        f"emitted figure artifact drifted from {path}; if the change "
        "is intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and "
        "review the diff"
    )


@pytest.fixture(scope="module")
def pinned_records():
    return {
        name: figure_records(
            get_figure(name),
            run_exhibit(get_figure(name).exhibit).result,
        )
        for name in PINNED
    }


class TestRegistry:
    def test_every_exhibit_has_a_figure(self):
        assert set(
            figure.exhibit for figure in figure_registry().values()
        ) == set(exhibit_registry())

    def test_eighteen_figures(self):
        assert len(figure_registry()) == 18

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError):
            get_figure("fig99")

    def test_names_match_keys(self):
        assert all(
            name == figure.name
            for name, figure in figure_registry().items()
        )


class TestRecords:
    def test_records_carry_declared_fields(self, pinned_records):
        figure = get_figure("table2")
        for record in pinned_records["table2"]:
            assert set(record) == set(figure.fields) | {VALUE_FIELD}

    def test_metric_keys_unique_per_figure(self, pinned_records):
        for name, records in pinned_records.items():
            figure = get_figure(name)
            keys = [metric_key(figure, r) for r in records]
            assert len(keys) == len(set(keys))

    def test_metric_key_format(self):
        figure = get_figure("fig09")
        key = metric_key(
            figure,
            {"resolution": "FHD", "technique": "burstlink",
             VALUE_FIELD: 0.4},
        )
        assert key == "fig09.FHD.burstlink"

    def test_figure_metrics_values(self, pinned_records):
        figure = get_figure("standby")
        metrics = figure_metrics(
            figure, run_exhibit("standby").result
        )
        assert metrics == {
            metric_key(figure, r): r[VALUE_FIELD]
            for r in pinned_records["standby"]
        }

    def test_rejects_wrong_fields(self):
        figure = Figure(
            name="bad", exhibit="fig04", title="t",
            fields=("phase",), extract=lambda r: [{"oops": 1.0}],
        )
        with pytest.raises(SimulationError):
            figure_records(figure, object())

    def test_rejects_non_finite_value(self):
        figure = Figure(
            name="bad", exhibit="fig04", title="t",
            fields=("phase",),
            extract=lambda r: [
                {"phase": "a", VALUE_FIELD: float("nan")}
            ],
        )
        with pytest.raises(SimulationError):
            figure_records(figure, object())

    def test_rejects_zero_records(self):
        figure = Figure(
            name="bad", exhibit="fig04", title="t",
            fields=("phase",), extract=lambda r: [],
        )
        with pytest.raises(SimulationError):
            figure_records(figure, object())


class TestMergeSeedRecords:
    def _records(self, value):
        return [{"phase": "browsing", VALUE_FIELD: value}]

    def test_interval_columns(self):
        figure = get_figure("fig04")
        merged = merge_seed_records(
            figure,
            [
                [{"phase": "a", VALUE_FIELD: 10.0},
                 {"phase": "b", VALUE_FIELD: 1.0}],
                [{"phase": "a", VALUE_FIELD: 12.0},
                 {"phase": "b", VALUE_FIELD: 3.0}],
            ],
        )
        assert [r["phase"] for r in merged] == ["a", "b"]
        first = merged[0]
        assert set(first) == {
            "phase", VALUE_FIELD, *INTERVAL_FIELDS,
        }
        assert first[VALUE_FIELD] == pytest.approx(11.0)
        assert first["seeds"] == 2
        assert first["value_lo"] <= 11.0 <= first["value_hi"]

    def test_deterministic(self):
        figure = get_figure("fig04")
        per_seed = [self._records(10.0), self._records(12.0)]
        assert merge_seed_records(
            figure, per_seed
        ) == merge_seed_records(figure, per_seed)

    def test_rejects_key_drift_across_seeds(self):
        figure = get_figure("fig04")
        with pytest.raises(SimulationError):
            merge_seed_records(
                figure,
                [
                    self._records(10.0),
                    [{"phase": "other", VALUE_FIELD: 1.0}],
                ],
            )


class TestCsvEmission:
    def test_pinned_column_order(self, pinned_records):
        text = figure_csv(
            get_figure("table2"), pinned_records["table2"]
        )
        assert text.splitlines()[0] == "scheme,state,measure,value"

    def test_interval_columns_appended(self):
        figure = get_figure("fig04")
        merged = merge_seed_records(
            figure,
            [
                [{"phase": "a", VALUE_FIELD: 10.0}],
                [{"phase": "a", VALUE_FIELD: 12.0}],
            ],
        )
        header = figure_csv(figure, merged).splitlines()[0]
        assert header == (
            "phase,value,value_lo,value_hi,value_sd,seeds"
        )


class TestSpecEmission:
    def test_every_spec_is_structurally_valid(self):
        for name, figure in figure_registry().items():
            for interval in (False, True):
                spec = vega_lite_spec(figure, interval=interval)
                assert spec_problems(spec) == [], name
                assert spec["$schema"] == VEGA_LITE_SCHEMA
                assert spec["data"] == {"url": f"{name}.csv"}

    def test_interval_spec_layers_errorbar(self):
        spec = vega_lite_spec(get_figure("fig09"), interval=True)
        marks = [layer["mark"]["type"] for layer in spec["layer"]]
        assert marks == ["bar", "errorbar"]
        error = spec["layer"][1]["encoding"]
        assert error["y"]["field"] == "value_lo"
        assert error["y2"]["field"] == "value_hi"

    def test_faceted_interval_spec_uses_facet_operator(self):
        spec = vega_lite_spec(get_figure("table2"), interval=True)
        assert "facet" in spec and "layer" in spec["spec"]
        assert "encoding" not in spec

    def test_grouped_bars_get_x_offset(self):
        spec = vega_lite_spec(get_figure("fig09"))
        assert spec["encoding"]["xOffset"] == {"field": "technique"}

    def test_validate_spec_raises_on_problems(self):
        with pytest.raises(SimulationError):
            validate_spec({"$schema": "wrong"}, "broken")


class TestGoldenArtifacts:
    """The emitted spec + CSV pair is version-controlled text; these
    pins catch any unintended change to either the declarations or the
    simulated numbers."""

    @pytest.mark.parametrize("name", PINNED)
    def test_spec_matches_golden(self, name):
        figure = get_figure(name)
        text = (
            json.dumps(
                vega_lite_spec(figure),
                indent=2, sort_keys=True, allow_nan=False,
            )
            + "\n"
        )
        _assert_matches_golden(
            GOLDEN_DIR / figure.spec_name(), text
        )

    @pytest.mark.parametrize("name", PINNED)
    def test_csv_matches_golden(self, name, pinned_records):
        figure = get_figure(name)
        text = figure_csv(figure, pinned_records[name])
        _assert_matches_golden(GOLDEN_DIR / figure.csv_name(), text)

    def test_interval_spec_matches_golden(self):
        figure = get_figure("fig09")
        text = (
            json.dumps(
                vega_lite_spec(figure, interval=True),
                indent=2, sort_keys=True, allow_nan=False,
            )
            + "\n"
        )
        _assert_matches_golden(
            GOLDEN_DIR / "fig09.interval.vl.json", text
        )


class TestBatchParity:
    def test_fanned_out_records_equal_pinned_records(self, pinned_records):
        """The pins read ``run_exhibit``; ``repro figures`` reads the
        fan-out.  Both run summary-first, so the records agree exactly."""
        (outcome,) = run_exhibits(["fig09"], jobs=2)
        assert figure_records(
            get_figure("fig09"), outcome.result
        ) == pinned_records["fig09"]


class TestWriteFigureFiles:
    def test_writes_spec_then_csv(self, tmp_path, pinned_records):
        figure = get_figure("fig09")
        written = write_figure_files(
            tmp_path, figure, pinned_records["fig09"]
        )
        assert [p.name for p in written] == [
            "fig09.vl.json", "fig09.csv",
        ]
        spec = json.loads(written[0].read_text(encoding="utf-8"))
        assert spec_problems(spec) == []
        header = written[1].read_text(
            encoding="utf-8"
        ).splitlines()[0]
        assert header == "resolution,technique,value"


class TestRenderFigure:
    """The terminal renderer over the registry — third renderer beside
    SVG and Vega-Lite."""

    def test_point_records(self, pinned_records):
        from repro.analysis.visualize import render_figure

        figure = get_figure("fig09")
        text = render_figure(figure, pinned_records["fig09"])
        lines = text.splitlines()
        assert lines[0] == figure.title
        assert len(lines) == 1 + len(pinned_records["fig09"])
        assert "FHD burstlink" in text
        assert "%" in lines[1] and "|#" in lines[1]

    def test_interval_records_append_ci(self):
        from repro.analysis.visualize import render_figure

        figure = get_figure("fig04")
        merged = merge_seed_records(
            figure,
            [
                [{"phase": "a", VALUE_FIELD: 10.0}],
                [{"phase": "a", VALUE_FIELD: 12.0}],
            ],
        )
        text = render_figure(figure, merged)
        assert "n=2" in text and "[" in text

    def test_rejects_degenerate_input(self):
        from repro.analysis.visualize import render_figure
        from repro.errors import SimulationError as SimError

        figure = get_figure("fig04")
        with pytest.raises(SimError):
            render_figure(figure, [])
        with pytest.raises(SimError):
            render_figure(
                figure,
                [{"phase": "a", VALUE_FIELD: 1.0}],
                width=4,
            )
