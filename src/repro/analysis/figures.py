"""The declarative exhibit/figure registry.

Every paper exhibit declares, once, how its result object flattens into
tidy records (categorical key columns plus one quantitative ``value``
column), and how those records encode visually (mark + x/y/color/column
channels).  From that single declaration the registry emits:

* a **Vega-Lite JSON spec** (``<name>.vl.json``) — version-controllable
  text, renderable to PNG/PDF/SVG by any Vega toolchain;
* a **CSV data file** (``<name>.csv``) the spec references by URL;
* per-metric **keys** (``fig09.FHD.burstlink``) the statistical layer
  uses to collect multi-seed samples, and the hand-rolled SVG renderer
  (:mod:`repro.analysis.svg`) consumes to draw its charts — SVG is now
  one renderer among several, not the source of truth.

With ``seeds > 1`` the emission engine replays every exhibit under
shifted content seeds (through :mod:`repro.stats.replicate`, which
reuses the runner/dist/cache substrate), bootstraps a CI per metric
(:mod:`repro.stats.bootstrap`), widens the CSV with
``value_lo``/``value_hi``/``value_sd``/``seeds`` columns, and layers an
error bar over every spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigurationError, SimulationError
from .export import records_to_csv, to_json

#: The Vega-Lite schema every emitted spec declares.
VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: The CSV column holding the quantitative value.
VALUE_FIELD = "value"

#: Extra columns added in interval (``seeds > 1``) mode.
INTERVAL_FIELDS = ("value_lo", "value_hi", "value_sd", "seeds")


@dataclass(frozen=True)
class Channel:
    """One visual encoding channel."""

    field: str
    kind: str = "nominal"
    title: str = ""
    #: d3 format string for the axis (e.g. ``".0%"``).
    fmt: str | None = None

    def encoding(self) -> dict[str, Any]:
        enc: dict[str, Any] = {"field": self.field, "type": self.kind}
        if self.title:
            enc["title"] = self.title
        if self.fmt:
            enc["axis"] = {"format": self.fmt}
        return enc


@dataclass(frozen=True)
class Figure:
    """One exhibit's declaration: data extraction + visual encoding."""

    name: str
    #: Key into :func:`repro.analysis.runner.exhibit_registry`.
    exhibit: str
    title: str
    #: Categorical CSV columns, in order; ``value`` follows them.
    fields: tuple[str, ...]
    #: Exhibit result object -> tidy records.  Each record must carry
    #: every ``fields`` entry plus a finite ``value``.
    extract: Callable[[Any], list[dict[str, Any]]]
    mark: str = "bar"
    x: Channel = Channel("x")
    y: Channel = Channel(VALUE_FIELD, "quantitative")
    color: Channel | None = None
    #: Facet channel for three-way records (measure columns etc.).
    column: Channel | None = None

    def csv_name(self) -> str:
        return f"{self.name}.csv"

    def spec_name(self) -> str:
        return f"{self.name}.vl.json"


# ---------------------------------------------------------------------------
# Extraction functions — exhibit result object -> tidy records
# ---------------------------------------------------------------------------


def _rows(*triples: tuple[tuple[Any, ...], float],
          fields: tuple[str, ...]) -> list[dict[str, Any]]:
    return [
        {**dict(zip(fields, key)), VALUE_FIELD: float(value)}
        for key, value in triples
    ]


def _extract_fig01(result: Any) -> list[dict[str, Any]]:
    fields = ("resolution", "component")
    triples = []
    for name, (dram, display, others) in result.normalised.items():
        for component, share in (
            ("DRAM", dram), ("Display", display), ("Others", others)
        ):
            triples.append(((name, component), share))
    return _rows(*triples, fields=fields)


def _extract_timeline(result: Any) -> list[dict[str, Any]]:
    fields = ("fps", "state")
    triples = []
    for label, residencies in (
        ("30fps", result.residencies_30fps),
        ("60fps", result.residencies_60fps),
    ):
        for state in sorted(residencies, key=lambda s: s.depth):
            triples.append(((label, state.label), residencies[state]))
    return _rows(*triples, fields=fields)


def _extract_fig04(result: Any) -> list[dict[str, Any]]:
    return _rows(
        (("browsing",), result.browsing_power_mw),
        (("streaming",), result.streaming_power_mw),
        fields=("phase",),
    )


def _extract_table2(result: Any) -> list[dict[str, Any]]:
    fields = ("scheme", "state", "measure")
    triples = []
    for scheme, rows, avg_mw in (
        ("baseline", result.baseline_rows, result.baseline_avg_mw),
        ("burstlink", result.burstlink_rows, result.burstlink_avg_mw),
    ):
        for row in rows:
            triples.append(
                ((scheme, row.state.label, "residency_pct"),
                 100.0 * row.residency_fraction)
            )
            triples.append(
                ((scheme, row.state.label, "avg_mw"),
                 row.average_power_mw)
            )
        triples.append(((scheme, "all", "avg_mw"), avg_mw))
    return _rows(*triples, fields=fields)


def _extract_planar(result: Any) -> list[dict[str, Any]]:
    fields = ("resolution", "technique")
    triples = [
        ((resolution, technique), reduction)
        for resolution, per_technique in result.reductions.items()
        for technique, reduction in per_technique.items()
    ]
    return _rows(*triples, fields=fields)


def _extract_fig10(result: Any) -> list[dict[str, Any]]:
    fields = ("scheme", "resolution", "component")
    triples = []
    for scheme, breakdowns in (
        ("baseline", result.baseline),
        ("burstlink", result.burstlink),
    ):
        for resolution, bd in breakdowns.items():
            for component, mj in (
                ("DRAM", bd.dram_mj),
                ("Display", bd.display_mj),
                ("Others", bd.others_mj),
            ):
                triples.append(
                    ((scheme, resolution, component), mj)
                )
    return _rows(*triples, fields=fields)


def _extract_named_reductions(field: str):
    def extract(result: Any) -> list[dict[str, Any]]:
        return _rows(
            *(((name,), value)
              for name, value in result.reductions.items()),
            fields=(field,),
        )

    return extract


def _extract_sec64(result: Any) -> list[dict[str, Any]]:
    fields = ("technique", "measure")
    triples = []
    for technique in ("zhang", "vip", "burstlink"):
        triples.append(
            ((technique, "energy_reduction"),
             result.reductions[technique])
        )
        triples.append(
            ((technique, "dram_bw_reduction"),
             result.dram_bw_reduction[technique])
        )
    return _rows(*triples, fields=fields)


def _extract_fig14b(result: Any) -> list[dict[str, Any]]:
    fields = ("resolution", "workload")
    triples = [
        ((resolution, workload), reduction)
        for resolution, per_workload in result.reductions.items()
        for workload, reduction in per_workload.items()
    ]
    return _rows(*triples, fields=fields)


def _extract_standby(result: Any) -> list[dict[str, Any]]:
    fields = ("scheme", "measure")
    triples = []
    for scheme in ("conventional", "burstlink"):
        triples.append(
            ((scheme, "power_mw"), result.power_mw[scheme])
        )
        triples.append(
            ((scheme, "repeat_fraction"),
             result.repeat_fraction[scheme])
        )
    return _rows(*triples, fields=fields)


def _extract_oled(result: Any) -> list[dict[str, Any]]:
    fields = ("scheme", "brightness")
    triples = []
    for scheme in ("conventional", "burstlink"):
        for brightness in result.brightness_levels:
            triples.append(
                ((scheme, brightness),
                 result.power_mw[scheme][brightness])
            )
    return _rows(*triples, fields=fields)


def _extract_netstream(result: Any) -> list[dict[str, Any]]:
    fields = ("condition", "series", "measure")
    triples = []
    for condition in result.bandwidth_mbps:
        for scheme in ("conventional", "burstlink"):
            triples.append(
                ((condition, scheme, "power_mw"),
                 result.power_mw[condition][scheme])
            )
        triples.append(
            ((condition, "source", "stall_ratio"),
             result.stall_ratio[condition])
        )
    return _rows(*triples, fields=fields)


# ---------------------------------------------------------------------------
# The registry — every exhibit, in the paper's presentation order
# ---------------------------------------------------------------------------

_PCT = Channel(VALUE_FIELD, "quantitative", "energy reduction", ".0%")

FIGURES: dict[str, Figure] = {
    fig.name: fig
    for fig in (
        Figure(
            name="fig01", exhibit="fig01",
            title="Fig. 1 — energy vs resolution (norm. to FHD total)",
            fields=("resolution", "component"),
            extract=_extract_fig01,
            x=Channel("resolution", title="display resolution"),
            y=Channel(
                VALUE_FIELD, "quantitative",
                "share of FHD baseline energy", ".0%",
            ),
            color=Channel("component", title="component"),
        ),
        Figure(
            name="fig03", exhibit="fig03",
            title="Fig. 3 — conventional C-state residency",
            fields=("fps", "state"),
            extract=_extract_timeline,
            x=Channel("state", title="package C-state"),
            y=Channel(
                VALUE_FIELD, "quantitative", "residency", ".0%"
            ),
            color=Channel("fps", title="video rate"),
        ),
        Figure(
            name="fig04", exhibit="fig04",
            title="Fig. 4 — browsing vs streaming mean power",
            fields=("phase",),
            extract=_extract_fig04,
            x=Channel("phase", title="phase"),
            y=Channel(
                VALUE_FIELD, "quantitative", "average power (mW)"
            ),
        ),
        Figure(
            name="fig06", exhibit="fig06",
            title="Fig. 6 — Frame Buffer Bypass C-state residency",
            fields=("fps", "state"),
            extract=_extract_timeline,
            x=Channel("state", title="package C-state"),
            y=Channel(
                VALUE_FIELD, "quantitative", "residency", ".0%"
            ),
            color=Channel("fps", title="video rate"),
        ),
        Figure(
            name="fig07", exhibit="fig07",
            title="Fig. 7 — BurstLink C-state residency",
            fields=("fps", "state"),
            extract=_extract_timeline,
            x=Channel("state", title="package C-state"),
            y=Channel(
                VALUE_FIELD, "quantitative", "residency", ".0%"
            ),
            color=Channel("fps", title="video rate"),
        ),
        Figure(
            name="table2", exhibit="table2",
            title="Table 2 — per-C-state power/residency, FHD 30FPS",
            fields=("scheme", "state", "measure"),
            extract=_extract_table2,
            x=Channel("state", title="package C-state"),
            y=Channel(VALUE_FIELD, "quantitative", "value"),
            color=Channel("scheme", title="scheme"),
            column=Channel("measure", title="measure"),
        ),
        Figure(
            name="fig09", exhibit="fig09",
            title="Fig. 9 — energy reduction, 30 FPS",
            fields=("resolution", "technique"),
            extract=_extract_planar,
            x=Channel("resolution", title="display resolution"),
            y=_PCT,
            color=Channel("technique", title="technique"),
        ),
        Figure(
            name="fig10", exhibit="fig10",
            title="Fig. 10 — energy breakdown, baseline vs BurstLink",
            fields=("scheme", "resolution", "component"),
            extract=_extract_fig10,
            x=Channel("resolution", title="display resolution"),
            y=Channel(VALUE_FIELD, "quantitative", "energy (mJ)"),
            color=Channel("component", title="component"),
            column=Channel("scheme", title="scheme"),
        ),
        Figure(
            name="fig11a", exhibit="fig11a",
            title="Fig. 11a — VR energy reduction",
            fields=("workload",),
            extract=_extract_named_reductions("workload"),
            x=Channel("workload", title="VR workload"),
            y=_PCT,
        ),
        Figure(
            name="fig11b", exhibit="fig11b",
            title="Fig. 11b — Rhino reduction vs per-eye resolution",
            fields=("per_eye",),
            extract=_extract_named_reductions("per_eye"),
            x=Channel("per_eye", title="per-eye resolution"),
            y=_PCT,
        ),
        Figure(
            name="fig12", exhibit="fig12",
            title="Fig. 12 — energy reduction, 60 FPS",
            fields=("resolution", "technique"),
            extract=_extract_planar,
            x=Channel("resolution", title="display resolution"),
            y=_PCT,
            color=Channel("technique", title="technique"),
        ),
        Figure(
            name="fig13", exhibit="fig13",
            title="Fig. 13 — FBC vs BurstLink (60 Hz)",
            fields=("resolution", "technique"),
            extract=_extract_planar,
            x=Channel("resolution", title="display resolution"),
            y=_PCT,
            color=Channel("technique", title="technique"),
        ),
        Figure(
            name="sec64", exhibit="sec64",
            title="Sec. 6.4 — related techniques at 4K",
            fields=("technique", "measure"),
            extract=_extract_sec64,
            x=Channel("technique", title="technique"),
            y=Channel(
                VALUE_FIELD, "quantitative", "reduction", ".0%"
            ),
            column=Channel("measure", title="measure"),
        ),
        Figure(
            name="fig14a", exhibit="fig14a",
            title="Fig. 14a — local playback, Bypass only",
            fields=("display",),
            extract=_extract_named_reductions("display"),
            x=Channel("display", title="display mode"),
            y=_PCT,
        ),
        Figure(
            name="fig14b", exhibit="fig14b",
            title="Fig. 14b — Frame Bursting on mobile workloads",
            fields=("resolution", "workload"),
            extract=_extract_fig14b,
            x=Channel("resolution", title="display resolution"),
            y=_PCT,
            color=Channel("workload", title="workload"),
        ),
        Figure(
            name="standby", exhibit="standby",
            title="Standby — ambient screen-on power",
            fields=("scheme", "measure"),
            extract=_extract_standby,
            x=Channel("scheme", title="scheme"),
            y=Channel(VALUE_FIELD, "quantitative", "value"),
            column=Channel("measure", title="measure"),
        ),
        Figure(
            name="oled", exhibit="oled",
            title="OLED — brightness sweep, FHD 30 FPS",
            fields=("scheme", "brightness"),
            extract=_extract_oled,
            mark="line",
            x=Channel(
                "brightness", "quantitative", "panel brightness"
            ),
            y=Channel(
                VALUE_FIELD, "quantitative", "average power (mW)"
            ),
            color=Channel("scheme", title="scheme"),
        ),
        Figure(
            name="netstream", exhibit="netstream",
            title="Netstream — ABR playback vs network bandwidth",
            fields=("condition", "series", "measure"),
            extract=_extract_netstream,
            x=Channel("condition", title="bandwidth condition"),
            y=Channel(VALUE_FIELD, "quantitative", "value"),
            color=Channel("series", title="series"),
            column=Channel("measure", title="measure"),
        ),
    )
}

def figure_registry() -> dict[str, Figure]:
    """Every registered figure, in the paper's presentation order."""
    return dict(FIGURES)


def get_figure(name: str) -> Figure:
    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; known: {', '.join(FIGURES)}"
        )
    return FIGURES[name]


# ---------------------------------------------------------------------------
# Records, metric keys, and interval merging
# ---------------------------------------------------------------------------


def figure_records(
    figure: Figure, result: Any
) -> list[dict[str, Any]]:
    """Extract and validate the tidy records for one exhibit result."""
    records = figure.extract(result)
    if not records:
        raise SimulationError(
            f"figure {figure.name!r} extracted zero records"
        )
    expected = set(figure.fields) | {VALUE_FIELD}
    for record in records:
        if set(record) != expected:
            raise SimulationError(
                f"figure {figure.name!r} record fields {set(record)} "
                f"!= declared {expected}"
            )
        if not math.isfinite(record[VALUE_FIELD]):
            raise SimulationError(
                f"figure {figure.name!r} produced a non-finite value "
                f"for {metric_key(figure, record)}"
            )
    return records


def metric_key(figure: Figure, record: dict[str, Any]) -> str:
    """The stable per-metric key: figure name + categorical values."""
    return ".".join(
        [figure.name] + [str(record[f]) for f in figure.fields]
    )


def figure_metrics(figure: Figure, result: Any) -> dict[str, float]:
    """Every metric of one exhibit result, keyed for the stats layer."""
    return {
        metric_key(figure, record): record[VALUE_FIELD]
        for record in figure_records(figure, result)
    }


def merge_seed_records(
    figure: Figure,
    per_seed: list[list[dict[str, Any]]],
    confidence: float | None = None,
    resamples: int | None = None,
) -> list[dict[str, Any]]:
    """Fold per-seed record lists into one interval record list.

    Rows keep seed 0's order and categorical values; ``value`` becomes
    the across-seed mean and the :data:`INTERVAL_FIELDS` columns carry
    the bootstrap CI, sample SD, and seed count.
    """
    from ..stats import bootstrap

    kwargs: dict[str, Any] = {}
    if confidence is not None:
        kwargs["confidence"] = confidence
    if resamples is not None:
        kwargs["resamples"] = resamples
    reference = per_seed[0]
    keys = [metric_key(figure, record) for record in reference]
    samples: dict[str, list[float]] = {key: [] for key in keys}
    for seed_records in per_seed:
        seed_keys = {
            metric_key(figure, record): record[VALUE_FIELD]
            for record in seed_records
        }
        if set(seed_keys) != set(keys):
            raise SimulationError(
                f"figure {figure.name!r} record keys drifted across "
                "seeds; exhibits must produce the same categories "
                "for every seed"
            )
        for key in keys:
            samples[key].append(seed_keys[key])
    merged = []
    for record, key in zip(reference, keys):
        estimate = bootstrap.bootstrap_mean(
            samples[key], seed=bootstrap.stable_seed(key), **kwargs
        )
        merged.append(
            {
                **{f: record[f] for f in figure.fields},
                VALUE_FIELD: estimate.mean,
                "value_lo": estimate.lo,
                "value_hi": estimate.hi,
                "value_sd": estimate.sd,
                "seeds": estimate.n,
            }
        )
    return merged


# ---------------------------------------------------------------------------
# Emission: CSV + Vega-Lite spec
# ---------------------------------------------------------------------------


def figure_csv(
    figure: Figure, records: list[dict[str, Any]]
) -> str:
    """The records as CSV with a pinned column order."""
    fieldnames = list(figure.fields) + [VALUE_FIELD]
    if records and "value_lo" in records[0]:
        fieldnames += list(INTERVAL_FIELDS)
    return records_to_csv(records, fieldnames=fieldnames)


def vega_lite_spec(
    figure: Figure, interval: bool = False
) -> dict[str, Any]:
    """The figure's Vega-Lite spec, referencing its CSV by URL.

    ``interval`` layers an errorbar (from ``value_lo``/``value_hi``)
    over the primary mark; faceted figures wrap the layers in a
    ``facet``/``spec`` operator, since Vega-Lite forbids facet
    channels inside layered views.
    """
    encoding: dict[str, Any] = {
        "x": figure.x.encoding(),
        "y": figure.y.encoding(),
    }
    if figure.color is not None:
        encoding["color"] = figure.color.encoding()
        if figure.mark == "bar":
            encoding["xOffset"] = {"field": figure.color.field}
    base: dict[str, Any] = {
        "$schema": VEGA_LITE_SCHEMA,
        "title": figure.title,
        "description": (
            f"Exhibit {figure.exhibit}: {figure.title}. "
            "Generated by the repro figure registry."
        ),
        "data": {"url": figure.csv_name()},
    }
    if not interval:
        encoding_flat = dict(encoding)
        if figure.column is not None:
            encoding_flat["column"] = figure.column.encoding()
        return {
            **base,
            "mark": {"type": figure.mark},
            "encoding": encoding_flat,
        }
    error_encoding: dict[str, Any] = {
        "x": figure.x.encoding(),
        "y": {
            "field": "value_lo",
            "type": "quantitative",
            "title": figure.y.title or VALUE_FIELD,
        },
        "y2": {"field": "value_hi"},
    }
    if "xOffset" in encoding:
        error_encoding["xOffset"] = encoding["xOffset"]
    layers = [
        {"mark": {"type": figure.mark}, "encoding": encoding},
        {
            "mark": {"type": "errorbar", "ticks": True},
            "encoding": error_encoding,
        },
    ]
    if figure.column is not None:
        return {
            **base,
            "facet": {"column": figure.column.encoding()},
            "spec": {"layer": layers},
        }
    return {**base, "layer": layers}


def write_figure_files(
    output_dir: str | Path,
    figure: Figure,
    records: list[dict[str, Any]],
    interval: bool = False,
) -> list[Path]:
    """Write one figure's ``.vl.json`` + ``.csv`` pair."""
    output = Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)
    spec_path = output / figure.spec_name()
    csv_path = output / figure.csv_name()
    spec_path.write_text(
        to_json(vega_lite_spec(figure, interval=interval)) + "\n",
        encoding="utf-8",
    )
    csv_path.write_text(
        figure_csv(figure, records), encoding="utf-8"
    )
    return [spec_path, csv_path]


def write_exhibit_specs(
    output_dir: str | Path,
    names: tuple[str, ...] | list[str] | None = None,
    seeds: int = 1,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    confidence: float | None = None,
    resamples: int | None = None,
    metrics_sink: list | None = None,
) -> list[Path]:
    """Emit the Vega-Lite spec + CSV pair for every selected figure.

    ``seeds == 1`` regenerates each exhibit once (point estimates);
    ``seeds > 1`` replays the set under shifted content seeds through
    the replication engine and emits interval columns + error-band
    layers.  Returns the written paths, spec before CSV per figure.
    """
    if seeds < 1:
        raise ConfigurationError("seeds must be >= 1")
    selected = list(names) if names is not None else list(FIGURES)
    unknown = [n for n in selected if n not in FIGURES]
    if unknown:
        raise ConfigurationError(
            f"unknown figures: {', '.join(unknown)}"
        )
    exhibits = [FIGURES[n].exhibit for n in selected]
    if seeds == 1:
        from .runner import run_exhibits

        outcomes = run_exhibits(
            exhibits, jobs=jobs, cache_dir=cache_dir,
            progress=progress,
        )
        if metrics_sink is not None:
            metrics_sink.extend(o.metrics for o in outcomes)
        results = {o.name: o.result for o in outcomes}
        per_figure = {
            name: [figure_records(FIGURES[name], results[FIGURES[name].exhibit])]
            for name in selected
        }
        interval = False
    else:
        from ..stats.replicate import replicate_exhibits

        replication = replicate_exhibits(
            exhibits, seeds=seeds, jobs=jobs, cache_dir=cache_dir,
            progress=progress,
        )
        if metrics_sink is not None:
            metrics_sink.extend(
                o.metrics for o in replication.outcomes
            )
        per_figure = {
            name: [
                figure_records(FIGURES[name], result)
                for result in replication.results[FIGURES[name].exhibit]
            ]
            for name in selected
        }
        interval = True
    written: list[Path] = []
    for name in selected:
        figure = FIGURES[name]
        if interval:
            records = merge_seed_records(
                figure, per_figure[name],
                confidence=confidence, resamples=resamples,
            )
        else:
            records = per_figure[name][0]
        written.extend(
            write_figure_files(
                output_dir, figure, records, interval=interval
            )
        )
    return written
