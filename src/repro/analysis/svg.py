"""Dependency-free SVG chart rendering — the paper's figures as files.

The benches print the numbers; this module draws them.  A small grouped
bar-chart renderer (hand-emitted SVG, no plotting stack required
offline) plus :func:`write_figures`, which regenerates the headline
evaluation figures as ``figNN_*.svg`` so the reproduction produces
actual figure artifacts (``python -m repro figures --out figures/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` escaped,
    as ``xml.sax.saxutils.escape`` does (importing that loads
    ``urllib``, ``http`` and ``ssl``, several MB per process)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(
        ">", "&gt;"
    )


#: A colour cycle that survives grayscale printing.
_PALETTE = ("#4878a8", "#e49444", "#6aa46a", "#b05555", "#8064a2")


@dataclass
class BarChart:
    """A grouped bar chart."""

    title: str
    categories: list[str]
    #: series label -> one value per category.
    series: dict[str, list[float]] = field(default_factory=dict)
    y_label: str = ""
    #: Values are fractions to render as percentages.
    percent: bool = False
    width: int = 640
    height: int = 360

    def __post_init__(self) -> None:
        if not self.categories:
            raise ConfigurationError("a chart needs categories")
        if not self.series:
            raise ConfigurationError("a chart needs at least one series")
        for label, values in self.series.items():
            if len(values) != len(self.categories):
                raise ConfigurationError(
                    f"series {label!r} has {len(values)} values for "
                    f"{len(self.categories)} categories"
                )
        if self.width < 200 or self.height < 120:
            raise ConfigurationError("chart too small to render")

    # -- rendering ------------------------------------------------------------

    def to_svg(self) -> str:
        """The chart as a standalone SVG document."""
        margin_left, margin_right = 64, 16
        margin_top, margin_bottom = 40, 56
        plot_w = self.width - margin_left - margin_right
        plot_h = self.height - margin_top - margin_bottom

        peak = max(
            max(values) for values in self.series.values()
        )
        peak = max(peak, 1e-12)
        scale = 1.05 * peak

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" '
            f'fill="white"/>',
            f'<text x="{self.width / 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" '
            f'font-weight="bold">{_escape(self.title)}</text>',
        ]

        # Y axis with four gridlines.
        for tick in range(5):
            value = scale * tick / 4
            y = margin_top + plot_h * (1 - tick / 4)
            label = (
                f"{value * 100:.0f}%" if self.percent else f"{value:.0f}"
            )
            parts.append(
                f'<line x1="{margin_left}" y1="{y:.1f}" '
                f'x2="{margin_left + plot_w}" y2="{y:.1f}" '
                f'stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{margin_left - 6}" y="{y + 4:.1f}" '
                f'text-anchor="end" font-family="sans-serif" '
                f'font-size="10">{label}</text>'
            )
        if self.y_label:
            parts.append(
                f'<text x="14" y="{margin_top + plot_h / 2:.1f}" '
                f'font-family="sans-serif" font-size="11" '
                f'text-anchor="middle" transform="rotate(-90 14 '
                f'{margin_top + plot_h / 2:.1f})">'
                f"{_escape(self.y_label)}</text>"
            )

        # Bars.
        group_w = plot_w / len(self.categories)
        bar_w = group_w * 0.8 / len(self.series)
        for series_index, (label, values) in enumerate(
            self.series.items()
        ):
            colour = _PALETTE[series_index % len(_PALETTE)]
            for category_index, value in enumerate(values):
                bar_h = plot_h * max(0.0, value) / scale
                x = (
                    margin_left
                    + category_index * group_w
                    + group_w * 0.1
                    + series_index * bar_w
                )
                y = margin_top + plot_h - bar_h
                parts.append(
                    f'<rect x="{x:.1f}" y="{y:.1f}" '
                    f'width="{bar_w:.1f}" height="{bar_h:.1f}" '
                    f'fill="{colour}"/>'
                )

        # Category labels.
        for category_index, category in enumerate(self.categories):
            x = margin_left + (category_index + 0.5) * group_w
            parts.append(
                f'<text x="{x:.1f}" y="{margin_top + plot_h + 16}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="11">{_escape(category)}</text>'
            )

        # Legend.
        legend_x = margin_left
        legend_y = self.height - 14
        for series_index, label in enumerate(self.series):
            colour = _PALETTE[series_index % len(_PALETTE)]
            parts.append(
                f'<rect x="{legend_x}" y="{legend_y - 9}" width="10" '
                f'height="10" fill="{colour}"/>'
            )
            parts.append(
                f'<text x="{legend_x + 14}" y="{legend_y}" '
                f'font-family="sans-serif" font-size="11">'
                f"{_escape(label)}</text>"
            )
            legend_x += 24 + 7 * len(label)

        parts.append("</svg>")
        return "\n".join(parts)


#: The exhibits the figure set draws from, in emission order.
FIGURE_EXHIBITS = ("fig01", "fig09", "fig12", "fig11a", "fig13", "fig14b")

#: SVG presentation of each headline figure: output filename, y-axis
#: label, and the series label used when the registry declares no
#: color channel (single-series charts).  Data extraction and chart
#: structure come from the figure registry
#: (:mod:`repro.analysis.figures`); only rendering choices live here —
#: SVG is one renderer over the registry, beside the Vega-Lite/CSV
#: emitter.
_SVG_PRESENTATION: tuple[tuple[str, str, str, str], ...] = (
    ("fig01", "fig01_energy_breakdown.svg", "", ""),
    ("fig09", "fig09_planar_30fps.svg", "energy reduction", ""),
    ("fig12", "fig12_planar_60fps.svg", "energy reduction", ""),
    ("fig11a", "fig11a_vr_workloads.svg", "energy reduction",
     "BurstLink"),
    ("fig13", "fig13_fbc.svg", "energy reduction", ""),
    ("fig14b", "fig14b_mobile.svg", "energy reduction", ""),
)


def chart_from_records(
    figure,
    records: list[dict],
    y_label: str = "",
    percent: bool = True,
    series_label: str = "",
) -> BarChart:
    """Build a :class:`BarChart` from a figure's tidy records.

    Categories follow the x channel in first-seen order; series follow
    the color channel (or collapse to one series named
    ``series_label``).  Faceted figures have no 2-D bar rendering here
    — emit them through the Vega-Lite path instead.
    """
    if figure.column is not None:
        raise ConfigurationError(
            f"figure {figure.name!r} is faceted; the SVG renderer "
            "only draws x/color charts"
        )
    categories: list[str] = []
    for record in records:
        x = str(record[figure.x.field])
        if x not in categories:
            categories.append(x)
    if figure.color is not None:
        series_names: list[str] = []
        for record in records:
            c = str(record[figure.color.field])
            if c not in series_names:
                series_names.append(c)
        values = {
            (
                str(record[figure.x.field]),
                str(record[figure.color.field]),
            ): record["value"]
            for record in records
        }
        series = {
            name: [values[(cat, name)] for cat in categories]
            for name in series_names
        }
    else:
        by_category = {
            str(record[figure.x.field]): record["value"]
            for record in records
        }
        series = {
            series_label or figure.name: [
                by_category[cat] for cat in categories
            ]
        }
    return BarChart(
        title=figure.title,
        categories=categories,
        series=series,
        y_label=y_label,
        percent=percent,
    )


def write_figures(
    output_dir: str | Path,
    jobs: int = 1,
    metrics_sink: list | None = None,
    progress=None,
) -> list[Path]:
    """Regenerate the headline evaluation figures as SVG files.

    Returns the written paths.  Every chart is declared once in the
    figure registry (:mod:`repro.analysis.figures`) — this function
    extracts each exhibit's tidy records through it and renders them
    with the hand-rolled SVG bar renderer.  The exhibits regenerate
    through the parallel engine: ``jobs > 1`` fans them out over
    worker processes (outputs are bit-identical either way),
    ``metrics_sink``, when given, receives each exhibit's
    :class:`~repro.analysis.runner.ExperimentMetrics`, and
    ``progress``, when given, receives one live status line per
    exhibit start/finish.
    """
    from .figures import figure_records, get_figure
    from .runner import run_exhibits

    output = Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    outcomes = run_exhibits(
        FIGURE_EXHIBITS, jobs=jobs, progress=progress
    )
    results = {outcome.name: outcome.result for outcome in outcomes}
    if metrics_sink is not None:
        metrics_sink.extend(outcome.metrics for outcome in outcomes)

    for name, filename, y_label, series_label in _SVG_PRESENTATION:
        figure = get_figure(name)
        records = figure_records(figure, results[figure.exhibit])
        chart = chart_from_records(
            figure,
            records,
            y_label=y_label,
            series_label=series_label,
        )
        path = output / filename
        path.write_text(chart.to_svg(), encoding="utf-8")
        written.append(path)
    return written
