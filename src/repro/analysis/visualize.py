"""Text-art rendering of package C-state timelines.

The paper communicates its mechanisms through annotated C-state
timelines (Figs. 3, 6, 7).  This module renders simulated timelines the
same way, in plain text: a proportional state strip per frame window, a
per-state lane chart, and a residency bar — usable in terminals, logs,
and doctests.

Example strip for one conventional FHD window::

    |C0####|C2#|C8#######|C2#|C8#######|...|

and for BurstLink::

    |C0#|C7#########|C9..........................|
"""

from __future__ import annotations

from ..errors import SimulationError
from ..pipeline.timeline import Timeline, TimelineSummary
from ..soc.cstates import PackageCState

#: Fill characters per state: busier states render denser glyphs.
_FILL = {
    PackageCState.C0: "#",
    PackageCState.C2: "=",
    PackageCState.C3: "+",
    PackageCState.C6: "-",
    PackageCState.C7: "~",
    PackageCState.C7_PRIME: "'",
    PackageCState.C8: ":",
    PackageCState.C9: ".",
    PackageCState.C10: " ",
}


def render_strip(timeline: Timeline, width: int = 72,
                 label_states: bool = True) -> str:
    """One proportional line: each segment gets columns proportional to
    its duration, filled with its state's glyph (state names inlined
    where they fit)."""
    if not timeline.segments:
        raise SimulationError("cannot render an empty timeline")
    if width < 8:
        raise SimulationError("strip width must be at least 8 columns")
    total = timeline.duration
    cells: list[str] = []
    for segment in timeline:
        columns = max(
            1, int(round(width * segment.duration / total))
        ) if segment.duration > 0 else 0
        if columns == 0:
            continue
        fill = _FILL[segment.state]
        body = fill * columns
        if label_states and not segment.transition:
            name = segment.state.label
            if columns >= len(name) + 1:
                body = name + fill * (columns - len(name))
        cells.append(body)
    return "|" + "".join(cells) + "|"


def render_lanes(timeline: Timeline, width: int = 72) -> str:
    """A lane per occupied state, Fig. 3-style: time runs left to right
    and each lane is marked where the system occupied that state."""
    if not timeline.segments:
        raise SimulationError("cannot render an empty timeline")
    total = timeline.duration
    start = timeline.start
    states = sorted(
        {s.state.reporting_state for s in timeline},
        key=lambda s: s.depth,
    )
    lanes = []
    for state in states:
        row = [" "] * width
        for segment in timeline:
            if segment.state.reporting_state is not state:
                continue
            # Floor/ceil so every column a segment touches is marked:
            # lanes may overlap at shared columns but never leave gaps.
            first = int(width * (segment.start - start) / total)
            last = -int(-width * (segment.end - start) // total)
            for column in range(first, max(first + 1, last)):
                if column < width:
                    row[column] = _FILL[state]
        lanes.append(f"{state.label:>4s} |{''.join(row)}|")
    return "\n".join(lanes)


def render_residency_bars(
    timeline: Timeline | TimelineSummary, width: int = 40
) -> str:
    """A horizontal bar per state with its residency percentage (of a
    timeline or a summary)."""
    fractions = timeline.residency_fractions()
    lines = []
    for state in sorted(fractions, key=lambda s: s.depth):
        fraction = fractions[state]
        bar = _FILL[state] * max(
            1 if fraction > 0 else 0, int(round(width * fraction))
        )
        lines.append(
            f"{state.label:>4s} {fraction * 100:5.1f}% |{bar}"
        )
    return "\n".join(lines)


def render_window_report(timeline: Timeline, window_s: float,
                         width: int = 72) -> str:
    """Per-window strips for a whole run (one line per refresh window),
    the closest text analogue of the paper's Fig. 3/6/7 drawings."""
    if window_s <= 0:
        raise SimulationError("window length must be positive")
    if not timeline.segments:
        raise SimulationError("cannot render an empty timeline")
    lines = []
    window_index = 0
    position = timeline.start
    while position < timeline.end - 1e-9:
        window_end = position + window_s
        segments = [
            s for s in timeline
            if s.end > position + 1e-12 and s.start < window_end - 1e-12
        ]
        if not segments:
            break
        window = Timeline([
            _clip(segment, position, window_end)
            for segment in segments
        ])
        lines.append(
            f"w{window_index:<3d} {render_strip(window, width=width)}"
        )
        window_index += 1
        position = window_end
    return "\n".join(lines)


def _clip(segment, start: float, end: float):
    from dataclasses import replace

    return replace(
        segment,
        start=max(segment.start, start),
        end=min(segment.end, end),
    )


def render_figure(figure, records, width: int = 40) -> str:
    """A registry figure's tidy records as a text bar chart.

    The terminal renderer over :mod:`repro.analysis.figures` — beside
    the SVG and Vega-Lite emitters, any declared figure renders as one
    labelled bar per record.  Interval records (``value_lo`` /
    ``value_hi`` present, from a multi-seed merge) append their CI.
    """
    if not records:
        raise SimulationError("cannot render zero records")
    if width < 8:
        raise SimulationError("bar width must be at least 8 columns")
    percent = getattr(figure.y, "fmt", None) == ".0%"

    def fmt(value: float) -> str:
        return f"{value * 100:5.1f}%" if percent else f"{value:8.1f}"

    labels = [
        " ".join(str(record[field]) for field in figure.fields)
        for record in records
    ]
    label_width = max(len(label) for label in labels)
    peak = max(abs(r["value"]) for r in records)
    peak = max(peak, 1e-12)
    lines = [figure.title]
    for record, label in zip(records, labels):
        bar = "#" * max(
            1 if record["value"] > 0 else 0,
            int(round(width * abs(record["value"]) / peak)),
        )
        line = (
            f"{label:>{label_width}s} {fmt(record['value'])} |{bar}"
        )
        if "value_lo" in record:
            line += (
                f"  [{fmt(record['value_lo']).strip()}, "
                f"{fmt(record['value_hi']).strip()}] "
                f"n={record['seeds']}"
            )
        lines.append(line)
    return "\n".join(lines)
