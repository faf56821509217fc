"""Trace and metrics exporters — interchange formats for external
viewers.

Two converters:

* :func:`chrome_trace` — our JSONL event stream as the Chrome
  trace-event format (the ``{"traceEvents": [...]}`` JSON object that
  Perfetto and ``chrome://tracing`` load directly).  Simulated seconds
  map to the format's microsecond ``ts`` axis; spans become complete
  (``"ph": "X"``) events with a ``dur``, point events become instants,
  counter bumps become cumulative counter tracks.  ``repro trace
  <exhibit> --chrome out.json`` writes it.
* :func:`prometheus_text` — the process-wide metrics registry in the
  Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers,
  cumulative ``_bucket{le="..."}`` series for histograms).  ``repro
  metrics --prom`` prints it.

Both are pure functions of already-recorded data: exporting never
mutates the tracer or the registry, and exporting a deterministic trace
is itself deterministic.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RollingGauge,
)
from .metrics import registry as process_registry
from .trace import COUNTER, EVENT, SPAN_END, SPAN_START, Tracer

#: Simulated seconds -> trace-event microseconds.
MICROSECONDS_PER_SECOND = 1e6

#: pid/tid the single simulated timeline reports under.
TRACE_PID = 1
TRACE_TID = 1


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------


def _category(name: str) -> str:
    """Event category: the dotted name's first segment."""
    return name.split(".", 1)[0] if "." in name else name or "trace"


def chrome_trace_events(
    events: list[dict[str, Any]],
    time_scale: float = MICROSECONDS_PER_SECOND,
) -> list[dict[str, Any]]:
    """Convert a flat event stream to trace-event dictionaries.

    Spans emit one complete (``X``) event each, with ``dur`` from the
    matching end event; an unclosed span gets the largest timestamp
    seen anywhere in the stream as its implicit end.  Events without a
    simulated timestamp inherit a cursor (the latest timestamp seen so
    far), so every ``dur`` is >= 0.  Each *root* span opens its own
    thread track (root spans may overlap in simulated time — the
    simulator and the power model both walk the same timeline), and the
    returned list is sorted by ``ts`` so the stream reads
    monotonically.

    A *merged* cross-process trace (events tagged with a ``w`` worker
    index by :mod:`repro.obs.dist`) renders instead as one thread
    track per worker: each worker's tasks tile left-to-right along its
    track (every task restarts simulated time near zero, so task
    groups are offset to lay out sequentially), and untagged parent
    events keep the main track.
    """
    if any("w" in event for event in events):
        return _chrome_worker_tracks(events, time_scale)
    # Pass 1: match span ends to starts and find the stream's horizon.
    end_ts: dict[int, float | None] = {}
    horizon = 0.0
    for event in events:
        t = event.get("t")
        if t is not None:
            horizon = max(horizon, float(t))
        if event["kind"] == SPAN_END:
            end_ts[event["span"]] = t

    converted: list[dict[str, Any]] = []
    thread_names: dict[int, str] = {}
    cursor = 0.0
    depth = 0
    tid = TRACE_TID
    next_tid = TRACE_TID
    counters: dict[str, float] = {}
    for event in events:
        kind = event["kind"]
        if kind == SPAN_END:
            depth = max(0, depth - 1)
            t = event.get("t")
            if t is not None:
                cursor = max(cursor, float(t))
            continue
        t = event.get("t")
        start = float(t) if t is not None else cursor
        cursor = max(cursor, start)
        attrs = dict(event.get("attrs", {}))
        if kind == SPAN_START and depth == 0:
            tid = next_tid
            next_tid += 1
            thread_names.setdefault(tid, event["name"])
        record: dict[str, Any] = {
            "pid": TRACE_PID,
            "tid": tid,
            "ts": start * time_scale,
            "name": event["name"],
            "cat": _category(event["name"]),
        }
        if kind == SPAN_START:
            depth += 1
            end = end_ts.get(event["seq"])
            end_s = float(end) if end is not None else max(
                horizon, start
            )
            record["ph"] = "X"
            record["dur"] = max(0.0, end_s - start) * time_scale
            if attrs:
                record["args"] = attrs
        elif kind == EVENT:
            record["ph"] = "i"
            record["s"] = "t"
            if attrs:
                record["args"] = attrs
        elif kind == COUNTER:
            name = event["name"]
            counters[name] = counters.get(name, 0.0) + float(
                attrs.get("value", 1)
            )
            record["ph"] = "C"
            record["args"] = {"value": counters[name]}
        else:  # pragma: no cover - no other kinds exist
            continue
        converted.append(record)
    converted.sort(key=lambda record: record["ts"])
    metadata: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": 0,
            "name": "process_name",
            "args": {"name": "repro (simulated time)"},
        }
    ]
    for thread, label in sorted(thread_names.items()):
        metadata.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": thread,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
    return metadata + converted


def _chrome_worker_tracks(
    events: list[dict[str, Any]],
    time_scale: float,
) -> list[dict[str, Any]]:
    """Render a merged cross-process trace: the parent's events on the
    main track, each worker's events on its own track with task groups
    tiled sequentially (each task restarts simulated time at zero)."""
    parent_stream: list[dict[str, Any]] = []
    # Task indexes are only unique within one fan-out namespace, so
    # groups key on (namespace, task) — fleet shards and figure
    # exhibits merged into one trace tile as distinct groups.
    worker_tasks: dict[
        int, dict[tuple[str, int], list[dict[str, Any]]]
    ] = {}
    for event in events:
        worker = event.get("w")
        if worker is None:
            parent_stream.append(event)
        else:
            group = (
                str(event.get("ns", "task")),
                int(event.get("task", 0)),
            )
            worker_tasks.setdefault(int(worker), {}).setdefault(
                group, []
            ).append(event)

    converted: list[dict[str, Any]] = []
    counters: dict[str, float] = {}

    def convert(
        stream: list[dict[str, Any]], tid: int, offset: float
    ) -> float:
        end_ts = {
            event["span"]: event.get("t")
            for event in stream
            if event["kind"] == SPAN_END
        }
        horizon = 0.0
        for event in stream:
            t = event.get("t")
            if t is not None:
                horizon = max(horizon, float(t))
        cursor = 0.0
        for event in stream:
            kind = event["kind"]
            t = event.get("t")
            if kind == SPAN_END:
                if t is not None:
                    cursor = max(cursor, float(t))
                continue
            start = float(t) if t is not None else cursor
            cursor = max(cursor, start)
            attrs = dict(event.get("attrs", {}))
            record: dict[str, Any] = {
                "pid": TRACE_PID,
                "tid": tid,
                "ts": (start + offset) * time_scale,
                "name": event["name"],
                "cat": _category(event["name"]),
            }
            if kind == SPAN_START:
                end = end_ts.get(event["seq"])
                end_s = float(end) if end is not None else max(
                    horizon, start
                )
                record["ph"] = "X"
                record["dur"] = max(0.0, end_s - start) * time_scale
                if attrs:
                    record["args"] = attrs
            elif kind == EVENT:
                record["ph"] = "i"
                record["s"] = "t"
                if attrs:
                    record["args"] = attrs
            elif kind == COUNTER:
                name = event["name"]
                counters[name] = counters.get(name, 0.0) + float(
                    attrs.get("value", 1)
                )
                record["ph"] = "C"
                record["args"] = {"value": counters[name]}
            else:  # pragma: no cover - no other kinds exist
                continue
            converted.append(record)
        return horizon

    convert(parent_stream, TRACE_TID, 0.0)
    thread_names: dict[int, str] = {TRACE_TID: "main"}
    for worker in sorted(worker_tasks):
        tid = TRACE_TID + worker
        thread_names[tid] = f"worker {worker}"
        track_cursor = 0.0
        for task in sorted(worker_tasks[worker]):
            horizon = convert(
                worker_tasks[worker][task], tid, track_cursor
            )
            # Tile the next task after this one, with a visible gap.
            track_cursor += horizon + max(horizon * 0.05, 1e-6)
    converted.sort(key=lambda record: record["ts"])
    metadata: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": 0,
            "name": "process_name",
            "args": {"name": "repro (simulated time)"},
        }
    ]
    for tid, label in sorted(thread_names.items()):
        metadata.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
    return metadata + converted


def chrome_trace_from_events(
    events: list[dict[str, Any]],
    time_scale: float = MICROSECONDS_PER_SECOND,
) -> dict[str, Any]:
    """A flat event stream (e.g. a merged --jobs trace read back from
    JSONL) as a loadable Chrome trace object."""
    return {
        "traceEvents": chrome_trace_events(
            events, time_scale=time_scale
        ),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated",
            "source": "repro.obs.trace",
        },
    }


def chrome_trace(
    tracer: Tracer, time_scale: float = MICROSECONDS_PER_SECOND
) -> dict[str, Any]:
    """The tracer's events as a loadable Chrome trace object."""
    return chrome_trace_from_events(
        tracer.events, time_scale=time_scale
    )


def chrome_trace_json(
    tracer: Tracer, indent: int | None = None
) -> str:
    """The Chrome trace as a JSON string."""
    return json.dumps(
        chrome_trace(tracer), indent=indent, sort_keys=True
    )


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    payload = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """Our dotted metric name as a Prometheus series name."""
    return "repro_" + _NAME_SANITIZER.sub("_", name)


def _format_value(value: float | int | None) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return f"{value:.10g}"


def _escape_help(text: str) -> str:
    """``# HELP`` text escaping per the 0.0.4 spec: backslash and
    line feed (label values additionally escape ``"``, but HELP does
    not)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _split_key(name: str) -> tuple[str, str]:
    """A registry key as ``(family, label_body)``.

    Labelled keys minted by :func:`repro.obs.metrics.labelled` render
    the (pre-escaped) label set inline — ``serve.win_mw{sid="a"}`` —
    so the family is everything before the first ``{`` and the label
    body is the text between the braces (empty for plain keys).
    """
    if "{" in name and name.endswith("}"):
        family, _, labels = name.partition("{")
        return family, labels[:-1]
    return name, ""


def _merge_labels(body: str, extra: str) -> str:
    """Combine an inline label body with an extra ``k="v"`` pair."""
    return f"{body},{extra}" if body else extra


def prometheus_text(
    registry: MetricsRegistry | None = None,
) -> str:
    """The registry in the Prometheus text exposition format (0.0.4).

    Counters emit one sample each under the conventional ``_total``
    suffix; gauges (and rolling gauges, which expose their windowed
    mean) emit one sample; histograms emit the cumulative
    ``_bucket{le="..."}`` series (our internal per-bucket occupancies
    are cumulated here) plus ``_sum`` and ``_count``.  Registry keys
    carrying a :func:`repro.obs.metrics.labelled` label set group under
    one ``# HELP`` / ``# TYPE`` header per family, and ``# HELP`` text
    is escaped per the spec (backslash, line feed).
    """
    registry = registry if registry is not None else process_registry()
    # Group label-bearing keys by family so every family emits exactly
    # one HELP/TYPE header.  Grouping cannot rely on sort adjacency:
    # "a.b_x" sorts between "a.b" and 'a.b{sid="1"}'.
    families: dict[str, list[tuple[str, object]]] = {}
    for name in registry.names():
        family, labels = _split_key(name)
        families.setdefault(family, []).append(
            (labels, registry.get(name))
        )
    lines: list[str] = []
    for family in sorted(families):
        members = families[family]
        first = members[0][1]
        series = prometheus_name(family)
        help_text = _escape_help(first.help or family)
        if isinstance(first, Counter):
            total = f"{series}_total"
            lines.append(f"# HELP {total} {help_text}")
            lines.append(f"# TYPE {total} counter")
            for labels, metric in members:
                sample = f"{total}{{{labels}}}" if labels else total
                lines.append(
                    f"{sample} {_format_value(metric.value)}"
                )
        elif isinstance(first, (Gauge, RollingGauge)):
            lines.append(f"# HELP {series} {help_text}")
            lines.append(f"# TYPE {series} gauge")
            for labels, metric in members:
                sample = f"{series}{{{labels}}}" if labels else series
                lines.append(
                    f"{sample} {_format_value(metric.value)}"
                )
        elif isinstance(first, Histogram):
            lines.append(f"# HELP {series} {help_text}")
            lines.append(f"# TYPE {series} histogram")
            for labels, metric in members:
                cumulative = 0
                for bound, occupancy in zip(
                    metric.buckets + (float("inf"),),
                    metric.bucket_counts,
                ):
                    cumulative += occupancy
                    le = f'le="{_format_value(bound)}"'
                    lines.append(
                        f"{series}_bucket"
                        f"{{{_merge_labels(labels, le)}}} "
                        f"{cumulative}"
                    )
                suffix = f"{{{labels}}}" if labels else ""
                lines.append(
                    f"{series}_sum{suffix} "
                    f"{_format_value(metric.total)}"
                )
                lines.append(
                    f"{series}_count{suffix} {metric.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
