"""Structural diffing of traces and profiles — "what changed?".

``repro obs diff <a> <b>`` answers the question the drift gate only
scores: *which* spans appeared, vanished, or shifted between two runs,
and how the counters moved.  Inputs are either JSONL traces (from
``repro trace --jsonl``, ``repro figures --trace``, or ``REPRO_TRACE``)
or profile JSON files (from ``repro profile --json``); the artifact
kind is sniffed from the payload, and both sides must be the same kind.

Traces are :func:`repro.obs.dist.normalize_events`-normalized first, so
a merged ``--jobs N`` trace diffs clean against the sequential trace of
the same work — the parallel-trace CI smoke pins exactly that.  The
diff is *structural*: span/event multisets by name, counter totals by
name, and per-name simulated-duration sums (shift-checked against a
relative tolerance, since simulated time is deterministic).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from .dist import normalize_events
from .trace import COUNTER, EVENT, SPAN_END, SPAN_START

#: Default relative tolerance for duration / numeric shifts.
DEFAULT_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Artifact loading
# ---------------------------------------------------------------------------


def load_artifact(path: str | Path) -> tuple[str, Any]:
    """Load ``path`` as ``("trace", events)``, ``("profile", dict)``,
    ``("fleet", dict)``, or ``("summary", dict)``.

    A JSONL trace parses line-by-line into event dictionaries; a single
    JSON object with a ``ledger`` key is a ``repro profile --json``
    payload; one with a ``fleet`` key is a ``repro fleet`` report; one
    with a ``summary`` key is a serve-session run summary (the shape
    ``repro serve`` reports on session close).
    """
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigurationError(f"cannot read {path}: {error}") from None
    if not text:
        raise ConfigurationError(f"{path} is empty")
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        if "ledger" in payload:
            return "profile", payload
        if "fleet" in payload:
            return "fleet", payload
        if "summary" in payload:
            return "summary", payload
        raise ConfigurationError(
            f"{path} is JSON but not a trace, profile, fleet, or "
            "summary report"
        )
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{number} is not valid JSON"
            ) from None
        if not isinstance(event, dict) or "kind" not in event:
            raise ConfigurationError(
                f"{path}:{number} is not a trace event"
            )
        events.append(event)
    return "trace", events


# ---------------------------------------------------------------------------
# Trace diffing
# ---------------------------------------------------------------------------


@dataclass
class NameDelta:
    """One name's presence on each side."""

    name: str
    count_a: int
    count_b: int

    @property
    def changed(self) -> bool:
        return self.count_a != self.count_b


@dataclass
class DurationShift:
    """A span name whose total simulated duration moved."""

    name: str
    total_a: float
    total_b: float

    @property
    def delta(self) -> float:
        return self.total_b - self.total_a


@dataclass
class CounterDelta:
    """A counter whose summed bumps differ."""

    name: str
    total_a: float
    total_b: float

    @property
    def delta(self) -> float:
        return self.total_b - self.total_a


@dataclass
class TraceDiff:
    """The structural difference between two traces."""

    events_a: int
    events_b: int
    spans: list[NameDelta] = field(default_factory=list)
    events: list[NameDelta] = field(default_factory=list)
    counters: list[CounterDelta] = field(default_factory=list)
    duration_shifts: list[DurationShift] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def structural_changes(self) -> int:
        """Multiset / counter mismatches (duration shifts excluded)."""
        return (
            sum(1 for d in self.spans if d.changed)
            + sum(1 for d in self.events if d.changed)
            + len(self.counters)
        )

    @property
    def ok(self) -> bool:
        """No structural drift and no duration shift past tolerance."""
        return not self.structural_changes and not self.duration_shifts

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "trace",
            "ok": self.ok,
            "events": {"a": self.events_a, "b": self.events_b},
            "spans": {
                d.name: {"a": d.count_a, "b": d.count_b}
                for d in self.spans
                if d.changed
            },
            "point_events": {
                d.name: {"a": d.count_a, "b": d.count_b}
                for d in self.events
                if d.changed
            },
            "counters": {
                d.name: {
                    "a": d.total_a,
                    "b": d.total_b,
                    "delta": d.delta,
                }
                for d in self.counters
            },
            "duration_shifts": {
                d.name: {
                    "a_s": d.total_a,
                    "b_s": d.total_b,
                    "delta_s": d.delta,
                }
                for d in self.duration_shifts
            },
        }

    def summary(self) -> str:
        lines = [
            f"trace diff: {self.events_a} events vs {self.events_b} "
            "events (normalized)"
        ]
        changed_spans = [d for d in self.spans if d.changed]
        changed_events = [d for d in self.events if d.changed]
        for label, deltas in (
            ("span", changed_spans),
            ("event", changed_events),
        ):
            for d in deltas:
                if d.count_a == 0:
                    lines.append(
                        f"  + {label} {d.name}: added x{d.count_b}"
                    )
                elif d.count_b == 0:
                    lines.append(
                        f"  - {label} {d.name}: removed x{d.count_a}"
                    )
                else:
                    lines.append(
                        f"  ~ {label} {d.name}: {d.count_a} -> "
                        f"{d.count_b}"
                    )
        for d in self.counters:
            lines.append(
                f"  ~ counter {d.name}: {d.total_a:g} -> "
                f"{d.total_b:g} ({d.delta:+g})"
            )
        for d in self.duration_shifts:
            lines.append(
                f"  ~ duration {d.name}: {d.total_a:.6g}s -> "
                f"{d.total_b:.6g}s ({d.delta:+.3g}s)"
            )
        if self.ok:
            lines.append("  no structural drift")
        else:
            lines.append(
                f"  {self.structural_changes} structural change(s), "
                f"{len(self.duration_shifts)} duration shift(s)"
            )
        return "\n".join(lines)


def _trace_tallies(
    events: list[dict[str, Any]],
) -> tuple[
    dict[str, int], dict[str, int], dict[str, float], dict[str, float]
]:
    """Per-name span counts, event counts, counter sums, and summed
    span durations for one normalized stream."""
    span_counts: dict[str, int] = {}
    event_counts: dict[str, int] = {}
    counter_sums: dict[str, float] = {}
    durations: dict[str, float] = {}
    starts: dict[int, dict[str, Any]] = {}
    for event in events:
        kind = event["kind"]
        if kind == SPAN_START:
            name = event["name"]
            span_counts[name] = span_counts.get(name, 0) + 1
            starts[event["seq"]] = event
        elif kind == SPAN_END:
            begin = starts.get(event.get("span"))
            if begin is None:
                continue
            t0, t1 = begin.get("t"), event.get("t")
            if t0 is not None and t1 is not None:
                name = begin["name"]
                durations[name] = (
                    durations.get(name, 0.0) + float(t1) - float(t0)
                )
        elif kind == EVENT:
            name = event["name"]
            event_counts[name] = event_counts.get(name, 0) + 1
        elif kind == COUNTER:
            name = event["name"]
            value = float(event.get("attrs", {}).get("value", 1))
            counter_sums[name] = counter_sums.get(name, 0.0) + value
    return span_counts, event_counts, counter_sums, durations


def _shifted(a: float, b: float, tolerance: float) -> bool:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) > tolerance * scale


def diff_traces(
    a: list[dict[str, Any]],
    b: list[dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> TraceDiff:
    """Structurally compare two event streams (normalized first)."""
    a = normalize_events(a)
    b = normalize_events(b)
    spans_a, events_a, counters_a, durations_a = _trace_tallies(a)
    spans_b, events_b, counters_b, durations_b = _trace_tallies(b)
    diff = TraceDiff(
        events_a=len(a), events_b=len(b), tolerance=tolerance
    )
    for name in sorted(set(spans_a) | set(spans_b)):
        diff.spans.append(
            NameDelta(
                name, spans_a.get(name, 0), spans_b.get(name, 0)
            )
        )
    for name in sorted(set(events_a) | set(events_b)):
        diff.events.append(
            NameDelta(
                name, events_a.get(name, 0), events_b.get(name, 0)
            )
        )
    for name in sorted(set(counters_a) | set(counters_b)):
        total_a = counters_a.get(name, 0.0)
        total_b = counters_b.get(name, 0.0)
        if _shifted(total_a, total_b, tolerance):
            diff.counters.append(
                CounterDelta(name, total_a, total_b)
            )
    for name in sorted(set(durations_a) | set(durations_b)):
        total_a = durations_a.get(name, 0.0)
        total_b = durations_b.get(name, 0.0)
        if _shifted(total_a, total_b, tolerance):
            diff.duration_shifts.append(
                DurationShift(name, total_a, total_b)
            )
    return diff


# ---------------------------------------------------------------------------
# Profile diffing
# ---------------------------------------------------------------------------


@dataclass
class ValueDelta:
    """One numeric leaf that differs between two profiles."""

    path: str
    value_a: float | None
    value_b: float | None

    @property
    def delta(self) -> float | None:
        if self.value_a is None or self.value_b is None:
            return None
        return self.value_b - self.value_a


@dataclass
class ProfileDiff:
    """Numeric-leaf differences between two profile payloads."""

    deltas: list[ValueDelta] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def ok(self) -> bool:
        return not self.deltas

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "profile",
            "ok": self.ok,
            "deltas": {
                d.path: {
                    "a": d.value_a,
                    "b": d.value_b,
                    "delta": d.delta,
                }
                for d in self.deltas
            },
        }

    def summary(self) -> str:
        lines = ["profile diff:"]
        for d in self.deltas:
            if d.value_a is None:
                lines.append(f"  + {d.path}: added ({d.value_b:g})")
            elif d.value_b is None:
                lines.append(f"  - {d.path}: removed ({d.value_a:g})")
            else:
                lines.append(
                    f"  ~ {d.path}: {d.value_a:g} -> {d.value_b:g} "
                    f"({d.delta:+g})"
                )
        if self.ok:
            lines.append("  no drift")
        else:
            lines.append(f"  {len(self.deltas)} value(s) moved")
        return "\n".join(lines)


def _numeric_leaves(
    payload: Any, prefix: str = ""
) -> dict[str, float]:
    leaves: dict[str, float] = {}
    if isinstance(payload, bool):
        return {prefix: float(payload)} if prefix else {}
    if isinstance(payload, (int, float)):
        return {prefix: float(payload)} if prefix else {}
    if isinstance(payload, dict):
        for key in payload:
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_numeric_leaves(payload[key], path))
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            leaves.update(
                _numeric_leaves(item, f"{prefix}[{index}]")
            )
    return leaves


def diff_profiles(
    a: dict[str, Any],
    b: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> ProfileDiff:
    """Compare two ``repro profile --json`` payloads leaf-by-leaf."""
    leaves_a = _numeric_leaves(a)
    leaves_b = _numeric_leaves(b)
    diff = ProfileDiff(tolerance=tolerance)
    for path in sorted(set(leaves_a) | set(leaves_b)):
        value_a = leaves_a.get(path)
        value_b = leaves_b.get(path)
        if value_a is None or value_b is None:
            diff.deltas.append(ValueDelta(path, value_a, value_b))
        elif _shifted(value_a, value_b, tolerance):
            diff.deltas.append(ValueDelta(path, value_a, value_b))
    return diff


# ---------------------------------------------------------------------------
# The CLI entry
# ---------------------------------------------------------------------------


def diff_artifacts(
    path_a: str | Path,
    path_b: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> TraceDiff | ProfileDiff:
    """Diff two files of the same artifact kind (trace, profile,
    fleet report, or serve-session summary).  Non-trace kinds compare
    numeric-leaf-wise like profiles — a resumed fleet run diffs clean
    against an uninterrupted one, and a live-served session diffs
    clean against its offline reference."""
    kind_a, payload_a = load_artifact(path_a)
    kind_b, payload_b = load_artifact(path_b)
    if kind_a != kind_b:
        raise ConfigurationError(
            f"cannot diff a {kind_a} against a {kind_b}"
        )
    if kind_a == "trace":
        return diff_traces(payload_a, payload_b, tolerance=tolerance)
    return diff_profiles(payload_a, payload_b, tolerance=tolerance)
