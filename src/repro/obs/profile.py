"""The energy-attribution profiler: turns traces into answers.

Where :mod:`repro.obs.trace` records *what happened in order*, this
module answers *where the energy and time went*.  It consumes the
``(tracer, run)`` pair of a canonical capture (see
:mod:`repro.obs.golden`) and produces:

* an **energy-attribution ledger** — per component x package C-state x
  window kind, folded from the run's summary buckets (which carry the
  window kind the simulator recorded online) through the power model's
  class pricing, and reconciled against the ``power.component`` events
  the model itself emitted (the run-level Table 2 aggregate).  Totals
  must agree to well under 0.1%; ``repro profile`` prints the
  reconciliation verdict.
* **span timing statistics** — flame-graph-style self/total simulated
  seconds per span name, from the strictly nested span forest.
* **percentile statistics** — exact percentiles over window durations
  (by window kind) plus bucket-interpolated quantiles for any
  wall-clock latency histograms the process registry holds
  (``cache.load_s``, ``cache.store_s``, ``exhibit.wall_s``).

The reconciliation is name-based and guarded by the stable identifiers
exported from :mod:`repro.power.model`
(:data:`~repro.power.model.COMPONENT_IDS`,
:func:`~repro.power.model.component_id`,
:func:`~repro.power.model.state_id`): a renamed component or C-state is
a schema break and raises instead of silently dropping energy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import SimulationError
from ..pipeline.sim import RunResult
from ..power.model import (
    COMPONENT_KEYS,
    PowerModel,
    component_id,
    state_id,
)
from . import metrics as obs_metrics
from .trace import COUNTER, EVENT, SPAN_END, SPAN_START, Tracer

#: Relative tolerance for the ledger-vs-model reconciliation (the
#: acceptance bar is 0.1%; both sides price the same class totals, so
#: we hold it tighter).
RECONCILE_RTOL = 1e-6

#: Window-kind label for summary classes folded outside any window
#: (e.g. from a bare timeline via ``TimelineSummary.from_timeline``).
OUTSIDE_WINDOWS = "outside"


# ---------------------------------------------------------------------------
# Span forest
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One span reassembled from its B/E events."""

    span_id: int
    name: str
    start_t: float | None
    end_t: float | None
    attrs: dict[str, Any] = field(default_factory=dict)
    end_attrs: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        """Whether the span's end event was recorded."""
        return self.end_t is not None or bool(self.end_attrs)

    @property
    def duration(self) -> float | None:
        """Simulated seconds the span covers, when both stamps exist."""
        if self.start_t is None or self.end_t is None:
            return None
        return self.end_t - self.start_t

    def walk(self) -> Iterator["SpanNode"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_span_forest(
    events: list[dict[str, Any]],
) -> tuple[list[SpanNode], list[dict[str, Any]]]:
    """Reassemble a flat event stream into ``(roots, root_events)``.

    Tolerant of truncated streams: a span whose end event never arrived
    stays in the forest with ``end_t=None``.  Point events and counters
    attach to the innermost open span, or to ``root_events`` when no
    span encloses them.
    """
    roots: list[SpanNode] = []
    root_events: list[dict[str, Any]] = []
    stack: list[SpanNode] = []
    by_id: dict[int, SpanNode] = {}
    for event in events:
        kind = event["kind"]
        if kind == SPAN_START:
            node = SpanNode(
                span_id=event["seq"],
                name=event["name"],
                start_t=event.get("t"),
                end_t=None,
                attrs=dict(event.get("attrs", {})),
            )
            by_id[node.span_id] = node
            (stack[-1].children if stack else roots).append(node)
            stack.append(node)
        elif kind == SPAN_END:
            node = by_id.get(event["span"])
            if node is None:
                continue  # end for a span we never saw open
            node.end_t = event.get("t")
            node.end_attrs = dict(event.get("attrs", {}))
            # Unwind to (and past) the ended span; intervening spans
            # are left unclosed — a truncated or interleaved stream.
            while stack:
                if stack.pop() is node:
                    break
        elif kind in (EVENT, COUNTER):
            (stack[-1].events if stack else root_events).append(event)
    return roots, root_events


def iter_spans(roots: list[SpanNode]) -> Iterator[SpanNode]:
    """Every span in the forest, depth-first."""
    for root in roots:
        yield from root.walk()


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linearly
    interpolated between order statistics; 0.0 for an empty list."""
    if not 0 <= q <= 100:
        raise SimulationError(f"percentile {q} outside [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    frac = rank - lower
    if lower + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lower] * (1 - frac) + ordered[lower + 1] * frac


# ---------------------------------------------------------------------------
# Span timing statistics (flame-graph rollups)
# ---------------------------------------------------------------------------


@dataclass
class SpanStat:
    """Aggregate simulated-time cost of one span name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    unclosed: int = 0

    def fold(self, node: SpanNode) -> None:
        self.count += 1
        if not node.closed:
            self.unclosed += 1
        duration = node.duration
        if duration is None:
            return
        child_s = sum(
            child.duration or 0.0 for child in node.children
        )
        self.total_s += duration
        self.self_s += max(0.0, duration - child_s)


def span_time_stats(roots: list[SpanNode]) -> dict[str, SpanStat]:
    """Per-span-name self/total simulated seconds over the forest."""
    stats: dict[str, SpanStat] = {}
    for node in iter_spans(roots):
        stats.setdefault(node.name, SpanStat(node.name)).fold(node)
    return stats


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSpan:
    """One ``sim.window`` span's join-relevant facts."""

    start_t: float
    end_t: float
    kind: str


@dataclass
class WindowStats:
    """Exact percentile statistics over window durations, per kind."""

    durations_by_kind: dict[str, list[float]]

    def kinds(self) -> list[str]:
        return sorted(self.durations_by_kind)

    def row(self, kind: str) -> tuple[int, float, float, float, float]:
        """(count, p50, p90, p99, max) for one window kind."""
        values = self.durations_by_kind[kind]
        return (
            len(values),
            percentile(values, 50),
            percentile(values, 90),
            percentile(values, 99),
            max(values) if values else 0.0,
        )


def window_spans(roots: list[SpanNode]) -> list[WindowSpan]:
    """Every closed ``sim.window`` span, in start order."""
    windows = [
        WindowSpan(
            start_t=node.start_t,
            end_t=node.end_t,
            kind=str(node.attrs.get("kind", "unknown")),
        )
        for node in iter_spans(roots)
        if node.name == "sim.window"
        and node.start_t is not None
        and node.end_t is not None
    ]
    return sorted(windows, key=lambda w: w.start_t)


def window_stats(roots: list[SpanNode]) -> WindowStats:
    """Window-duration distributions keyed by window kind."""
    durations: dict[str, list[float]] = {}
    for window in window_spans(roots):
        durations.setdefault(window.kind, []).append(
            window.end_t - window.start_t
        )
    return WindowStats(durations_by_kind=durations)


# ---------------------------------------------------------------------------
# The energy-attribution ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerRow:
    """Energy attributed to one (component, C-state, window kind)."""

    component: str
    state: str
    window_kind: str
    energy_mj: float


@dataclass
class EnergyLedger:
    """The component x C-state x window-kind energy attribution."""

    rows: list[LedgerRow]
    total_mj: float

    def _rollup(self, key) -> dict[str, float]:
        out: dict[str, float] = {}
        for row in self.rows:
            out[key(row)] = out.get(key(row), 0.0) + row.energy_mj
        return out

    def by_component(self) -> dict[str, float]:
        """Energy per component (the Table 2 aggregate axis)."""
        return self._rollup(lambda r: r.component)

    def by_state(self) -> dict[str, float]:
        """Energy per package C-state."""
        return self._rollup(lambda r: r.state)

    def by_window_kind(self) -> dict[str, float]:
        """Energy per window kind (new_frame / repeat / outside)."""
        return self._rollup(lambda r: r.window_kind)

    def top_rows(self, limit: int | None = None) -> list[LedgerRow]:
        """Non-zero rows, largest energy first."""
        rows = sorted(
            (r for r in self.rows if r.energy_mj > 0.0),
            key=lambda r: (-r.energy_mj, r.component, r.state,
                           r.window_kind),
        )
        return rows if limit is None else rows[:limit]


def energy_ledger(
    run: RunResult, model: PowerModel | None = None
) -> EnergyLedger:
    """Attribute the run's component energies to C-state and window
    kind.

    Folded from the run's :class:`~repro.pipeline.timeline.
    TimelineSummary` buckets, priced by
    :meth:`PowerModel.price_summary` — the same class totals and the
    same pricing the model's run-level report integrates, so the ledger
    reconciles with it.  Each bucket carries the window kind the
    simulator recorded online; a class folded from a bare timeline
    (no window kind) lands in :data:`OUTSIDE_WINDOWS`.
    """
    model = model if model is not None else PowerModel()
    if run.summary is None:
        raise SimulationError("run carries no timeline summary")
    cls_keys, _, matrix = model.price_summary(
        run.summary, run.config.panel
    )
    cells: dict[tuple[str, str, str], float] = {}
    total = 0.0
    for cls_key, energies in zip(cls_keys, matrix.tolist()):
        state = state_id(cls_key.state.reporting_state)
        kind = cls_key.window_kind or OUTSIDE_WINDOWS
        for key, energy in zip(COMPONENT_KEYS, energies):
            if energy == 0.0:
                continue
            cells[(key, state, kind)] = (
                cells.get((key, state, kind), 0.0) + energy
            )
            total += energy
    rows = [
        LedgerRow(component=c, state=s, window_kind=k, energy_mj=e)
        for (c, s, k), e in sorted(cells.items())
    ]
    return EnergyLedger(rows=rows, total_mj=total)


# ---------------------------------------------------------------------------
# Reconciliation against the traced power report
# ---------------------------------------------------------------------------


@dataclass
class Reconciliation:
    """Ledger vs the power model's own traced aggregates."""

    ledger_total_mj: float
    traced_total_mj: float
    max_component_rel_err: float
    worst_component: str

    @property
    def total_rel_err(self) -> float:
        if self.traced_total_mj == 0.0:
            return 0.0 if self.ledger_total_mj == 0.0 else float("inf")
        return abs(
            self.ledger_total_mj - self.traced_total_mj
        ) / self.traced_total_mj

    @property
    def ok(self) -> bool:
        return (
            self.total_rel_err <= RECONCILE_RTOL
            and self.max_component_rel_err <= RECONCILE_RTOL
        )


def traced_component_energies(
    roots: list[SpanNode],
) -> dict[str, float]:
    """Per-component energies summed from ``power.component`` events —
    the run-level Table 2 aggregate the model emitted while tracing.
    Unknown component names are a schema break and raise."""
    energies: dict[str, float] = {}
    for node in iter_spans(roots):
        for event in node.events:
            if event["name"] != "power.component":
                continue
            attrs = event.get("attrs", {})
            key = attrs.get("component", "")
            component_id(key)  # validates against the stable mapping
            energies[key] = (
                energies.get(key, 0.0) + float(attrs.get("energy_mj", 0.0))
            )
    return energies


def reconcile(
    ledger: EnergyLedger, traced: dict[str, float]
) -> Reconciliation:
    """Compare the ledger's per-component totals with the traced
    run-level aggregates (must agree to :data:`RECONCILE_RTOL`)."""
    by_component = ledger.by_component()
    worst_key, worst_err = "", 0.0
    for key in COMPONENT_KEYS:
        want = traced.get(key, 0.0)
        have = by_component.get(key, 0.0)
        if want == 0.0:
            err = 0.0 if abs(have) < 1e-12 else float("inf")
        else:
            err = abs(have - want) / abs(want)
        if err > worst_err:
            worst_key, worst_err = key, err
    return Reconciliation(
        ledger_total_mj=ledger.total_mj,
        traced_total_mj=sum(traced.values()),
        max_component_rel_err=worst_err,
        worst_component=worst_key,
    )


# ---------------------------------------------------------------------------
# The exhibit profile
# ---------------------------------------------------------------------------


@dataclass
class ExhibitProfile:
    """Everything ``repro profile <exhibit>`` reports."""

    exhibit: str
    scheme: str
    duration_s: float
    total_energy_mj: float
    average_power_mw: float
    ledger: EnergyLedger
    reconciliation: Reconciliation
    span_stats: dict[str, SpanStat]
    windows: WindowStats
    latency_quantiles: dict[str, dict[str, float]]
    #: Cadence-walker counters (``sim.collapse.*``, ``sim.batch.*``)
    #: at capture time; empty when none fired.
    engine_counters: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the ``repro profile --json`` payload)."""
        return {
            "exhibit": self.exhibit,
            "scheme": self.scheme,
            "duration_s": self.duration_s,
            "total_energy_mj": self.total_energy_mj,
            "average_power_mw": self.average_power_mw,
            "ledger": [
                {
                    "component": row.component,
                    "component_id": component_id(row.component),
                    "state": row.state,
                    "window_kind": row.window_kind,
                    "energy_mj": row.energy_mj,
                }
                for row in self.ledger.rows
            ],
            "by_component": self.ledger.by_component(),
            "by_state": self.ledger.by_state(),
            "by_window_kind": self.ledger.by_window_kind(),
            "reconciliation": {
                "ledger_total_mj": self.reconciliation.ledger_total_mj,
                "traced_total_mj": self.reconciliation.traced_total_mj,
                "total_rel_err": self.reconciliation.total_rel_err,
                "max_component_rel_err":
                    self.reconciliation.max_component_rel_err,
                "ok": self.reconciliation.ok,
            },
            "spans": {
                name: {
                    "count": stat.count,
                    "total_s": stat.total_s,
                    "self_s": stat.self_s,
                    "unclosed": stat.unclosed,
                }
                for name, stat in sorted(self.span_stats.items())
            },
            "windows": {
                kind: dict(
                    zip(
                        ("count", "p50_s", "p90_s", "p99_s", "max_s"),
                        self.windows.row(kind),
                    )
                )
                for kind in self.windows.kinds()
            },
            "latency_quantiles": self.latency_quantiles,
            "engine_counters": dict(
                sorted(self.engine_counters.items())
            ),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def registry_latency_quantiles(
    registry: obs_metrics.MetricsRegistry | None = None,
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.99),
) -> dict[str, dict[str, float]]:
    """Bucket-interpolated quantiles for every wall-clock histogram
    (``*_s`` suffix) the registry holds — cache latencies, exhibit
    wall-clock — keyed by metric name."""
    registry = (
        registry if registry is not None else obs_metrics.registry()
    )
    out: dict[str, dict[str, float]] = {}
    for name, state in registry.snapshot().items():
        if state.get("type") != "histogram" or not name.endswith("_s"):
            continue
        histogram = registry.histogram(name)
        if histogram.count == 0:
            continue
        out[name] = {
            f"p{q * 100:g}": histogram.quantile(q) for q in quantiles
        }
    return out


#: Counter-name prefixes the profiler folds into ``engine_counters``.
ENGINE_COUNTER_PREFIXES = (
    "sim.collapse.",
    "sim.batch.",
)


def registry_engine_counters(
    registry: obs_metrics.MetricsRegistry | None = None,
) -> dict[str, float]:
    """Window-engine counter values, keyed by metric name — the
    profiler's view of how much planning the cadence walker avoided."""
    registry = (
        registry if registry is not None else obs_metrics.registry()
    )
    out: dict[str, float] = {}
    for name, state in registry.snapshot().items():
        if state.get("type") != "counter":
            continue
        if any(name.startswith(p) for p in ENGINE_COUNTER_PREFIXES):
            out[name] = state.get("value", 0.0)
    return out


def profile_capture(
    exhibit: str, tracer: Tracer, run: RunResult
) -> ExhibitProfile:
    """Profile an already-captured ``(tracer, run)`` pair."""
    roots, _ = build_span_forest(tracer.events)
    ledger = energy_ledger(run)
    traced = traced_component_energies(roots)
    recon = reconcile(ledger, traced)
    report = PowerModel().report(run)
    return ExhibitProfile(
        exhibit=exhibit,
        scheme=run.scheme,
        duration_s=run.duration,
        total_energy_mj=report.total_energy_mj,
        average_power_mw=report.average_power_mw,
        ledger=ledger,
        reconciliation=recon,
        span_stats=span_time_stats(roots),
        windows=window_stats(roots),
        latency_quantiles=registry_latency_quantiles(),
        engine_counters=registry_engine_counters(),
    )


def profile_exhibit(
    exhibit: str, retain: str = "full"
) -> ExhibitProfile:
    """Capture one canonical exhibit and profile it end to end.

    ``retain="summary"`` profiles the streaming-aggregation path: the
    run keeps no per-segment timeline (the ledger reads the summary
    buckets either way)."""
    from .golden import capture_trace

    tracer, run = capture_trace(exhibit, retain=retain)
    return profile_capture(exhibit, tracer, run)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def render_profile(profile: ExhibitProfile) -> str:
    """The aligned-text report ``repro profile <exhibit>`` prints."""
    from ..analysis.report import format_table

    total = profile.ledger.total_mj or 1.0
    sections = [
        f"{profile.exhibit}: {profile.scheme} — "
        f"{profile.duration_s:.4f}s simulated, "
        f"{profile.total_energy_mj:.1f} mJ, "
        f"{profile.average_power_mw:.0f} mW average",
    ]

    ledger_rows = [
        (
            row.component,
            row.state,
            row.window_kind,
            f"{row.energy_mj:.3f}",
            f"{row.energy_mj / total * 100:.1f}%",
        )
        for row in profile.ledger.top_rows()
    ]
    sections.append(
        "Energy attribution (component x C-state x window kind):\n"
        + format_table(
            ("component", "state", "window", "mJ", "share"),
            ledger_rows,
        )
    )

    for title, rollup in (
        ("By component:", profile.ledger.by_component()),
        ("By C-state:", profile.ledger.by_state()),
        ("By window kind:", profile.ledger.by_window_kind()),
    ):
        rows = [
            (name, f"{energy:.3f}", f"{energy / total * 100:.1f}%")
            for name, energy in sorted(
                rollup.items(), key=lambda kv: -kv[1]
            )
            if energy > 0.0
        ]
        sections.append(
            title + "\n" + format_table(("key", "mJ", "share"), rows)
        )

    span_rows = [
        (
            stat.name,
            str(stat.count),
            f"{stat.total_s:.6f}",
            f"{stat.self_s:.6f}",
            str(stat.unclosed) if stat.unclosed else "",
        )
        for stat in sorted(
            profile.span_stats.values(), key=lambda s: -s.total_s
        )
    ]
    sections.append(
        "Span timings (simulated seconds, self excludes child spans):\n"
        + format_table(
            ("span", "count", "total s", "self s", "unclosed"),
            span_rows,
        )
    )

    if profile.windows.kinds():
        window_rows = []
        for kind in profile.windows.kinds():
            count, p50, p90, p99, worst = profile.windows.row(kind)
            window_rows.append(
                (kind, str(count), f"{p50 * 1e3:.3f}",
                 f"{p90 * 1e3:.3f}", f"{p99 * 1e3:.3f}",
                 f"{worst * 1e3:.3f}")
            )
        sections.append(
            "Window durations (ms):\n"
            + format_table(
                ("kind", "n", "p50", "p90", "p99", "max"), window_rows
            )
        )

    if profile.latency_quantiles:
        latency_rows = [
            (name,) + tuple(
                f"{quantiles[q] * 1e3:.3f}"
                for q in ("p50", "p90", "p99")
            )
            for name, quantiles in sorted(
                profile.latency_quantiles.items()
            )
        ]
        sections.append(
            "Wall-clock histograms (ms, process-wide):\n"
            + format_table(
                ("metric", "p50", "p90", "p99"), latency_rows
            )
        )

    if profile.engine_counters:
        engine_rows = [
            (name, f"{value:g}")
            for name, value in sorted(
                profile.engine_counters.items()
            )
        ]
        sections.append(
            "Window engine (process-wide counters):\n"
            + format_table(("counter", "value"), engine_rows)
        )

    recon = profile.reconciliation
    sections.append(
        f"reconciliation: ledger {recon.ledger_total_mj:.3f} mJ vs "
        f"traced power report {recon.traced_total_mj:.3f} mJ "
        f"(total err {recon.total_rel_err * 100:.4f}%, worst component "
        f"err {recon.max_component_rel_err * 100:.4f}%) "
        f"[{'OK' if recon.ok else 'MISMATCH'}]"
    )
    return "\n\n".join(sections)
