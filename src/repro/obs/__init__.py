"""``repro.obs`` — the observability layer.

Producers (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — a low-overhead span/counter event tracer
  over *simulated* time with byte-stable JSONL export; a no-op unless a
  tracer is installed (``REPRO_TRACE=…``, ``repro trace``,
  ``repro figures --trace``, or :func:`trace.tracing` in code).
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms with text-table and JSON reports.
* :mod:`repro.obs.golden` — canonical traced runs whose JSONL bytes are
  pinned under ``tests/golden/`` as regression artifacts.

Consumers, layered strictly on top of the producers (all imported
lazily; not re-exported here to keep hot-path imports light):

* :mod:`repro.obs.profile` — the energy-attribution profiler: joins a
  run's trace with the power model into a per-component × C-state ×
  window-kind ledger plus timing percentiles (``repro profile``).
* :mod:`repro.obs.export` — interchange exporters: Chrome trace-event
  JSON for Perfetto/``chrome://tracing`` (``repro trace --chrome``) and
  the Prometheus text exposition (``repro metrics --prom``).
* :mod:`repro.obs.drift` — the paper-drift regression gate (``repro
  validate``).
* :mod:`repro.obs.dist` — the process fan-out: each worker task's
  trace events and metrics-registry snapshot ride home with its
  result and merge into the parent tracer and registry in request
  order, and the parent renders start/done progress lines
  (``repro figures --jobs N --trace/--progress``).
* :mod:`repro.obs.diff` — structural trace/profile diffing (``repro
  obs diff``): added/removed/count-shifted spans, counter deltas,
  simulated-duration shifts.
* :mod:`repro.obs.serve` — the live telemetry plane (``repro serve``):
  long-lived power-advisor sessions over a local NDJSON socket, rolling
  per-session power/residency/fps gauges, and an embedded ``GET
  /metrics`` Prometheus scrape endpoint.
"""

from __future__ import annotations

from . import metrics, trace
from .metrics import MetricsRegistry, metrics_table, registry
from .trace import Tracer, render_span_tree, tracing

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "metrics",
    "metrics_table",
    "registry",
    "render_span_tree",
    "trace",
    "tracing",
]

# Opt-in profiling hook: REPRO_TRACE=<path> traces the whole process.
trace.install_env_tracer()
