"""The parallel experiment engine.

Two pieces turn the evaluation harness from a strictly sequential,
recompute-everything pipeline into one that runs as fast as the host
allows:

* :class:`SimulationCache` — a content-addressed memo for
  :class:`~repro.pipeline.sim.FrameWindowSimulator` runs.  Every run is
  keyed by a stable hash of its full input descriptor (the
  :class:`~repro.config.SystemConfig`, the scheme's identity and state,
  the frame sequence, cadence parameters — see
  :func:`repro.pipeline.sim.run_fingerprint`), so sweeps that revisit a
  configuration (sensitivity tornadoes, ablations, Pareto fronts, the
  Fig. 9/12 resolution sweeps) replay the stored timeline instead of
  re-simulating it.  Hot entries live in a bounded in-process LRU;
  optionally they also persist as JSON under ``.repro_cache/`` so a
  *repeated* full-suite regeneration starts warm.

* :func:`run_exhibits` — fan-out of independent exhibits over worker
  processes (:func:`repro.obs.dist.fan_out`).  Exhibit functions
  are pure and deterministic, so results are bit-identical to a
  sequential run; outcomes are returned in request order regardless of
  completion order.  Each outcome carries an
  :class:`ExperimentMetrics` record (wall-clock, cache hit/miss counts,
  windows simulated) — the ``--verbose`` summary of ``repro figures``
  and the body of ``repro bench-all``.

Importing this module installs a process-wide default cache (in-memory
only, unless ``REPRO_CACHE_DIR`` points at a directory); library code
that never imports it keeps the seed's uncached behavior.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from ..config import (
    DisplayControllerConfig,
    DramConfig,
    EdpConfig,
    GpuConfig,
    OrchestrationConfig,
    PanelConfig,
    Resolution,
    SystemConfig,
    VideoDecoderConfig,
)
from ..errors import ConfigurationError
from ..obs import dist
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..pipeline import sim
from ..pipeline.sim import RunResult, RunStats
from ..pipeline.timeline import (
    ClassTotals,
    PanelMode,
    Segment,
    SegmentClass,
    Timeline,
    TimelineSummary,
    VdMode,
)
from ..soc.cstates import PackageCState

#: On-disk payload schema version; bump on any layout change so stale
#: cache files read as misses instead of garbage.  Format 4 carries the
#: online timeline summary, an optional segment list
#: (``retain="summary"`` runs persist without one) and the
#: content-attribute columns (segment ``apl``, class ``apl_seconds``).
_DISK_FORMAT = 4

#: Default number of runs the in-process LRU retains.
DEFAULT_CAPACITY = 128


# ---------------------------------------------------------------------------
# Run (de)serialization — exact JSON round-trip for the disk layer
# ---------------------------------------------------------------------------

#: Dataclasses reachable from a SystemConfig, by class name.
_CONFIG_TYPES = {
    cls.__name__: cls
    for cls in (
        SystemConfig,
        PanelConfig,
        EdpConfig,
        DramConfig,
        VideoDecoderConfig,
        GpuConfig,
        DisplayControllerConfig,
        OrchestrationConfig,
        Resolution,
    )
}


def _config_to_payload(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            payload[f.name] = _config_to_payload(getattr(value, f.name))
        return payload
    return value


def _config_from_payload(payload: Any) -> Any:
    if isinstance(payload, dict) and "__type__" in payload:
        cls = _CONFIG_TYPES[payload["__type__"]]
        return cls(
            **{
                name: _config_from_payload(value)
                for name, value in payload.items()
                if name != "__type__"
            }
        )
    return payload


def _segment_to_record(segment: Segment) -> list[Any]:
    return [
        segment.start,
        segment.end,
        segment.state.name,
        segment.label,
        segment.transition,
        segment.dram_read_bw,
        segment.dram_write_bw,
        segment.edp_rate,
        segment.cpu_active,
        segment.gpu_active,
        segment.vd_mode.name,
        segment.dc_active,
        segment.panel_mode.name,
        segment.drfb_active,
        segment.apl,
    ]


def _segment_from_record(record: list[Any]) -> Segment:
    return Segment(
        start=record[0],
        end=record[1],
        state=PackageCState[record[2]],
        label=record[3],
        transition=record[4],
        dram_read_bw=record[5],
        dram_write_bw=record[6],
        edp_rate=record[7],
        cpu_active=record[8],
        gpu_active=record[9],
        vd_mode=VdMode[record[10]],
        dc_active=record[11],
        panel_mode=PanelMode[record[12]],
        drfb_active=record[13],
        apl=record[14],
    )


def _class_to_record(
    cls_key: SegmentClass, totals: ClassTotals
) -> list[Any]:
    return [
        cls_key.state.name,
        cls_key.transition,
        cls_key.cpu_active,
        cls_key.gpu_active,
        cls_key.vd_mode.name,
        cls_key.dc_active,
        cls_key.panel_mode.name,
        cls_key.drfb_active,
        cls_key.edp_active,
        cls_key.label,
        cls_key.window_kind,
        totals.seconds,
        totals.segments,
        totals.dram_read_bytes,
        totals.dram_write_bytes,
        totals.edp_bytes,
        totals.apl_seconds,
    ]


def _class_from_record(
    record: list[Any],
) -> tuple[SegmentClass, ClassTotals]:
    cls_key = SegmentClass(
        state=PackageCState[record[0]],
        transition=record[1],
        cpu_active=record[2],
        gpu_active=record[3],
        vd_mode=VdMode[record[4]],
        dc_active=record[5],
        panel_mode=PanelMode[record[6]],
        drfb_active=record[7],
        edp_active=record[8],
        label=record[9],
        window_kind=record[10],
    )
    totals = ClassTotals(
        seconds=record[11],
        segments=record[12],
        dram_read_bytes=record[13],
        dram_write_bytes=record[14],
        edp_bytes=record[15],
        apl_seconds=record[16],
    )
    return cls_key, totals


def _summary_to_payload(summary: TimelineSummary) -> dict[str, Any]:
    return {
        "start": summary.start,
        "end": summary.end,
        "windows": summary.windows,
        "window_counts": dict(summary.window_counts),
        # JSON object keys must be strings; durations ride as pairs.
        "window_durations": [
            [duration, count]
            for duration, count in summary.window_durations.items()
        ],
        "buckets": [
            _class_to_record(cls_key, totals)
            for cls_key, totals in summary.buckets.items()
        ],
    }


def _summary_from_payload(payload: dict[str, Any]) -> TimelineSummary:
    return TimelineSummary(
        start=payload["start"],
        end=payload["end"],
        windows=payload["windows"],
        window_counts=dict(payload["window_counts"]),
        window_durations={
            duration: count
            for duration, count in payload["window_durations"]
        },
        buckets=dict(
            _class_from_record(record) for record in payload["buckets"]
        ),
    )


def run_to_payload(run: RunResult) -> dict[str, Any]:
    """A :class:`RunResult` as a JSON-ready dictionary that
    :func:`run_from_payload` restores exactly (floats round-trip
    bit-for-bit through JSON's shortest-repr encoding).  Summary-only
    runs serialize with ``segments: null``."""
    return {
        "format": _DISK_FORMAT,
        "scheme": run.scheme,
        "video_fps": run.video_fps,
        "cache_key": run.cache_key,
        "config": _config_to_payload(run.config),
        "stats": dataclasses.asdict(run.stats),
        "segments": (
            None
            if run.timeline is None
            else [_segment_to_record(s) for s in run.timeline]
        ),
        "summary": (
            None
            if run.summary is None
            else _summary_to_payload(run.summary)
        ),
    }


def run_from_payload(payload: dict[str, Any]) -> RunResult:
    """Rebuild the exact :class:`RunResult` serialized by
    :func:`run_to_payload`."""
    if payload.get("format") != _DISK_FORMAT:
        raise ConfigurationError(
            f"unsupported cache payload format {payload.get('format')!r}"
        )
    segments = payload["segments"]
    summary = payload.get("summary")
    return RunResult(
        scheme=payload["scheme"],
        config=_config_from_payload(payload["config"]),
        timeline=(
            None
            if segments is None
            else Timeline([_segment_from_record(r) for r in segments])
        ),
        stats=RunStats(**payload["stats"]),
        video_fps=payload["video_fps"],
        summary=(
            None if summary is None else _summary_from_payload(summary)
        ),
        cache_key=payload["cache_key"],
    )


# ---------------------------------------------------------------------------
# The simulation cache
# ---------------------------------------------------------------------------


class SimulationCache:
    """Memoizes simulator runs by content hash.

    In-process entries live in an LRU bounded by ``capacity``; when
    ``directory`` is set, every stored run also persists as
    ``<key>.json`` under it (written atomically, so concurrent worker
    processes may share one directory).  Eviction never touches disk —
    delete the directory to reclaim space or force cold runs.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self.directory = Path(directory) if directory else None
        self._memory: OrderedDict[str, RunResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    @staticmethod
    def _detached(run: RunResult) -> RunResult:
        """A fresh view of ``run``: shared frozen segments, private
        mutable containers — callers can't corrupt the cached copy."""
        return RunResult(
            scheme=run.scheme,
            config=run.config,
            timeline=(
                None
                if run.timeline is None
                else Timeline(list(run.timeline.segments))
            ),
            stats=dataclasses.replace(run.stats),
            video_fps=run.video_fps,
            summary=(
                None if run.summary is None else run.summary.copy()
            ),
            cache_key=run.cache_key,
        )

    # -- the RunMemo protocol -------------------------------------------------

    @staticmethod
    def _observe(event: str, key: str, **attrs: Any) -> None:
        """Mirror one cache outcome into the tracer (when installed)
        and the always-on metrics registry."""
        tracer = obs_trace.active()
        if tracer is not None:
            tracer.event(f"cache.{event}", key=key[:12], **attrs)
        obs_metrics.registry().counter(
            f"cache.{event}", f"simulation cache {event} count"
        ).inc()

    @staticmethod
    def _latency(event: str) -> obs_metrics.Histogram:
        return obs_metrics.registry().histogram(
            f"cache.{event}_s",
            f"simulation cache {event} round-trip latency (s)",
            buckets=obs_metrics.LATENCY_BUCKETS,
        )

    def load(self, key: str) -> RunResult | None:
        """The memoized run for ``key``, or ``None`` on a miss."""
        started = time.perf_counter()
        try:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self._observe("hit", key, layer="memory")
                return self._detached(cached)
            run = self._load_disk(key)
            if run is not None:
                self._remember(key, run)
                self._observe("hit", key, layer="disk")
                return self._detached(run)
            self._observe("miss", key)
            return None
        finally:
            self._latency("load").observe(
                time.perf_counter() - started
            )

    def store(self, key: str, run: RunResult) -> None:
        """Record a freshly simulated run."""
        started = time.perf_counter()
        try:
            self._observe("store", key, windows=run.stats.windows)
            self._remember(key, self._detached(run))
            if self.directory is not None:
                self._store_disk(key, run)
        finally:
            self._latency("store").observe(
                time.perf_counter() - started
            )

    # -- internals ------------------------------------------------------------

    def _remember(self, key: str, run: RunResult) -> None:
        self._memory[key] = run
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _load_disk(self, key: str) -> RunResult | None:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return run_from_payload(payload)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError,
                ConfigurationError):
            # A stale or corrupt entry reads as a miss; drop it so the
            # next store rewrites a clean one.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def _store_disk(self, key: str, run: RunResult) -> None:
        assert self.directory is not None
        tmp_name: str | None = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                dir=self.directory,
                prefix=f".{key[:16]}-",
                suffix=".tmp",
                delete=False,
                encoding="utf-8",
            )
            tmp_name = handle.name
            with handle:
                json.dump(run_to_payload(run), handle)
                handle.flush()
                os.fsync(handle.fileno())
            # Atomic publish: readers only ever see a complete entry;
            # a crash mid-write leaves (at worst) an orphaned .tmp that
            # never shadows the real <key>.json.
            os.replace(tmp_name, self._path(key))
            tmp_name = None
        except (OSError, TypeError, ValueError):
            # Disk persistence is best-effort; the in-memory layer
            # already holds the run.
            pass
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    def clear(self, disk: bool = False) -> None:
        """Drop all in-memory entries (and, with ``disk=True``, every
        persisted ``*.json`` file under the directory)."""
        self._memory.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# Process-wide default cache
# ---------------------------------------------------------------------------


def configure_cache(
    directory: str | Path | None = None,
    capacity: int = DEFAULT_CAPACITY,
    enabled: bool = True,
) -> SimulationCache | None:
    """(Re)install the process-wide simulation cache.

    ``enabled=False`` removes memoization entirely; otherwise a fresh
    :class:`SimulationCache` (persisting under ``directory`` when
    given) becomes the active memo.  Returns the installed cache.
    """
    cache = (
        SimulationCache(directory=directory, capacity=capacity)
        if enabled else None
    )
    sim.install_run_memo(cache)
    return cache


def active_cache() -> SimulationCache | None:
    """The installed process-wide cache, if one is active."""
    memo = sim.active_run_memo()
    return memo if isinstance(memo, SimulationCache) else None


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily run with no memoization (parity tests, baselines)."""
    previous = sim.install_run_memo(None)
    try:
        yield
    finally:
        sim.install_run_memo(previous)


# Importing the engine activates the default in-memory cache; the
# REPRO_CACHE_DIR environment variable opts into disk persistence.
_env_dir = os.environ.get("REPRO_CACHE_DIR")
if sim.active_run_memo() is None:
    configure_cache(directory=_env_dir or None)


# ---------------------------------------------------------------------------
# The exhibit registry
# ---------------------------------------------------------------------------


def exhibit_registry() -> dict[str, Callable[..., Any]]:
    """Every regenerable exhibit, in the paper's presentation order.

    Each function takes ``seed_offset=`` (see :func:`run_exhibit`).

    Imported lazily so the registry can enumerate
    :mod:`repro.analysis.experiments` without an import cycle.
    """
    from . import experiments

    return {
        "fig01": experiments.fig01_energy_breakdown,
        "fig03": experiments.fig03_conventional_timeline,
        "fig04": experiments.fig04_browsing_then_streaming,
        "fig06": experiments.fig06_bypass_timeline,
        "fig07": experiments.fig07_burstlink_timeline,
        "table2": experiments.table2_power_comparison,
        "fig09": experiments.fig09_planar_reduction_30fps,
        "fig10": experiments.fig10_energy_breakdown_comparison,
        "fig11a": experiments.fig11a_vr_workloads,
        "fig11b": experiments.fig11b_vr_resolutions,
        "fig12": experiments.fig12_planar_reduction_60fps,
        "fig13": experiments.fig13_fbc_comparison,
        "sec64": experiments.sec64_related_work,
        "fig14a": experiments.fig14a_local_playback,
        "fig14b": experiments.fig14b_mobile_workloads,
        "standby": experiments.standby_ambient,
        "oled": experiments.oled_brightness_sweep,
        "netstream": experiments.network_streamed_playback,
    }


# ---------------------------------------------------------------------------
# Metrics + the fan-out engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentMetrics:
    """What one exhibit regeneration cost."""

    name: str
    wall_clock_s: float
    cache_hits: int
    cache_misses: int
    windows_simulated: int


#: The registry counter behind each cost field of an exhibit or fleet
#: shard.
_COST_COUNTERS = {
    "hits": "cache.hit",
    "misses": "cache.miss",
    "windows": "sim.windows",
}


def cost_counts() -> dict[str, int]:
    """The registry's running cache-hit, cache-miss and
    simulated-window counts; a task's cost is the delta of two reads
    (:func:`cost_since`)."""
    registry = obs_metrics.registry()
    return {
        key: int(registry.get(name).value) if name in registry else 0
        for key, name in _COST_COUNTERS.items()
    }


def cost_since(before: dict[str, int]) -> dict[str, int]:
    """The cost fields accrued since the :func:`cost_counts` read
    ``before``."""
    return {
        key: count - before[key]
        for key, count in cost_counts().items()
    }


@dataclass
class ExhibitOutcome:
    """One regenerated exhibit: its result object plus cost metrics."""

    name: str
    result: Any
    metrics: ExperimentMetrics = field(repr=False)


def run_exhibit(name: str, seed_offset: int = 0) -> ExhibitOutcome:
    """Regenerate one exhibit in-process, measuring its cost.

    ``seed_offset`` (>= 0) shifts every workload's content seed, so
    "seed s" means "every workload's content re-drawn under base seed
    + s"; 0 reproduces the canonical exhibits exactly.  Exhibit runs
    keep only their summaries (the simulator's default), except the
    ones that draw individual segments, which ask for ``"full"``.
    """
    registry = exhibit_registry()
    if name not in registry:
        raise ConfigurationError(
            f"unknown exhibit {name!r}; known: {', '.join(registry)}"
        )
    if seed_offset < 0:
        raise ConfigurationError("seed offset must be >= 0")
    before = cost_counts()
    tracer = obs_trace.active()
    started = time.perf_counter()
    if tracer is not None:
        with tracer.span("exhibit", exhibit=name):
            result = registry[name](seed_offset=seed_offset)
    else:
        result = registry[name](seed_offset=seed_offset)
    elapsed = time.perf_counter() - started
    cost = cost_since(before)
    metrics = obs_metrics.registry()
    metrics.counter("exhibit.runs", "exhibits regenerated").inc()
    metrics.histogram(
        "exhibit.wall_s", "wall-clock seconds per exhibit"
    ).observe(elapsed)
    return ExhibitOutcome(
        name=name,
        result=result,
        metrics=ExperimentMetrics(
            name=name,
            wall_clock_s=elapsed,
            cache_hits=cost["hits"],
            cache_misses=cost["misses"],
            windows_simulated=cost["windows"],
        ),
    )


def _apply_cache_dir(cache_dir: str | Path | None) -> None:
    """Point the process-wide cache at ``cache_dir`` (idempotent; a
    ``None`` directory leaves the current cache untouched, and a
    disabled memo stays disabled).  Every exhibit task calls it, in
    process or in a worker, so both agree on the layout."""
    if cache_dir is None or sim.active_run_memo() is None:
        return
    cache = active_cache()
    if cache is None or cache.directory != Path(cache_dir):
        configure_cache(directory=cache_dir)


def progress_fields(outcome: ExhibitOutcome) -> dict[str, Any]:
    """The progress-line cost fields of one outcome: wall clock,
    cache hits and misses, windows simulated."""
    m = outcome.metrics
    return {
        "wall_s": m.wall_clock_s,
        "hits": m.cache_hits,
        "misses": m.cache_misses,
        "windows": m.windows_simulated,
    }


@dataclass(frozen=True)
class ExhibitTask:
    """One exhibit regeneration as a :func:`repro.obs.dist.fan_out`
    task (picklable, so it runs the same in-process or in a worker)."""

    name: str
    seed_offset: int = 0
    cache_dir: str | None = None
    #: Progress name and ``metrics.name`` of the outcome, when not the
    #: exhibit name (the replication engine tags ``name@s<seed>``).
    label: str | None = None

    def __str__(self) -> str:
        return self.label or self.name


def run_exhibit_task(task: ExhibitTask) -> ExhibitOutcome:
    """Regenerate one exhibit under the task's cache directory and
    content-seed offset."""
    _apply_cache_dir(task.cache_dir)
    outcome = run_exhibit(task.name, seed_offset=task.seed_offset)
    if task.label is not None:
        outcome.metrics = dataclasses.replace(
            outcome.metrics, name=task.label
        )
    return outcome


def select_exhibits(
    names: tuple[str, ...] | list[str] | None,
) -> list[str]:
    """``names`` (default: the full registry) after checking each is a
    registered exhibit."""
    registry = exhibit_registry()
    selected = list(names) if names is not None else list(registry)
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise ConfigurationError(
            f"unknown exhibits: {', '.join(unknown)}"
        )
    return selected


def run_exhibits(
    names: tuple[str, ...] | list[str] | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    seed_offset: int = 0,
) -> list[ExhibitOutcome]:
    """Regenerate exhibits, fanning out over ``jobs`` worker processes.

    ``names`` defaults to the full registry.  Results are returned in
    request order and are bit-identical to a sequential run (every
    exhibit function is pure and deterministic).  ``cache_dir`` points
    all workers (and the sequential path) at one shared on-disk cache.
    ``seed_offset`` shifts every workload's content seed (see
    :func:`run_exhibit`); 0 reproduces the canonical exhibits exactly.

    The fan-out is :func:`repro.obs.dist.fan_out` under the
    ``"exhibits"`` namespace, so telemetry survives it: each worker
    task's trace events merge back into the calling process's tracer
    (one coherent stream, request order) and its metrics into the
    registry, so aggregated counters match a sequential run.
    ``progress``, when given, receives one line per exhibit start and
    finish.
    """
    tasks = [
        ExhibitTask(
            name,
            seed_offset=seed_offset,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )
        for name in select_exhibits(names)
    ]
    return dist.fan_out(
        "exhibits", tasks, run_exhibit_task, jobs,
        summarize=progress_fields, progress=progress,
    )


def metrics_table(outcomes: list[ExhibitOutcome]) -> str:
    """The per-exhibit cost summary as an aligned text table."""
    from .report import format_table

    rows = [
        (
            o.name,
            f"{o.metrics.wall_clock_s:.2f}",
            str(o.metrics.cache_hits),
            str(o.metrics.cache_misses),
            str(o.metrics.windows_simulated),
        )
        for o in outcomes
    ]
    rows.append(
        (
            "total",
            f"{sum(o.metrics.wall_clock_s for o in outcomes):.2f}",
            str(sum(o.metrics.cache_hits for o in outcomes)),
            str(sum(o.metrics.cache_misses for o in outcomes)),
            str(sum(o.metrics.windows_simulated for o in outcomes)),
        )
    )
    return format_table(
        ("exhibit", "wall s", "cache hits", "misses", "windows"), rows
    )
