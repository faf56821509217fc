"""Cross-process observability: worker telemetry, merges, progress.

Every process fan-out in the package — exhibit regeneration
(:func:`repro.analysis.runner.run_exhibits`), multi-seed replication
(:func:`repro.stats.replicate.replicate_exhibits`) and fleet shards
(:func:`repro.fleet.pool.run_fleet`) — goes through one entry point,
:func:`fan_out`.  It runs tasks in-process at ``jobs=1`` and over a
worker pool otherwise.  Worker tracer spans and metrics registries
would die with the worker, so each pool task runs under
:func:`run_worker_task`, which resets the worker's registry, records
the task under a fresh tracer when the parent is tracing, and returns
``(result, worker pid, events, registry snapshot)`` over the pool's
result pipe.  The parent merges what comes home in request order
(which equals sequential execution order): :func:`absorb_trace` folds
the task event groups into its tracer as one coherent stream, sequence
numbers renumbered to continue its own, and
:func:`merge_worker_metrics` folds every task's registry snapshot into
its registry (counters/gauges sum, histograms add bucket-wise).

Merged worker events carry three extra fields the in-process tracer
never emits: ``w`` (a stable 1-based worker index), ``task`` (the
task's position in the request order) and ``ns`` (the fan-out's
namespace).  The Chrome exporter renders ``w`` as one thread track per
worker; :func:`normalize_events` strips all three (and renumbers ids)
so a merged parallel trace compares byte-for-byte against a sequential
one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import ConfigurationError
from . import metrics as obs_metrics
from . import trace as obs_trace

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

#: Merged-event field carrying the 1-based worker index.
WORKER_FIELD = "w"
#: Merged-event field carrying the task's request-order position.
TASK_FIELD = "task"
#: Merged-event field carrying the fan-out's task namespace.  Task
#: indexes are only unique *within* one fan-out; when several fan-outs
#: of different kinds (figure exhibits, fleet shards) merge into one
#: parent trace, the namespace is what keeps ``(task, worker)`` groups
#: from colliding.
NAMESPACE_FIELD = "ns"

#: Attributes that describe execution topology rather than simulated
#: behavior — :func:`normalize_events` strips them so traces captured
#: at different ``--jobs`` settings compare equal.
VOLATILE_ATTRS = frozenset({"workers", "jobs"})


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def run_worker_task(
    thunk: Callable[[], Any], collect_trace: bool
) -> tuple[Any, int, list[dict[str, Any]], dict[str, Any]]:
    """Run one fan-out task in a pool worker.

    Resets the worker's metrics registry, so the returned snapshot
    holds this task's metrics only, and runs ``thunk`` under a fresh
    tracer when ``collect_trace``.  Returns ``(result, worker pid,
    trace events, registry snapshot)``.
    """
    registry = obs_metrics.registry()
    registry.reset()
    if not collect_trace:
        return thunk(), os.getpid(), [], registry.snapshot()
    with obs_trace.tracing() as tracer:
        result = thunk()
    return result, os.getpid(), tracer.events, registry.snapshot()


#: How often a pool worker checks that its parent is still alive (s).
PARENT_POLL_S = 0.5


def _init_worker(parent_pid: int) -> None:
    """Pool-worker initializer: exit once ``parent_pid`` is gone.

    A SIGKILLed parent never shuts its pool down, and an idle worker
    blocked on the task queue never sees EOF (forked siblings hold the
    queue's write end), so it would wait forever under init.  A daemon
    thread watches for the re-parenting instead.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def process_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool for fan-out work whose workers exit when this
    process dies, however it dies.  (``concurrent.futures`` loads
    ``multiprocessing`` and ``logging``, ~2 MB, so only processes that
    fan out import it.)"""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(os.getpid(),),
    )


def record_fanout(
    namespace: str, workers: int, selected: int
) -> None:
    """Record one fan-out dispatch under its namespace: a tracer event
    ``<namespace>.fanout`` (with worker/task counts as attributes) plus
    a ``<namespace>.fanouts`` counter increment.  Using the namespace
    as the metric/event prefix keeps figure-exhibit fan-outs and fleet
    shards distinguishable in merged traces and scraped metrics."""
    tracer = obs_trace.active()
    if tracer is not None:
        tracer.event(
            f"{namespace}.fanout",
            workers=workers,
            selected=selected,
        )
    obs_metrics.registry().counter(
        f"{namespace}.fanouts", f"{namespace} fan-out dispatches"
    ).inc()


# ---------------------------------------------------------------------------
# Parent side: merging
# ---------------------------------------------------------------------------


@dataclass
class TaskGroup:
    """One task's events as recorded by one worker."""

    worker_id: int
    task: int
    namespace: str
    events: list[dict[str, Any]] = field(default_factory=list)


def merge_groups(
    groups: list[TaskGroup],
    base_seq: int = 0,
    parent_span: int | None = None,
) -> list[dict[str, Any]]:
    """Renumber task groups into one stream starting at ``base_seq``.

    Sequence numbers (and the ``span``/``parent`` references built on
    them) are rewritten to be globally unique and strictly increasing;
    worker ids are replaced by stable 1-based indexes in the ``w``
    field; ``parent_span``, when given, adopts each group's root events
    (so a fan-out traced inside an enclosing span nests under it).
    """
    worker_index = {
        worker: index
        for index, worker in enumerate(
            sorted({group.worker_id for group in groups}), start=1
        )
    }
    merged: list[dict[str, Any]] = []
    seq = base_seq
    for group in groups:
        mapping: dict[int, int] = {}
        for event in group.events:
            record = dict(event)
            mapping[record["seq"]] = seq
            record["seq"] = seq
            seq += 1
            if "span" in record:
                record["span"] = mapping[record["span"]]
            if "parent" in record:
                record["parent"] = mapping[record["parent"]]
            elif parent_span is not None:
                record["parent"] = parent_span
            record[WORKER_FIELD] = worker_index[group.worker_id]
            record[TASK_FIELD] = group.task
            record[NAMESPACE_FIELD] = group.namespace
            merged.append(record)
    return merged


def absorb_trace(
    tracer: obs_trace.Tracer, groups: list[TaskGroup]
) -> int:
    """Merge task groups (in request order) into ``tracer`` as one
    coherent stream; returns the number of events absorbed."""
    merged = merge_groups(
        groups,
        base_seq=tracer.next_seq,
        parent_span=tracer.innermost_open_span,
    )
    tracer.ingest(merged)
    return len(merged)


def merge_worker_metrics(
    registry: obs_metrics.MetricsRegistry,
    snapshots: list[dict[str, Any]],
) -> int:
    """Fold per-task registry snapshots into ``registry``; returns
    the number of snapshots merged."""
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return len(snapshots)


# ---------------------------------------------------------------------------
# Normalization — comparing traces across --jobs settings
# ---------------------------------------------------------------------------


def normalize_events(
    events: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """A canonical view of an event stream for structural comparison.

    Sequence numbers (and ``span``/``parent`` references) renumber from
    zero in stream order, worker/task tags drop, and
    :data:`VOLATILE_ATTRS` strip from attributes — after which a merged
    ``--jobs N`` trace of a deterministic run is byte-identical to the
    sequential trace of the same work.
    """
    normalized: list[dict[str, Any]] = []
    mapping: dict[int, int] = {}
    for index, event in enumerate(events):
        record = {
            key: value
            for key, value in event.items()
            if key
            not in (WORKER_FIELD, TASK_FIELD, NAMESPACE_FIELD)
        }
        mapping[record["seq"]] = index
        record["seq"] = index
        if "span" in record:
            record["span"] = mapping.get(
                record["span"], record["span"]
            )
        if "parent" in record:
            parent = mapping.get(record["parent"])
            if parent is None:
                del record["parent"]
            else:
                record["parent"] = parent
        attrs = record.get("attrs")
        if attrs:
            kept = {
                key: value
                for key, value in attrs.items()
                if key not in VOLATILE_ATTRS
            }
            if kept:
                record["attrs"] = kept
            else:
                record.pop("attrs", None)
        normalized.append(record)
    return normalized


def normalized_jsonl(events: list[dict[str, Any]]) -> str:
    """The normalized stream in the tracer's canonical JSONL form."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in normalize_events(events)
    )


# ---------------------------------------------------------------------------
# The live progress surface
# ---------------------------------------------------------------------------


class ProgressMonitor:
    """Renders fan-out progress lines through ``sink``.

    The fan-out calls :meth:`start` as it runs or submits a task and
    :meth:`finish` as the task's result lands, so ``--progress`` reads
    the same at any ``--jobs``.
    """

    def __init__(
        self,
        sink: Callable[[str], None],
        total: int,
    ) -> None:
        self.sink = sink
        self.total = total
        self.done = 0

    def start(self, name: str) -> None:
        """Render one task's start."""
        self.sink(f"{name} started")

    def finish(
        self, name: str, worker: int, summary: dict[str, Any]
    ) -> None:
        """Render one task's completion on ``worker`` (0 in-process);
        ``summary`` carries the optional cost fields."""
        self.done += 1
        cost = ""
        if "wall_s" in summary:
            cost = (
                f" in {summary['wall_s']:.2f}s "
                f"(hits={summary.get('hits', 0)} "
                f"misses={summary.get('misses', 0)} "
                f"windows={summary.get('windows', 0)})"
            )
        self.sink(
            f"[{self.done}/{self.total}] {name} done{cost} "
            f"[worker {worker}]"
        )


# ---------------------------------------------------------------------------
# The fan-out
# ---------------------------------------------------------------------------


def fanout_workers(jobs: int, tasks: int) -> int:
    """The worker processes a fan-out of ``tasks`` tasks spawns at
    ``jobs`` (1 means the tasks run in-process)."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return 1 if jobs == 1 or tasks <= 1 else min(jobs, tasks)


def _pool_task(
    run: Callable[[Any], Any],
    task: Any,
    collect_trace: bool,
    disable_memo: bool,
) -> tuple[Any, int, list[dict[str, Any]], dict[str, Any]]:
    """Worker entry point: ``run(task)`` under :func:`run_worker_task`,
    with memoization off when the parent ran without it."""
    if disable_memo:
        from ..pipeline import sim

        sim.install_run_memo(None)
    return run_worker_task(partial(run, task), collect_trace)


def fan_out(
    namespace: str,
    tasks: Sequence[Any],
    run: Callable[[Any], Any],
    jobs: int,
    summarize: Callable[[Any], dict[str, Any]] | None = None,
    progress: Callable[[str], None] | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Run ``run(task)`` for every task; results come back in request
    order.

    At one worker (see :func:`fanout_workers`) the tasks run in-process
    in order; otherwise they spread over :func:`process_pool`, one task
    per free worker, and once the last result lands every task's trace
    events merge into the active tracer and its metrics into the
    process registry, in request order.  Either way the fan-out is
    recorded under ``namespace`` (:func:`record_fanout`), each task
    renders a start and a done line named ``str(task)`` (the done line
    extended with ``summarize(result)``) to ``progress`` when one is
    given, and ``on_result(index, result)`` fires in the calling
    process as each task completes.

    ``run`` and the tasks must be picklable for the pool path;
    ``summarize`` and ``on_result`` only run in the calling process.
    A raising task propagates once the tasks in flight end.
    """
    tasks = list(tasks)
    workers = fanout_workers(jobs, len(tasks))
    record_fanout(namespace, workers=workers, selected=len(tasks))
    monitor = (
        ProgressMonitor(progress, total=len(tasks))
        if progress is not None
        else None
    )
    results: list[Any] = [None] * len(tasks)

    def land(index: int, result: Any, worker: int) -> None:
        if monitor is not None:
            monitor.finish(
                str(tasks[index]),
                worker,
                summarize(result) if summarize is not None else {},
            )
        if on_result is not None:
            on_result(index, result)
        results[index] = result

    if workers == 1:
        for index, task in enumerate(tasks):
            if monitor is not None:
                monitor.start(str(task))
            land(index, run(task), 0)
        return results

    from ..pipeline import sim

    tracer = obs_trace.active()
    worker_task = partial(
        _pool_task,
        run,
        collect_trace=tracer is not None,
        disable_memo=sim.active_run_memo() is None,
    )
    from concurrent.futures import FIRST_COMPLETED, wait as futures_wait

    telemetry: list[Any] = [None] * len(tasks)
    queue = iter(enumerate(tasks))
    with process_pool(workers) as pool:
        in_flight: dict[Future, int] = {}

        def submit() -> None:
            entry = next(queue, None)
            if entry is not None:
                index, task = entry
                if monitor is not None:
                    monitor.start(str(task))
                in_flight[pool.submit(worker_task, task)] = index

        for _ in range(workers):
            submit()
        while in_flight:
            finished, _ = futures_wait(
                in_flight, return_when=FIRST_COMPLETED
            )
            for future in sorted(finished, key=in_flight.__getitem__):
                index = in_flight.pop(future)
                result, worker, events, snapshot = future.result()
                telemetry[index] = (worker, events, snapshot)
                land(index, result, worker)
                submit()
    if tracer is not None:
        absorb_trace(
            tracer,
            [
                TaskGroup(worker, index, namespace, events)
                for index, (worker, events, _) in enumerate(telemetry)
                if events
            ],
        )
    merge_worker_metrics(
        obs_metrics.registry(),
        [snapshot for _, _, snapshot in telemetry],
    )
    return results


__all__ = [
    "NAMESPACE_FIELD",
    "TASK_FIELD",
    "VOLATILE_ATTRS",
    "WORKER_FIELD",
    "ProgressMonitor",
    "TaskGroup",
    "absorb_trace",
    "fan_out",
    "fanout_workers",
    "merge_groups",
    "merge_worker_metrics",
    "normalize_events",
    "normalized_jsonl",
    "record_fanout",
    "run_worker_task",
]
