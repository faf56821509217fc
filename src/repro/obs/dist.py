"""Cross-process observability: trace shards, merges, heartbeats.

Every process fan-out in the package — exhibit regeneration
(:func:`repro.analysis.runner.run_exhibits`), multi-seed replication
(:func:`repro.stats.replicate.replicate_exhibits`) and fleet shards
(:func:`repro.fleet.pool.run_fleet`) — goes through one entry point,
:func:`fan_out`.  It runs tasks in-process at ``jobs=1`` and over a
worker pool otherwise; worker tracer spans and metrics registries would
die with the worker, so the pool path follows a shard protocol:

* the parent mints a :class:`TraceContext` (a picklable record naming a
  run id and a shard directory) and passes it to every worker task;
* each worker wraps its task in :func:`run_worker_task`: a fresh tracer
  per task, events appended to a per-worker JSONL *shard* (keyed by run
  id and worker id), the worker's metrics registry snapshot written
  alongside, and — under ``--progress`` — start/done *heartbeat* lines
  that the parent tails from the same private directory;
* after the pool drains, the parent calls :func:`absorb_trace` — shards
  merge into the parent tracer as one coherent stream, task groups
  ordered by request order (which equals sequential execution order)
  with sequence numbers renumbered to continue the parent's own — and
  :func:`merge_worker_metrics`, which folds every worker registry
  snapshot into the parent registry (counters/gauges sum, histograms
  add bucket-wise).

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
import shutil
import tempfile
import threading
import time
import uuid
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..errors import ConfigurationError
from . import metrics as obs_metrics
from . import trace as obs_trace

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

_SHARD_SUFFIX = ".shard.jsonl"
_METRICS_SUFFIX = ".metrics.json"
_HEARTBEAT_SUFFIX = ".hb.jsonl"


# ---------------------------------------------------------------------------
# The propagated context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """Everything a worker needs to ship telemetry home.

    Plain strings and booleans only, so the context pickles across any
    :mod:`multiprocessing` start method.
    """

    run_id: str
    shard_dir: str
    #: The fan-out's task-index namespace.  Task indexes from contexts
    #: with different namespaces never collide when their shards merge
    #: into the same parent trace.
    namespace: str
    #: Record a per-task tracer and write event shards.
    collect_trace: bool = True
    #: Run the task with simulator memoization disabled (propagates the
    #: parent's ``cache_disabled()`` state so traced parallel runs stay
    #: deterministic).
    disable_memo: bool = False
    #: Stream start/done heartbeat lines for the live progress surface.
    heartbeat: bool = False


def new_context(
    namespace: str,
    collect_trace: bool = True,
    disable_memo: bool = False,
    heartbeat: bool = False,
) -> TraceContext:
    """Mint a context for one fan-out under ``namespace``, creating its
    private temp shard directory."""
    return TraceContext(
        run_id=uuid.uuid4().hex[:12],
        shard_dir=tempfile.mkdtemp(prefix="repro-shards-"),
        namespace=namespace,
        collect_trace=collect_trace,
        disable_memo=disable_memo,
        heartbeat=heartbeat,
    )


def cleanup(context: TraceContext) -> None:
    """Remove the context's shard directory (best-effort)."""
    shutil.rmtree(context.shard_dir, ignore_errors=True)


def _worker_stem(context: TraceContext, worker_id: int) -> Path:
    return Path(context.shard_dir) / (
        f"{context.run_id}-w{worker_id:08d}"
    )


def shard_path(context: TraceContext, worker_id: int) -> Path:
    """Where worker ``worker_id`` appends its trace events."""
    return _worker_stem(context, worker_id).with_suffix(_SHARD_SUFFIX)


def metrics_path(context: TraceContext, worker_id: int) -> Path:
    """Where worker ``worker_id`` publishes its registry snapshot."""
    return _worker_stem(context, worker_id).with_suffix(
        _METRICS_SUFFIX
    )


def heartbeat_path(context: TraceContext, worker_id: int) -> Path:
    """Where worker ``worker_id`` appends progress heartbeats."""
    return _worker_stem(context, worker_id).with_suffix(
        _HEARTBEAT_SUFFIX
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _append_jsonl(path: Path, lines: Iterable[str]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _emit_heartbeat(
    context: TraceContext, worker_id: int, record: dict[str, Any]
) -> None:
    if not context.heartbeat:
        return
    try:
        _append_jsonl(
            heartbeat_path(context, worker_id),
            [json.dumps(record, sort_keys=True)],
        )
    except OSError:
        # Heartbeats are advisory; a full disk must not fail the task.
        pass


def _publish_metrics(context: TraceContext, worker_id: int) -> None:
    """Atomically overwrite this worker's cumulative registry snapshot
    (the last write, after its final task, is what the parent merges)."""
    path = metrics_path(context, worker_id)
    payload = json.dumps(
        obs_metrics.registry().snapshot(), sort_keys=True
    )
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=path.parent,
        prefix=f".{path.name}-",
        suffix=".tmp",
        delete=False,
        encoding="utf-8",
    )
    tmp_name = handle.name
    try:
        with handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        tmp_name = None
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


def run_worker_task(
    context: TraceContext,
    task_index: int,
    name: str,
    thunk: Callable[[], Any],
    summarize: Callable[[Any], dict[str, Any]] | None = None,
) -> Any:
    """Run one fan-out task under the shard protocol.

    Installs a fresh per-task tracer (when ``collect_trace``), runs
    ``thunk``, appends the captured events — each tagged with the task
    index — to this worker's shard, republishes the worker's metrics
    snapshot, and emits start/done heartbeats (``summarize`` maps the
    task's return value to the done-heartbeat payload).  Returns the
    thunk's result unchanged.
    """
    worker_id = os.getpid()
    ns_tag = {NAMESPACE_FIELD: context.namespace}
    _emit_heartbeat(
        context,
        worker_id,
        {
            "event": "start",
            "task": task_index,
            "name": name,
            "worker": worker_id,
            **ns_tag,
        },
    )
    tracer = obs_trace.Tracer() if context.collect_trace else None
    if tracer is not None:
        previous = obs_trace.install(tracer)
        try:
            result = thunk()
        finally:
            obs_trace.install(previous)
        _append_jsonl(
            shard_path(context, worker_id),
            (
                json.dumps(
                    {**event, TASK_FIELD: task_index, **ns_tag},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                for event in tracer.events
            ),
        )
    else:
        result = thunk()
    _publish_metrics(context, worker_id)
    done: dict[str, Any] = {
        "event": "done",
        "task": task_index,
        "name": name,
        "worker": worker_id,
        **ns_tag,
    }
    if summarize is not None:
        done.update(summarize(result))
    _emit_heartbeat(context, worker_id, done)
    return result


#: How often a pool worker checks that its parent is still alive (s).
PARENT_POLL_S = 0.5


def _init_worker(parent_pid: int) -> None:
    """Pool-worker initializer: start from an empty metrics registry,
    and exit once ``parent_pid`` is gone.

    A pool lives for one :func:`fan_out`, so a worker forked from the
    parent inherits its registry (and tracer) exactly once; resetting
    it here makes the worker's snapshot count only its own tasks, and
    nothing double-merges.  A SIGKILLed parent never shuts its pool
    down, and an idle worker blocked on the task queue never sees EOF
    (forked siblings hold the queue's write end), so it would wait
    forever under init.  A daemon thread watches for the re-parenting
    instead.
    """
    obs_metrics.registry().reset()

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def process_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool for fan-out work whose workers exit when this
    process dies, however it dies."""
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
# Parent side: shard reading and merging
# ---------------------------------------------------------------------------


@dataclass
class TaskGroup:
    """One task's events as recorded by one worker."""

    worker_id: int
    task: int
    namespace: str
    events: list[dict[str, Any]] = field(default_factory=list)


def read_shards(context: TraceContext) -> list[TaskGroup]:
    """Every shard in the context's directory, split into per-task
    groups and sorted by (namespace, task index) — within one
    namespace, task index is the request order, which is also the
    order a sequential run would have emitted them."""
    groups: dict[tuple[str, int, int], TaskGroup] = {}
    pattern = f"{context.run_id}-w*{_SHARD_SUFFIX}"
    for path in sorted(Path(context.shard_dir).glob(pattern)):
        worker_id = int(
            path.name[
                len(context.run_id) + 2 : -len(_SHARD_SUFFIX)
            ]
        )
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                task = int(event.pop(TASK_FIELD, 0))
                namespace = str(event.pop(NAMESPACE_FIELD))
                groups.setdefault(
                    (namespace, task, worker_id),
                    TaskGroup(worker_id, task, namespace),
                ).events.append(event)
    return [groups[key] for key in sorted(groups)]


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
    tracer: obs_trace.Tracer, context: TraceContext
) -> int:
    """Merge every worker shard into ``tracer`` as one coherent
    stream; returns the number of events absorbed."""
    merged = merge_groups(
        read_shards(context),
        base_seq=tracer.next_seq,
        parent_span=tracer.innermost_open_span,
    )
    tracer.ingest(merged)
    return len(merged)


def read_worker_metrics(
    context: TraceContext,
) -> list[dict[str, dict[str, Any]]]:
    """Every worker's published registry snapshot, in worker-id order."""
    snapshots = []
    pattern = f"{context.run_id}-w*{_METRICS_SUFFIX}"
    for path in sorted(Path(context.shard_dir).glob(pattern)):
        try:
            snapshots.append(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError):
            raise ConfigurationError(
                f"unreadable worker metrics snapshot {path}"
            ) from None
    return snapshots


def merge_worker_metrics(
    registry: obs_metrics.MetricsRegistry, context: TraceContext
) -> int:
    """Fold every worker registry snapshot into ``registry``; returns
    the number of worker snapshots merged."""
    snapshots = read_worker_metrics(context)
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


def tail_complete_lines(
    path: Path | str, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """New JSONL records appended to ``path`` past ``offset``.

    Built for files a live worker is still appending to: a torn final
    line (no trailing newline — the writer is mid-``write``) is left
    for the next poll rather than parsed or counted, complete lines
    that fail to parse are skipped, and an unreadable file reads as
    empty.  Returns ``(records, new_offset)`` where ``new_offset``
    covers exactly the complete lines consumed.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            payload = handle.read()
    except OSError:
        return [], offset
    records: list[dict[str, Any]] = []
    consumed = 0
    for line in payload.splitlines(keepends=True):
        # A writer may be mid-line; only complete lines parse.
        if not line.endswith(b"\n"):
            break
        consumed += len(line)
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, offset + consumed


class ProgressMonitor:
    """Streams fan-out progress lines from worker heartbeats.

    The parent polls :meth:`poll` while futures are pending; each new
    heartbeat line renders as one human-readable progress line through
    ``sink``.  The sequential path feeds the same records directly via
    :meth:`feed`, so ``--progress`` reads identically at any ``--jobs``.
    """

    def __init__(
        self,
        sink: Callable[[str], None],
        total: int,
    ) -> None:
        self.sink = sink
        self.total = total
        self.done = 0
        self._offsets: dict[Path, int] = {}

    def feed(self, record: dict[str, Any]) -> None:
        """Render one heartbeat record."""
        event = record.get("event")
        name = record.get("name", "?")
        worker = record.get("worker", 0)
        if event == "start":
            self.sink(f"{name} started [worker {worker}]")
        elif event == "done":
            self.done += 1
            cost = ""
            if "wall_s" in record:
                cost = (
                    f" in {record['wall_s']:.2f}s "
                    f"(hits={record.get('hits', 0)} "
                    f"misses={record.get('misses', 0)} "
                    f"windows={record.get('windows', 0)})"
                )
            self.sink(
                f"[{self.done}/{self.total}] {name} done{cost} "
                f"[worker {worker}]"
            )

    def poll(self, context: TraceContext) -> int:
        """Read any new heartbeat lines from the context's shard
        directory; returns how many records were rendered."""
        handled = 0
        pattern = f"{context.run_id}-w*{_HEARTBEAT_SUFFIX}"
        for path in sorted(Path(context.shard_dir).glob(pattern)):
            records, new_offset = tail_complete_lines(
                path, self._offsets.get(path, 0)
            )
            for record in records:
                self.feed(record)
                handled += 1
            self._offsets[path] = new_offset
        return handled


def progress_record(
    event: str,
    task_index: int,
    name: str,
    worker: int = 0,
    **extra: Any,
) -> dict[str, Any]:
    """A heartbeat record in the shard-protocol shape (the sequential
    path builds these inline instead of writing heartbeat files)."""
    return {
        "event": event,
        "task": task_index,
        "name": name,
        "worker": worker,
        **extra,
    }


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
    context: TraceContext,
    task_index: int,
    name: str,
    summarize: Callable[[Any], dict[str, Any]] | None,
) -> Any:
    """Worker entry point: ``run(task)`` under the shard protocol, with
    memoization off when the parent ran without it."""
    if context.disable_memo:
        from ..pipeline import sim

        sim.install_run_memo(None)
    return run_worker_task(
        context, task_index, name, partial(run, task),
        summarize=summarize,
    )


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
    in order; otherwise they spread over :func:`process_pool` under the
    shard protocol, and after the pool drains every worker's trace
    shards merge into the active tracer and its metrics into the
    process registry.  Either way the fan-out is recorded under
    ``namespace`` (:func:`record_fanout`), each task publishes a start
    and a done heartbeat named ``str(task)`` (the done record extended
    with ``summarize(result)``) to ``progress`` when one is given, and
    ``on_result(index, result)`` fires in the calling process as each
    task completes.

    ``run``, ``summarize`` and the tasks must be picklable for the pool
    path; ``on_result`` only runs in the calling process.
    """
    tasks = list(tasks)
    workers = fanout_workers(jobs, len(tasks))
    record_fanout(namespace, workers=workers, selected=len(tasks))
    monitor = (
        ProgressMonitor(progress, total=len(tasks))
        if progress is not None
        else None
    )
    if workers == 1:
        publish: Callable[[dict[str, Any]], None] = (
            monitor.feed if monitor is not None else lambda record: None
        )
        results = []
        for index, task in enumerate(tasks):
            name = str(task)
            publish(progress_record("start", index, name))
            result = run(task)
            summary = summarize(result) if summarize is not None else {}
            publish(progress_record("done", index, name, **summary))
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results

    from ..pipeline import sim

    tracer = obs_trace.active()
    context = new_context(
        namespace,
        collect_trace=tracer is not None,
        disable_memo=sim.active_run_memo() is None,
        heartbeat=monitor is not None,
    )
    results = [None] * len(tasks)
    try:
        with process_pool(workers) as pool:
            futures = {
                pool.submit(
                    _pool_task, run, task, context, index, str(task),
                    summarize,
                ): index
                for index, task in enumerate(tasks)
            }
            pending = set(futures)
            while pending:
                finished, pending = futures_wait(
                    pending,
                    timeout=0.1 if monitor is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                if monitor is not None:
                    monitor.poll(context)
                for future in sorted(finished, key=futures.__getitem__):
                    index = futures[future]
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index])
        if tracer is not None:
            absorb_trace(tracer, context)
        merge_worker_metrics(obs_metrics.registry(), context)
    finally:
        cleanup(context)
    return results


__all__ = [
    "NAMESPACE_FIELD",
    "TASK_FIELD",
    "TraceContext",
    "VOLATILE_ATTRS",
    "WORKER_FIELD",
    "absorb_trace",
    "cleanup",
    "fan_out",
    "fanout_workers",
    "heartbeat_path",
    "merge_groups",
    "merge_worker_metrics",
    "metrics_path",
    "new_context",
    "normalize_events",
    "normalized_jsonl",
    "progress_record",
    "read_shards",
    "read_worker_metrics",
    "record_fanout",
    "run_worker_task",
    "shard_path",
    "tail_complete_lines",
    "ProgressMonitor",
]
