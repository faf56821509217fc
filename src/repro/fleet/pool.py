"""The fleet engine: shard fan-out, checkpointing, and resume.

``run_fleet`` splits the device range into contiguous shards
(``spec.shard_size`` devices each), simulates every shard the
checkpoint does not already hold, and folds the shard aggregates —
always in shard-index order, so float addition happens in one fixed
order and an interrupted-and-resumed run reports byte-identically to
an uninterrupted one.

Parallel runs reuse the :mod:`repro.obs.dist` shard protocol under the
``"fleet"`` task namespace: worker trace shards merge back into the
parent tracer without colliding with figure-exhibit fan-outs, worker
metrics registries fold into the parent registry, and start/done
heartbeats stream the live ``--progress`` surface.  Fleet counters
(``fleet.devices_simulated``, ``fleet.shards_completed``, ...) flow
through the process-wide registry and out the existing Prometheus
exposition.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait as futures_wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..analysis import runner
from ..errors import ConfigurationError
from ..obs import dist
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..pipeline import sim
from .aggregate import FleetAggregate
from .checkpoint import FleetCheckpoint
from .sampler import sample_device, simulate_device
from .spec import FleetSpec, spec_from_dict

#: The dist task namespace fleet shards run under.
FLEET_NAMESPACE = "fleet"

#: Minimum run-memo capacity for fleet work.  A fleet's distinct-run
#: count (matrix cells x content seeds x schemes) routinely exceeds
#: the default 128-entry LRU; an undersized memo would silently thrash
#: and re-simulate, so the engine widens it up front.
FLEET_CACHE_CAPACITY = 4096


@dataclass
class FleetOutcome:
    """What one ``run_fleet`` call produced."""

    aggregate: FleetAggregate
    devices_total: int = 0
    devices_simulated: int = 0
    devices_resumed: int = 0
    shards_total: int = 0
    shards_simulated: int = 0
    shards_resumed: int = 0
    workers: int = 1
    wall_s: float = 0.0
    checkpoint: str | None = None

    def stats(self) -> dict[str, Any]:
        """The run counters as a JSON-safe dict."""
        return {
            "devices_total": self.devices_total,
            "devices_simulated": self.devices_simulated,
            "devices_resumed": self.devices_resumed,
            "shards_total": self.shards_total,
            "shards_simulated": self.shards_simulated,
            "shards_resumed": self.shards_resumed,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "checkpoint": self.checkpoint,
        }


def _ensure_fleet_cache(cache_dir: str | Path | None) -> None:
    """Widen the process-wide run memo for fleet-scale reuse (and
    point it at ``cache_dir`` when given).  Leaves a deliberately
    disabled memo disabled, and never shrinks an existing cache."""
    cache = runner.active_cache()
    if cache is None:
        return
    directory = (
        Path(cache_dir) if cache_dir is not None else cache.directory
    )
    if (
        cache.capacity >= FLEET_CACHE_CAPACITY
        and cache.directory == directory
    ):
        return
    runner.configure_cache(
        directory=directory,
        capacity=max(cache.capacity, FLEET_CACHE_CAPACITY),
    )


def _simulate_range(
    spec: FleetSpec, start: int, stop: int
) -> FleetAggregate:
    """Simulate devices ``[start, stop)`` into a fresh aggregate."""
    aggregate = FleetAggregate(spec)
    devices = obs_metrics.registry().counter(
        "fleet.devices_simulated",
        "devices simulated (not resumed from a checkpoint)",
    )
    for index in range(start, stop):
        sample = sample_device(spec, index)
        aggregate.add_device(simulate_device(spec, sample))
        devices.inc()
    return aggregate


def _shard_heartbeat(
    wall_s: float,
    devices: int,
    before: "runner.CacheStats | None",
) -> dict[str, Any]:
    """The done-heartbeat payload for one shard (live-progress
    fields, advisory only — never part of the report)."""
    record: dict[str, Any] = {
        "wall_s": wall_s,
        "devices": devices,
    }
    cache = runner.active_cache()
    if cache is not None and before is not None:
        record["hits"] = cache.stats.hits - before.hits
        record["misses"] = cache.stats.misses - before.misses
        record["windows"] = (
            cache.stats.windows_simulated - before.windows_simulated
        )
    return record


def _shard_name(index: int, start: int, stop: int) -> str:
    return f"fleet shard {index} [{start}:{stop})"


def _fleet_shard_task(
    spec_payload: dict[str, Any],
    shard_index: int,
    start: int,
    stop: int,
    cache_dir: str | None,
    context: dist.TraceContext,
) -> dict[str, Any]:
    """Worker entry: simulate one shard under the dist protocol and
    return the shard aggregate as an exact JSON-safe payload."""
    spec = spec_from_dict(spec_payload)
    _ensure_fleet_cache(cache_dir)

    def thunk() -> dict[str, Any]:
        before = (
            runner.active_cache().stats.snapshot()
            if runner.active_cache() is not None
            else None
        )
        began = time.perf_counter()
        if context.disable_memo:
            with runner.cache_disabled():
                aggregate = _simulate_range(spec, start, stop)
        else:
            aggregate = _simulate_range(spec, start, stop)
        wall_s = time.perf_counter() - began
        obs_metrics.registry().counter(
            "fleet.shards_completed", "fleet shards simulated"
        ).inc()
        obs_metrics.registry().histogram(
            "fleet.shard_wall_s",
            "wall-clock seconds per fleet shard",
            buckets=obs_metrics.LATENCY_BUCKETS,
        ).observe(wall_s)
        payload = aggregate.to_payload()
        payload["_heartbeat"] = _shard_heartbeat(
            wall_s, stop - start, before
        )
        return payload

    return dist.run_worker_task(
        context,
        shard_index,
        _shard_name(shard_index, start, stop),
        thunk,
        summarize=lambda payload: payload.get("_heartbeat", {}),
    )


def run_fleet(
    spec: FleetSpec,
    jobs: int = 1,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
    cache_dir: str | Path | None = None,
) -> FleetOutcome:
    """Simulate the fleet, fanning shards over ``jobs`` processes.

    ``checkpoint`` names a directory to persist per-shard aggregates
    into (atomically, after each shard); ``resume=True`` continues
    from whatever shards that directory already holds.  The returned
    aggregate is always the in-order fold of every shard, checkpointed
    or fresh, so the report is a pure function of the spec.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if resume and checkpoint is None:
        raise ConfigurationError(
            "--resume requires a --checkpoint directory"
        )
    began = time.perf_counter()
    obs_metrics.registry().counter(
        "fleet.runs", "run_fleet invocations"
    ).inc()
    store = (
        FleetCheckpoint(checkpoint)
        if checkpoint is not None else None
    )
    if store is not None:
        store.initialize(spec, resume=resume)
    ranges = spec.shard_ranges()
    done = store.completed_shards() if store is not None else set()
    done = {index for index in done if index < len(ranges)}
    pending = [
        (index, start, stop)
        for index, (start, stop) in enumerate(ranges)
        if index not in done
    ]
    outcome = FleetOutcome(
        aggregate=FleetAggregate(spec),
        devices_total=spec.devices,
        devices_resumed=sum(
            ranges[index][1] - ranges[index][0] for index in done
        ),
        shards_total=len(ranges),
        shards_resumed=len(done),
        checkpoint=str(checkpoint) if checkpoint else None,
    )
    if done:
        obs_metrics.registry().counter(
            "fleet.devices_resumed",
            "devices restored from checkpoint shards",
        ).inc(outcome.devices_resumed)
        obs_metrics.registry().counter(
            "fleet.shards_resumed",
            "shards restored from a checkpoint",
        ).inc(len(done))
    sequential = jobs == 1 or len(pending) <= 1
    workers = 1 if sequential else min(jobs, len(pending))
    outcome.workers = workers
    dist.record_fanout(
        FLEET_NAMESPACE, workers=workers, selected=len(pending)
    )
    monitor = (
        dist.ProgressMonitor(progress, total=len(pending))
        if progress is not None
        else None
    )
    fresh: dict[int, dict[str, Any]] = {}
    cache_dir_arg = None if cache_dir is None else str(cache_dir)
    if sequential:
        _ensure_fleet_cache(cache_dir)
        # When REPRO_HEARTBEAT_DIR pins a telemetry plane, the
        # sequential path publishes the same start/done heartbeats the
        # worker-pool path streams, so `repro serve` sees it live.
        emit_heartbeat = dist.pinned_heartbeat_emitter(FLEET_NAMESPACE)
        for index, start, stop in pending:
            name = _shard_name(index, start, stop)
            start_record = dist.progress_record("start", index, name)
            if emit_heartbeat is not None:
                emit_heartbeat(start_record)
            if monitor is not None:
                monitor.feed(start_record)
            before = (
                runner.active_cache().stats.snapshot()
                if runner.active_cache() is not None
                else None
            )
            shard_began = time.perf_counter()
            aggregate = _simulate_range(spec, start, stop)
            obs_metrics.registry().counter(
                "fleet.shards_completed", "fleet shards simulated"
            ).inc()
            obs_metrics.registry().histogram(
                "fleet.shard_wall_s",
                "wall-clock seconds per fleet shard",
                buckets=obs_metrics.LATENCY_BUCKETS,
            ).observe(time.perf_counter() - shard_began)
            fresh[index] = aggregate.to_payload()
            if store is not None:
                store.write_shard(index, start, stop, aggregate)
                store.write_cursor(
                    devices_done=outcome.devices_resumed
                    + sum(
                        stop_ - start_
                        for idx, start_, stop_ in pending
                        if idx in fresh
                    ),
                    shards_done=len(done) + len(fresh),
                    total_shards=len(ranges),
                )
            outcome.devices_simulated += stop - start
            outcome.shards_simulated += 1
            done_record = dist.progress_record(
                "done",
                index,
                name,
                **_shard_heartbeat(
                    time.perf_counter() - shard_began,
                    stop - start,
                    before,
                ),
            )
            if emit_heartbeat is not None:
                emit_heartbeat(done_record)
            if monitor is not None:
                monitor.feed(done_record)
    else:
        tracer = obs_trace.active()
        context = dist.new_context(
            collect_trace=tracer is not None,
            disable_memo=sim.active_run_memo() is None,
            heartbeat=monitor is not None,
            namespace=FLEET_NAMESPACE,
        )
        spec_payload = spec.to_payload()
        try:
            with dist.process_pool(workers) as pool:
                futures = {
                    pool.submit(
                        _fleet_shard_task,
                        spec_payload,
                        index,
                        start,
                        stop,
                        cache_dir_arg,
                        context,
                    ): (index, start, stop)
                    for index, start, stop in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = futures_wait(
                        remaining,
                        timeout=0.1 if monitor is not None else None,
                        return_when=FIRST_COMPLETED,
                    )
                    if monitor is not None:
                        monitor.poll(context)
                    for future in finished:
                        index, start, stop = futures[future]
                        payload = future.result()
                        payload.pop("_heartbeat", None)
                        fresh[index] = payload
                        outcome.devices_simulated += stop - start
                        outcome.shards_simulated += 1
                        if store is not None:
                            store.write_shard(
                                index,
                                start,
                                stop,
                                FleetAggregate.from_payload(
                                    spec, payload
                                ),
                            )
                            store.write_cursor(
                                devices_done=outcome.devices_resumed
                                + outcome.devices_simulated,
                                shards_done=len(done) + len(fresh),
                                total_shards=len(ranges),
                            )
                if monitor is not None:
                    monitor.poll(context)
            if tracer is not None:
                dist.absorb_trace(tracer, context)
            dist.merge_worker_metrics(
                obs_metrics.registry(), context
            )
        finally:
            dist.cleanup(context)
    # The one fold order: shard-index order, every shard, whether it
    # was restored from the checkpoint or simulated just now.
    for index, (start, stop) in enumerate(ranges):
        if index in fresh:
            shard = FleetAggregate.from_payload(spec, fresh[index])
        elif store is not None:
            (got_start, got_stop), shard = store.read_shard(
                spec, index
            )
            if (got_start, got_stop) != (start, stop):
                raise ConfigurationError(
                    f"checkpoint shard {index} covers "
                    f"[{got_start}:{got_stop}), expected "
                    f"[{start}:{stop}) — was the checkpoint taken "
                    "with a different shard_size?"
                )
        else:  # pragma: no cover - pending covers all without store
            raise ConfigurationError(
                f"shard {index} was neither simulated nor restored"
            )
        outcome.aggregate.merge(shard)
    outcome.wall_s = time.perf_counter() - began
    obs_metrics.registry().gauge(
        "fleet.devices_total", "devices covered by the last report"
    ).set(outcome.aggregate.devices)
    return outcome


__all__ = ["FLEET_NAMESPACE", "FleetOutcome", "run_fleet"]
