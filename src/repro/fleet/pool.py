"""The fleet engine: shard fan-out, checkpointing, and resume.

``run_fleet`` splits the device range into contiguous shards
(``spec.shard_size`` devices each), simulates every shard the
checkpoint does not already hold, and folds the shard aggregates —
always in shard-index order, so float addition happens in one fixed
order and an interrupted-and-resumed run reports byte-identically to
an uninterrupted one.

Shards fan out through :func:`repro.obs.dist.fan_out` under the
``"fleet"`` task namespace, and each is checkpointed the moment it
completes: worker trace events merge back into the parent tracer
without colliding with figure-exhibit fan-outs, worker metrics fold
into the parent registry, and the parent renders a start and a done
line per shard for ``--progress``.  Fleet counters
(``fleet.devices_simulated``, ``fleet.shards_completed``, ...) flow
through the process-wide registry and out the existing Prometheus
exposition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable

from ..analysis import runner
from ..errors import ConfigurationError
from ..obs import dist
from ..obs import metrics as obs_metrics
from .aggregate import FleetAggregate
from .checkpoint import FleetCheckpoint
from .sampler import sample_device, simulate_device
from .spec import FleetSpec

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


@dataclass(frozen=True)
class _Shard:
    """One shard of devices as a :func:`repro.obs.dist.fan_out` task."""

    spec: FleetSpec
    index: int
    start: int
    stop: int
    cache_dir: str | None

    def __str__(self) -> str:
        return f"fleet shard {self.index} [{self.start}:{self.stop})"


def _run_shard(
    shard: _Shard,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Simulate one shard; returns its aggregate as an exact JSON-safe
    payload plus its progress-line fields (advisory only, never part
    of the report)."""
    _ensure_fleet_cache(shard.cache_dir)
    before = runner.cost_counts()
    began = time.perf_counter()
    aggregate = _simulate_range(shard.spec, shard.start, shard.stop)
    wall_s = time.perf_counter() - began
    obs_metrics.registry().counter(
        "fleet.shards_completed", "fleet shards simulated"
    ).inc()
    obs_metrics.registry().histogram(
        "fleet.shard_wall_s",
        "wall-clock seconds per fleet shard",
        buckets=obs_metrics.LATENCY_BUCKETS,
    ).observe(wall_s)
    return aggregate.to_payload(), {
        "wall_s": wall_s,
        **runner.cost_since(before),
    }


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
    into (atomically, as each shard completes); ``resume=True``
    continues from whatever shards that directory already holds.  The
    returned aggregate is always the in-order fold of every shard,
    checkpointed or fresh, so the report is a pure function of the
    spec.
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
    cache_dir_arg = None if cache_dir is None else str(cache_dir)
    pending = [
        _Shard(spec, index, start, stop, cache_dir_arg)
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
        workers=dist.fanout_workers(jobs, len(pending)),
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
    fresh: dict[int, dict[str, Any]] = {}

    def completed(
        position: int, result: tuple[dict[str, Any], dict[str, Any]]
    ) -> None:
        # Checkpoint each shard the moment it lands, so a killed run
        # loses no completed shard.
        shard = pending[position]
        fresh[shard.index] = result[0]
        outcome.devices_simulated += shard.stop - shard.start
        outcome.shards_simulated += 1
        if store is not None:
            store.write_shard(
                shard.index,
                shard.start,
                shard.stop,
                FleetAggregate.from_payload(spec, result[0]),
            )
            store.write_cursor(
                devices_done=outcome.devices_resumed
                + outcome.devices_simulated,
                shards_done=len(done) + len(fresh),
                total_shards=len(ranges),
            )

    dist.fan_out(
        FLEET_NAMESPACE, pending, _run_shard, jobs,
        summarize=itemgetter(1), progress=progress,
        on_result=completed,
    )
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
