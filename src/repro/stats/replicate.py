"""The multi-seed replication engine.

One replication = the cross product of exhibits × seed offsets, fanned
through the same substrate a single-seed regeneration uses: the
:mod:`repro.analysis.runner` worker entry point, the
:mod:`repro.obs.dist` shard protocol (trace shards, heartbeats, merged
metrics — namespace ``"stats"``), and the process-wide
:class:`~repro.analysis.runner.SimulationCache`.  Seed offsets shift
every workload's content seed at once
(:func:`repro.analysis.experiments.set_seed_offset`), so distinct seeds
simulate distinct frame sequences while seed-invariant exhibits re-hit
the cache — the per-task cache counters in the replication's metrics
make that dedup visible.

:func:`replicate_exhibits` feeds the figure registry
(:mod:`repro.analysis.figures`): per-metric samples across seeds,
bootstrap interval estimates, and BurstLink-vs-conventional effect
sizes.  :func:`replicate_expectations` feeds the drift gate: the same
fan-out over :func:`repro.obs.drift.measure_expectations`, giving each
paper anchor a sample per seed.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import FIRST_COMPLETED, wait as futures_wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigurationError
from ..obs import dist
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..pipeline import sim
from .bootstrap import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    IntervalEstimate,
    cohens_d,
    estimate_metrics,
)

#: Shard-protocol namespace for replication fan-outs (worker heartbeats
#: and trace shards are tagged with it, distinguishing a ``repro stats
#: run`` from a plain ``repro figures`` in the telemetry plane).
STATS_NAMESPACE = "stats"

#: Treatment-vs-baseline metric pairs the effect-size report covers:
#: BurstLink against the conventional scheme, on the two exhibits that
#: expose both as same-unit scalars.
EFFECT_PAIRS: tuple[tuple[str, str], ...] = (
    ("table2.burstlink.all.avg_mw", "table2.baseline.all.avg_mw"),
    ("standby.burstlink.power_mw", "standby.conventional.power_mw"),
)


def _task_label(name: str, seed: int) -> str:
    return f"{name}@s{seed}"


@dataclass
class Replication:
    """Everything one multi-seed fan-out produced."""

    #: Number of seed offsets replicated (0 .. seeds-1; offset 0 is the
    #: canonical single-seed run).
    seeds: int
    #: One outcome per (exhibit, seed) task, exhibit-major order; each
    #: ``metrics.name`` carries the ``name@s<seed>`` task label.
    outcomes: "list[Any]"
    #: Exhibit name -> results ordered by seed offset.
    results: dict[str, list[Any]]

    def metric_samples(
        self, figures: list[str] | tuple[str, ...] | None = None
    ) -> dict[str, list[float]]:
        """Per-metric value lists (one entry per seed), keyed by the
        figure registry's metric keys."""
        from ..analysis import figures as figmod

        selected = (
            list(figures)
            if figures is not None
            else [
                name
                for name, figure in figmod.figure_registry().items()
                if figure.exhibit in self.results
            ]
        )
        samples: dict[str, list[float]] = {}
        for name in selected:
            figure = figmod.get_figure(name)
            for result in self.results[figure.exhibit]:
                for key, value in figmod.figure_metrics(
                    figure, result
                ).items():
                    samples.setdefault(key, []).append(value)
        return samples

    def estimates(
        self,
        figures: list[str] | tuple[str, ...] | None = None,
        confidence: float = DEFAULT_CONFIDENCE,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> dict[str, IntervalEstimate]:
        """A bootstrap :class:`IntervalEstimate` per metric."""
        return estimate_metrics(
            self.metric_samples(figures),
            confidence=confidence,
            resamples=resamples,
        )

    def effect_sizes(
        self,
        samples: dict[str, list[float]] | None = None,
    ) -> dict[str, float]:
        """Cohen's d for every :data:`EFFECT_PAIRS` pair present."""
        if samples is None:
            samples = self.metric_samples()
        return {
            f"{treatment} vs {baseline}": cohens_d(
                samples[treatment], samples[baseline]
            )
            for treatment, baseline in EFFECT_PAIRS
            if treatment in samples and baseline in samples
        }


def _relabel(outcome: Any, seed: int) -> Any:
    """Tag an outcome's metrics with its ``name@s<seed>`` task label
    (``outcome.name`` stays the exhibit name for grouping)."""
    from ..analysis.runner import ExhibitOutcome

    return ExhibitOutcome(
        name=outcome.name,
        result=outcome.result,
        metrics=dataclasses.replace(
            outcome.metrics,
            name=_task_label(outcome.name, seed),
        ),
    )


def replicate_exhibits(
    names: tuple[str, ...] | list[str] | None = None,
    seeds: int = 2,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    retain: str | None = None,
) -> Replication:
    """Regenerate exhibits under seed offsets ``0 .. seeds-1``.

    The task list is the exhibit × seed cross product, exhibit-major so
    one exhibit's replicas run back to back (seed-invariant exhibits
    then re-hit the in-process cache immediately).  ``jobs > 1`` fans
    tasks over a :class:`~concurrent.futures.ProcessPoolExecutor` under
    the ``"stats"`` dist namespace; telemetry merges back exactly as in
    :func:`repro.analysis.runner.run_exhibits`.
    """
    from ..analysis import experiments
    from ..analysis.runner import (
        _apply_cache_dir,
        _exhibit_task,
        _metrics_heartbeat,
        exhibit_registry,
        run_exhibit,
    )

    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    registry = exhibit_registry()
    selected = list(names) if names is not None else list(registry)
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise ConfigurationError(
            f"unknown exhibits: {', '.join(unknown)}"
        )
    tasks = [
        (name, seed) for name in selected for seed in range(seeds)
    ]
    sequential = jobs == 1 or len(tasks) <= 1
    workers = 1 if sequential else min(jobs, len(tasks))
    tracer = obs_trace.active()
    dist.record_fanout(
        STATS_NAMESPACE, workers=workers, selected=len(tasks)
    )
    monitor = (
        dist.ProgressMonitor(progress, total=len(tasks))
        if progress is not None
        else None
    )
    outcomes: list[Any] = []
    if sequential:
        _apply_cache_dir(cache_dir)
        previous_retain = (
            sim.set_default_retain(retain)
            if retain is not None else None
        )
        previous_offset = experiments.seed_offset()
        emit_heartbeat = dist.pinned_heartbeat_emitter(
            STATS_NAMESPACE
        )
        try:
            for index, (name, seed) in enumerate(tasks):
                label = _task_label(name, seed)
                start_record = dist.progress_record(
                    "start", index, label
                )
                if emit_heartbeat is not None:
                    emit_heartbeat(start_record)
                if monitor is not None:
                    monitor.feed(start_record)
                experiments.set_seed_offset(seed)
                outcome = _relabel(run_exhibit(name), seed)
                done_record = dist.progress_record(
                    "done", index, label,
                    **_metrics_heartbeat(outcome),
                )
                if emit_heartbeat is not None:
                    emit_heartbeat(done_record)
                if monitor is not None:
                    monitor.feed(done_record)
                outcomes.append(outcome)
        finally:
            experiments.set_seed_offset(previous_offset)
            if previous_retain is not None:
                sim.set_default_retain(previous_retain)
    else:
        context = dist.new_context(
            collect_trace=tracer is not None,
            disable_memo=sim.active_run_memo() is None,
            heartbeat=monitor is not None,
            namespace=STATS_NAMESPACE,
        )
        try:
            with dist.process_pool(workers) as pool:
                futures = [
                    pool.submit(
                        _exhibit_task,
                        name,
                        None if cache_dir is None else str(cache_dir),
                        context,
                        index,
                        retain,
                        seed,
                        _task_label(name, seed),
                    )
                    for index, (name, seed) in enumerate(tasks)
                ]
                if monitor is not None:
                    pending = set(futures)
                    while pending:
                        _, pending = futures_wait(
                            pending, timeout=0.1,
                            return_when=FIRST_COMPLETED,
                        )
                        monitor.poll(context)
                    monitor.poll(context)
                outcomes = [
                    _relabel(future.result(), seed)
                    for future, (_, seed) in zip(futures, tasks)
                ]
            if tracer is not None:
                dist.absorb_trace(tracer, context)
            dist.merge_worker_metrics(
                obs_metrics.registry(), context
            )
        finally:
            dist.cleanup(context)
    results: dict[str, list[Any]] = {name: [] for name in selected}
    for outcome in outcomes:
        results[outcome.name].append(outcome.result)
    return Replication(
        seeds=seeds, outcomes=outcomes, results=results
    )


# ---------------------------------------------------------------------------
# Drift-anchor replication
# ---------------------------------------------------------------------------


def _expectation_task(
    sections: tuple[str, ...],
    seed: int,
    context: Any = None,
    task_index: int = 0,
    cache_dir: str | None = None,
) -> dict[str, float]:
    """Worker entry point: one seed's worth of drift-anchor actuals."""
    from ..analysis import experiments
    from ..analysis.runner import _apply_cache_dir
    from ..obs import drift

    if context is not None and context.disable_memo:
        sim.install_run_memo(None)
    else:
        _apply_cache_dir(cache_dir)
    experiments.set_seed_offset(seed)
    if context is None:
        return drift.measure_expectations(sections)
    return dist.run_worker_task(
        context,
        task_index,
        _task_label("drift", seed),
        lambda: drift.measure_expectations(sections),
        summarize=lambda actuals: {"anchors": len(actuals)},
    )


def replicate_expectations(
    sections: tuple[str, ...] | None = None,
    seeds: int = 1,
    jobs: int = 1,
    library: Any = None,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, list[float]]:
    """Per-anchor actual-value samples across seed offsets.

    Each seed re-measures every drift anchor in ``sections`` under its
    shifted content seed; the returned lists feed
    :func:`repro.obs.drift.check_drift_interval`.  ``library``
    (an alternative calibrated power library, used by the perturbation
    tests) forces the sequential path — worker fan-out requires
    picklable defaults.
    """
    from ..analysis import experiments
    from ..obs import drift

    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    sections = (
        tuple(sections) if sections is not None
        else drift.DRIFT_SECTIONS
    )
    drift.expectations_for(sections)  # validates section names
    samples: dict[str, list[float]] = {}
    sequential = jobs == 1 or seeds <= 1 or library is not None
    workers = 1 if sequential else min(jobs, seeds)
    dist.record_fanout(
        STATS_NAMESPACE, workers=workers, selected=seeds
    )
    if sequential:
        previous_offset = experiments.seed_offset()
        try:
            per_seed = []
            for seed in range(seeds):
                if progress is not None:
                    progress(f"drift anchors, seed {seed}")
                experiments.set_seed_offset(seed)
                per_seed.append(
                    drift.measure_expectations(
                        sections, library=library
                    )
                )
        finally:
            experiments.set_seed_offset(previous_offset)
    else:
        tracer = obs_trace.active()
        monitor = (
            dist.ProgressMonitor(progress, total=seeds)
            if progress is not None
            else None
        )
        context = dist.new_context(
            collect_trace=tracer is not None,
            disable_memo=sim.active_run_memo() is None,
            heartbeat=monitor is not None,
            namespace=STATS_NAMESPACE,
        )
        try:
            with dist.process_pool(workers) as pool:
                futures = [
                    pool.submit(
                        _expectation_task,
                        sections,
                        seed,
                        context,
                        seed,
                        None if cache_dir is None else str(cache_dir),
                    )
                    for seed in range(seeds)
                ]
                if monitor is not None:
                    pending = set(futures)
                    while pending:
                        _, pending = futures_wait(
                            pending, timeout=0.1,
                            return_when=FIRST_COMPLETED,
                        )
                        monitor.poll(context)
                    monitor.poll(context)
                per_seed = [f.result() for f in futures]
            if tracer is not None:
                dist.absorb_trace(tracer, context)
            dist.merge_worker_metrics(
                obs_metrics.registry(), context
            )
        finally:
            dist.cleanup(context)
    for actuals in per_seed:
        for key, value in actuals.items():
            samples.setdefault(key, []).append(value)
    return samples
