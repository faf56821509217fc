"""The multi-seed replication engine.

One replication = the cross product of exhibits × seed offsets, fanned
through the same substrate a single-seed regeneration uses: the
:mod:`repro.analysis.runner` exhibit task, :func:`repro.obs.dist.fan_out`
(worker trace events and metrics merged home, progress lines —
namespace ``"stats"``), and the process-wide
:class:`~repro.analysis.runner.SimulationCache`.  Seed offsets shift
every workload's content seed at once (each task passes its offset to
:func:`repro.analysis.runner.run_exhibit`), so distinct seeds
simulate distinct frame sequences while seed-invariant exhibits re-hit
the cache — the per-task cache counters in the replication's metrics
make that dedup visible.

:func:`replicate_exhibits` feeds the figure registry
(:mod:`repro.analysis.figures`) — per-metric samples across seeds,
bootstrap interval estimates, and BurstLink-vs-conventional effect
sizes — and the drift gate's interval mode
(:func:`repro.obs.drift.check_drift_interval`), which reads one sample
per seed for every anchor from the same results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigurationError
from ..obs import dist
from .bootstrap import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    IntervalEstimate,
    cohens_d,
    estimate_metrics,
)

#: Fan-out namespace for replications (merged worker trace events are
#: tagged with it, distinguishing a ``repro stats run`` from a plain
#: ``repro figures`` in one trace).
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


def replicate_exhibits(
    names: tuple[str, ...] | list[str] | None = None,
    seeds: int = 2,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> Replication:
    """Regenerate exhibits under seed offsets ``0 .. seeds-1``.

    The task list is the exhibit × seed cross product, exhibit-major so
    one exhibit's replicas run back to back (seed-invariant exhibits
    then re-hit the in-process cache immediately).  The tasks are the
    ones :func:`repro.analysis.runner.run_exhibits` fans out, run
    through :func:`repro.obs.dist.fan_out` under the ``"stats"``
    namespace.
    """
    from ..analysis.runner import (
        ExhibitTask,
        progress_fields,
        select_exhibits,
        run_exhibit_task,
    )

    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    selected = select_exhibits(names)
    tasks = [
        ExhibitTask(
            name,
            seed_offset=seed,
            cache_dir=None if cache_dir is None else str(cache_dir),
            label=_task_label(name, seed),
        )
        for name in selected
        for seed in range(seeds)
    ]
    outcomes = dist.fan_out(
        STATS_NAMESPACE, tasks, run_exhibit_task, jobs,
        summarize=progress_fields, progress=progress,
    )
    results: dict[str, list[Any]] = {name: [] for name in selected}
    for outcome in outcomes:
        results[outcome.name].append(outcome.result)
    return Replication(
        seeds=seeds, outcomes=outcomes, results=results
    )
