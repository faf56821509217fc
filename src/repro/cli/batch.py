"""Batch commands: figure regeneration, multi-seed stats, bench-all."""

from __future__ import annotations

import argparse


def cmd_figures(args: argparse.Namespace) -> str:
    """Regenerate the evaluation figures.

    The default ``--format svg`` renders the six headline figures as
    SVG; ``--format vega`` emits every registered exhibit as a
    version-controllable Vega-Lite spec + CSV data pair (``--seeds N``
    replicates under N content seeds and layers bootstrap error bands
    over each chart); ``--format all`` does both."""
    from ..analysis.figures import write_exhibit_specs
    from ..analysis.svg import write_figures
    from ..errors import ConfigurationError

    if args.seeds > 1 and args.format == "svg":
        raise ConfigurationError(
            "--seeds needs the Vega-Lite emitter (error bands); use "
            "--format vega or --format all"
        )
    metrics: list = []
    progress = None
    if args.progress:
        import sys

        def progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

    def emit() -> list:
        written = []
        if args.format in ("svg", "all"):
            written.extend(
                write_figures(
                    args.out,
                    jobs=args.jobs,
                    metrics_sink=metrics,
                    progress=progress,
                )
            )
        if args.format in ("vega", "all"):
            written.extend(
                write_exhibit_specs(
                    args.out,
                    seeds=args.seeds,
                    jobs=args.jobs,
                    progress=progress,
                    metrics_sink=metrics,
                )
            )
        return written

    if args.trace:
        from ..analysis.runner import cache_disabled
        from ..obs.trace import tracing

        # Workers return each task's trace events (repro.obs.dist), so
        # --trace composes with --jobs.  Memoization is disabled for
        # the capture: cache hits skip simulation (and its spans), so
        # an uncached run is the only jobs-invariant trace.
        with cache_disabled(), tracing() as tracer:
            written = emit()
        tracer.write(args.trace)
    else:
        written = emit()
    lines = [f"wrote {path}" for path in written]
    # Each figure is one SVG file or one spec (+ its CSV data file).
    count = sum(1 for path in written if path.suffix != ".csv")
    lines.append(f"{count} figures in {args.out}")
    if args.trace:
        lines.append(f"wrote trace {args.trace}")
    if args.verbose:
        from ..analysis.runner import ExhibitOutcome, metrics_table

        lines.append("")
        lines.append(
            metrics_table(
                [ExhibitOutcome(m.name, None, m) for m in metrics]
            )
        )
    return "\n".join(lines)


def cmd_stats_run(args: argparse.Namespace) -> str:
    """Run the multi-seed replication engine: every selected exhibit
    under N content seeds, each metric summarized as mean, SD, and a
    bootstrap CI, plus BurstLink-vs-conventional effect sizes."""
    from ..stats import variance_table
    from ..stats.replicate import replicate_exhibits

    progress = None
    if args.progress:
        import sys

        def progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

    from ..analysis.figures import figure_registry

    figures = args.figure or sorted(figure_registry())
    exhibits = sorted(
        {figure_registry()[f].exhibit for f in figures}
    )
    replication = replicate_exhibits(
        exhibits,
        seeds=args.seeds,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=progress,
    )
    samples = replication.metric_samples(figures)
    estimates = replication.estimates(
        figures,
        confidence=args.confidence,
        resamples=args.resamples,
    )
    effects = replication.effect_sizes(samples)
    if args.out:
        from ..analysis.figures import (
            figure_records,
            get_figure,
            merge_seed_records,
            write_figure_files,
        )

        for name in figures:
            figure = get_figure(name)
            per_seed = [
                figure_records(figure, result)
                for result in replication.results[figure.exhibit]
            ]
            if args.seeds > 1:
                records = merge_seed_records(
                    figure, per_seed,
                    confidence=args.confidence,
                    resamples=args.resamples,
                )
            else:
                records = per_seed[0]
            write_figure_files(
                args.out, figure, records,
                interval=args.seeds > 1,
            )
    if args.json:
        import json as json_module
        import math as math_module

        payload = {
            "seeds": args.seeds,
            "confidence": args.confidence,
            "metrics": {
                key: est.to_dict()
                for key, est in estimates.items()
            },
            "effect_sizes": {
                key: (d if math_module.isfinite(d) else None)
                for key, d in effects.items()
            },
            "tasks": {
                o.metrics.name: {
                    "wall_s": o.metrics.wall_clock_s,
                    "cache_hits": o.metrics.cache_hits,
                    "cache_misses": o.metrics.cache_misses,
                }
                for o in replication.outcomes
            },
        }
        return json_module.dumps(payload, indent=2, sort_keys=True)
    from ..analysis.runner import metrics_table

    lines = [
        f"replication: {len(exhibits)} exhibits x {args.seeds} seeds "
        f"({args.confidence:.0%} bootstrap CIs)",
        "",
        variance_table(estimates),
    ]
    if effects:
        lines.append("")
        lines.append("effect sizes (Cohen's d, vs conventional):")
        lines.extend(
            f"  {key}: {value:+.2f}"
            for key, value in effects.items()
        )
    if args.out:
        lines.append("")
        lines.append(f"wrote Vega-Lite specs + CSVs to {args.out}")
    if args.verbose:
        lines.append("")
        lines.append(metrics_table(replication.outcomes))
    return "\n".join(lines)


def cmd_bench_all(args: argparse.Namespace) -> str:
    """Regenerate every exhibit through the parallel engine and report
    per-exhibit wall-clock, cache and window metrics."""
    from ..analysis.runner import run_exhibits, metrics_table

    outcomes = run_exhibits(
        names=args.only or None,
        jobs=args.jobs,
        cache_dir=None if args.no_cache_dir else args.cache_dir,
    )
    total = sum(o.metrics.wall_clock_s for o in outcomes)
    return "\n".join([
        metrics_table(outcomes),
        "",
        f"{len(outcomes)} exhibits in {total:.2f}s (jobs={args.jobs})",
    ])


__all__ = ["cmd_bench_all", "cmd_figures", "cmd_stats_run"]
