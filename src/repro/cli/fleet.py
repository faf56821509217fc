"""Fleet commands: population sweeps and checkpoint reports."""

from __future__ import annotations

import argparse

from ..analysis.report import format_table
from ..errors import ReproError


def _fleet_summary_text(report: dict, stats: dict) -> str:
    """The fleet report as an aligned table plus a run-stats line."""
    fleet = report["fleet"]
    rows = []
    for label, block in fleet["schemes"].items():
        reduction = block.get("reduction")
        rows.append(
            (
                label,
                f"{block['win_rate']:.1%}",
                f"{block['power_mw']['p50']:.1f}",
                f"{block['battery_h']['p50']:.2f}",
                (
                    f"{reduction['mean']:.1%}"
                    if reduction is not None else "baseline"
                ),
            )
        )
    table = format_table(
        (
            "scheme",
            "win rate",
            "p50 power mW",
            "p50 battery h",
            "mean reduction",
        ),
        rows,
    )
    footer = (
        f"{fleet['devices']}/{fleet['spec']['devices']} devices"
        f" ({len(fleet['strata'])} strata)"
        f" | simulated {stats['devices_simulated']}"
        f" resumed {stats['devices_resumed']}"
        f" | {stats['workers']} worker(s)"
        f" in {stats['wall_s']:.2f}s"
    )
    return f"{table}\n{footer}"


def cmd_fleet_run(args: argparse.Namespace) -> str:
    """Run a fleet-scale population sweep from a scenario-matrix spec
    (Monte Carlo over devices, all schemes, streaming aggregates;
    checkpoints shard-atomically and resumes after any crash)."""
    from ..fleet import load_spec, run_fleet

    spec = load_spec(args.spec)
    if args.devices is not None:
        spec = spec.with_devices(args.devices)
    progress = None
    if args.progress:
        import sys

        def progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

    outcome = run_fleet(
        spec,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        progress=progress,
        cache_dir=args.cache_dir,
    )
    report_json = outcome.aggregate.report_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report_json)
    if args.json:
        return report_json.rstrip("\n")
    lines = []
    if args.out:
        lines.append(f"wrote {args.out}")
    lines.append(
        _fleet_summary_text(
            outcome.aggregate.report(), outcome.stats()
        )
    )
    return "\n".join(lines)


def cmd_fleet_report(args: argparse.Namespace) -> tuple[str, int]:
    """Render the population report held by a fleet checkpoint
    directory (exits non-zero while the run is still incomplete)."""
    from ..fleet.aggregate import FleetAggregate
    from ..fleet.checkpoint import FleetCheckpoint

    store = FleetCheckpoint(args.checkpoint)
    spec = store.load_spec()
    if spec is None:
        raise ReproError(
            f"{args.checkpoint} is not a fleet checkpoint "
            "(no spec.json)"
        )
    ranges = spec.shard_ranges()
    completed = {
        index
        for index in store.completed_shards()
        if index < len(ranges)
    }
    aggregate = FleetAggregate(spec)
    for index in sorted(completed):
        _, shard = store.read_shard(spec, index)
        aggregate.merge(shard)
    report = aggregate.report()
    report_json = aggregate.report_json()
    code = 0 if report["fleet"]["complete"] else 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report_json)
    if args.json:
        return report_json.rstrip("\n"), code
    stats = {
        "devices_simulated": 0,
        "devices_resumed": aggregate.devices,
        "workers": 0,
        "wall_s": 0.0,
    }
    lines = []
    if args.out:
        lines.append(f"wrote {args.out}")
    lines.append(_fleet_summary_text(report, stats))
    if code:
        lines.append(
            f"incomplete: {len(completed)}/{len(ranges)} shards "
            "checkpointed — finish with 'repro fleet run ... "
            "--resume'"
        )
    return "\n".join(lines), code


__all__ = ["cmd_fleet_report", "cmd_fleet_run"]
