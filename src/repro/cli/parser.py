"""The argument parser and process entry point.

Each command group lives in its own module; this module wires every
handler into one ``argparse`` tree and drives the exit code.
"""

from __future__ import annotations

import argparse

from ..errors import ReproError
from ._helpers import _RESOLUTIONS, _SCHEMES
from .batch import cmd_bench_all, cmd_figures, cmd_stats_run
from .exhibits import (
    cmd_constants,
    cmd_fig01,
    cmd_fig09,
    cmd_fig11,
    cmd_fig12,
    cmd_fig13,
    cmd_fig14,
    cmd_list,
    cmd_netstream,
    cmd_oled,
    cmd_sec64,
    cmd_standby,
    cmd_table2,
)
from .fleet import cmd_fleet_report, cmd_fleet_run
from .observe import (
    cmd_metrics,
    cmd_obs_chrome,
    cmd_obs_diff,
    cmd_profile,
    cmd_trace,
)
from .runs import cmd_battery, cmd_export, cmd_timeline
from .serve import cmd_serve
from .validate import cmd_validate


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate BurstLink (MICRO'21) paper exhibits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    from ..obs.drift import DRIFT_SECTIONS, SCENARIO_SECTIONS
    from ..obs.golden import GOLDEN_EXHIBITS

    exhibit_names = sorted(GOLDEN_EXHIBITS)
    all_sections = DRIFT_SECTIONS + SCENARIO_SECTIONS

    for name, handler in (
        ("list", cmd_list),
        ("constants", cmd_constants),
        ("table2", cmd_table2),
        ("fig01", cmd_fig01),
        ("fig09", cmd_fig09),
        ("fig11", cmd_fig11),
        ("fig12", cmd_fig12),
        ("fig13", cmd_fig13),
        ("fig14", cmd_fig14),
        ("sec64", cmd_sec64),
        ("oled", cmd_oled),
        ("netstream", cmd_netstream),
    ):
        sub = commands.add_parser(name, help=handler.__doc__)
        sub.set_defaults(handler=handler)

    validate = commands.add_parser(
        "validate", help=cmd_validate.__doc__
    )
    validate.add_argument(
        "--json", action="store_true",
        help="emit the validation + drift reports as JSON",
    )
    validate.add_argument(
        "--section", action="append", choices=all_sections,
        metavar="SECTION", default=None,
        help="check only these drift sections (repeatable; "
             f"choices: {', '.join(all_sections)})",
    )
    validate.add_argument(
        "--seeds", type=int, default=1,
        help="re-measure each anchor under this many content seeds "
             "and gate on bootstrap-CI/paper-band overlap (default 1: "
             "the exact point check)",
    )
    validate.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for anchor measurement",
    )
    validate.set_defaults(handler=cmd_validate)

    timeline = commands.add_parser(
        "timeline", help=cmd_timeline.__doc__
    )
    timeline.add_argument(
        "scheme", choices=sorted(_SCHEMES), help="display scheme"
    )
    timeline.add_argument(
        "--resolution", choices=sorted(_RESOLUTIONS), default="FHD"
    )
    timeline.add_argument("--fps", type=float, default=30.0)
    timeline.set_defaults(handler=cmd_timeline)

    standby = commands.add_parser("standby", help=cmd_standby.__doc__)
    standby.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated seconds (default 60)",
    )
    standby.add_argument(
        "--update-fps", type=float, default=0.2,
        help="content updates per second (default 0.2: every 5 s)",
    )
    standby.set_defaults(handler=cmd_standby)

    figures = commands.add_parser("figures", help=cmd_figures.__doc__)
    figures.add_argument(
        "--out", default="figures", help="output directory"
    )
    figures.add_argument(
        "--format", choices=("svg", "vega", "all"), default="svg",
        help="svg: the six headline SVG charts (default); vega: "
             "every exhibit as a Vega-Lite spec + CSV pair; all: both",
    )
    figures.add_argument(
        "--seeds", type=int, default=1,
        help="replicate exhibits under this many content seeds and "
             "layer bootstrap error bands over the Vega-Lite charts "
             "(requires --format vega/all)",
    )
    figures.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for exhibit regeneration",
    )
    figures.add_argument(
        "--verbose", action="store_true",
        help="print per-exhibit wall-clock and cache metrics",
    )
    figures.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL trace of the regeneration (composes with "
             "--jobs: worker events merge into one stream; runs "
             "uncached so the trace is jobs-invariant)",
    )
    figures.add_argument(
        "--progress", action="store_true",
        help="stream per-exhibit start/done lines to stderr",
    )
    figures.set_defaults(handler=cmd_figures)

    trace = commands.add_parser("trace", help=cmd_trace.__doc__)
    trace.add_argument(
        "exhibit",
        choices=exhibit_names,
        help="canonical traced run (see repro.obs.golden)",
    )
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the byte-stable JSONL trace to PATH",
    )
    trace.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also write a Chrome trace-event JSON (Perfetto / "
             "chrome://tracing loadable)",
    )
    trace.add_argument(
        "--metrics", action="store_true",
        help="append the process-wide metrics registry report",
    )
    trace.set_defaults(handler=cmd_trace)

    profile = commands.add_parser(
        "profile", help=cmd_profile.__doc__
    )
    profile.add_argument(
        "exhibit",
        choices=exhibit_names,
        help="canonical traced run (see repro.obs.golden)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the profile as JSON instead of aligned text",
    )
    profile.add_argument(
        "--retain", choices=("full", "summary"), default="full",
        help="capture retain mode (default full; 'summary' profiles "
             "the streaming-aggregation path, which keeps no "
             "per-segment timeline)",
    )
    profile.set_defaults(handler=cmd_profile)

    metrics = commands.add_parser(
        "metrics", help=cmd_metrics.__doc__
    )
    metrics.add_argument(
        "--exhibit", choices=exhibit_names, default=None,
        help="populate the registry by tracing this canonical run "
             "first",
    )
    metrics.add_argument(
        "--prom", action="store_true",
        help="emit the Prometheus text exposition format",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="emit the registry snapshot as JSON",
    )
    metrics.set_defaults(handler=cmd_metrics)

    obs = commands.add_parser(
        "obs",
        help="observability utilities: trace/profile diffing, "
             "Chrome conversion of merged traces",
    )
    obs_commands = obs.add_subparsers(
        dest="obs_command", required=True
    )
    obs_diff = obs_commands.add_parser(
        "diff", help=cmd_obs_diff.__doc__
    )
    obs_diff.add_argument(
        "a", help="baseline trace (.jsonl) or profile (.json)"
    )
    obs_diff.add_argument(
        "b", help="candidate trace (.jsonl) or profile (.json)"
    )
    obs_diff.add_argument(
        "--json", action="store_true",
        help="emit the diff as JSON",
    )
    obs_diff.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="relative tolerance for duration / numeric shifts "
             "(default 1e-9)",
    )
    obs_diff.set_defaults(handler=cmd_obs_diff)
    obs_chrome = obs_commands.add_parser(
        "chrome", help=cmd_obs_chrome.__doc__
    )
    obs_chrome.add_argument("trace", help="JSONL trace to convert")
    obs_chrome.add_argument(
        "out", help="Chrome trace-event JSON to write"
    )
    obs_chrome.set_defaults(handler=cmd_obs_chrome)

    fleet = commands.add_parser(
        "fleet",
        help="fleet-scale population simulation: run a scenario-"
             "matrix spec, report from a checkpoint",
    )
    fleet_commands = fleet.add_subparsers(
        dest="fleet_command", required=True
    )
    fleet_run = fleet_commands.add_parser(
        "run", help=cmd_fleet_run.__doc__
    )
    fleet_run.add_argument(
        "spec", help="fleet scenario-matrix spec (TOML)"
    )
    fleet_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for shard fan-out",
    )
    fleet_run.add_argument(
        "--devices", type=int, default=None,
        help="override the spec's device count (same population "
             "draw per device index)",
    )
    fleet_run.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="persist per-shard aggregates into DIR (atomic; the "
             "resume cursor is the set of completed shard files)",
    )
    fleet_run.add_argument(
        "--resume", action="store_true",
        help="continue from the shards already in --checkpoint "
             "(byte-identical final report)",
    )
    fleet_run.add_argument(
        "--progress", action="store_true",
        help="stream per-shard start/done lines to stderr",
    )
    fleet_run.add_argument(
        "--json", action="store_true",
        help="print the canonical report JSON instead of the table",
    )
    fleet_run.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the canonical report JSON to PATH",
    )
    fleet_run.add_argument(
        "--cache-dir", default=None,
        help="shared on-disk simulation cache directory",
    )
    fleet_run.set_defaults(handler=cmd_fleet_run)
    fleet_report = fleet_commands.add_parser(
        "report", help=cmd_fleet_report.__doc__
    )
    fleet_report.add_argument(
        "checkpoint", help="fleet checkpoint directory"
    )
    fleet_report.add_argument(
        "--json", action="store_true",
        help="print the canonical report JSON instead of the table",
    )
    fleet_report.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the canonical report JSON to PATH",
    )
    fleet_report.set_defaults(handler=cmd_fleet_report)

    stats = commands.add_parser(
        "stats",
        help="statistical observability: multi-seed replication, "
             "bootstrap CIs, effect sizes",
    )
    stats_commands = stats.add_subparsers(
        dest="stats_command", required=True
    )
    stats_run = stats_commands.add_parser(
        "run", help=cmd_stats_run.__doc__
    )
    stats_run.add_argument(
        "--seeds", type=int, default=5,
        help="content seeds to replicate each exhibit under "
             "(default 5)",
    )
    stats_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the (exhibit x seed) fan-out",
    )
    stats_run.add_argument(
        "--figure", action="append", metavar="FIGURE", default=None,
        help="replicate only this figure (repeatable; default: the "
             "full registry)",
    )
    stats_run.add_argument(
        "--confidence", type=float, default=0.95,
        help="two-sided bootstrap confidence level (default 0.95)",
    )
    stats_run.add_argument(
        "--resamples", type=int, default=2000,
        help="bootstrap resamples per metric (default 2000)",
    )
    stats_run.add_argument(
        "--out", default=None, metavar="DIR",
        help="also emit interval Vega-Lite specs + CSVs to DIR",
    )
    stats_run.add_argument(
        "--json", action="store_true",
        help="emit estimates, effect sizes and task costs as JSON",
    )
    stats_run.add_argument(
        "--cache-dir", default=None,
        help="shared on-disk simulation cache directory",
    )
    stats_run.add_argument(
        "--progress", action="store_true",
        help="stream per-task progress lines to stderr",
    )
    stats_run.add_argument(
        "--verbose", action="store_true",
        help="append the per-task wall-clock/cache metrics table",
    )
    stats_run.set_defaults(handler=cmd_stats_run)

    bench_all = commands.add_parser(
        "bench-all", help=cmd_bench_all.__doc__
    )
    bench_all.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for exhibit regeneration",
    )
    bench_all.add_argument(
        "--cache-dir", default=".repro_cache",
        help="shared on-disk simulation cache directory",
    )
    bench_all.add_argument(
        "--no-cache-dir", action="store_true",
        help="keep the simulation cache in memory only",
    )
    bench_all.add_argument(
        "--only", action="append", metavar="EXHIBIT", default=None,
        help="bench only this exhibit (repeatable)",
    )
    bench_all.set_defaults(handler=cmd_bench_all)

    export = commands.add_parser("export", help=cmd_export.__doc__)
    export.add_argument(
        "scheme", choices=sorted(_SCHEMES), help="display scheme"
    )
    export.add_argument(
        "--resolution", choices=sorted(_RESOLUTIONS), default="FHD"
    )
    export.add_argument("--fps", type=float, default=30.0)
    export.add_argument("--frames", type=int, default=30)
    export.add_argument(
        "--format", choices=("json", "csv"), default="json"
    )
    export.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )
    export.set_defaults(handler=cmd_export)

    battery = commands.add_parser("battery", help=cmd_battery.__doc__)
    battery.add_argument(
        "--resolution", choices=sorted(_RESOLUTIONS), default="4K"
    )
    battery.add_argument("--fps", type=float, default=60.0)
    battery.add_argument("--battery-wh", type=float, default=45.0)
    battery.set_defaults(handler=cmd_battery)

    serve = commands.add_parser("serve", help=cmd_serve.__doc__)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=7070,
        help="session socket port (0 = ephemeral)",
    )
    serve.add_argument(
        "--http-port", type=int, default=7071,
        help="HTTP scrape port (0 = ephemeral)",
    )
    serve.add_argument(
        "--events", default=None,
        help="append JSONL lifecycle events to this file",
    )
    serve.add_argument(
        "--window", type=float, default=10.0,
        help="rolling-metric window in simulated seconds",
    )
    serve.add_argument(
        "--log-level", choices=("debug", "info", "warn", "error"),
        default="info", help="event-log threshold",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Handlers return either the report text, or ``(text, code)`` when
    the command doubles as a gate (``validate``, ``obs diff``) and
    must drive the exit status.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except ReproError as error:
        print(f"error: {error}")
        return 1
    if isinstance(result, tuple):
        text, code = result
        print(text)
        return code
    print(result)
    return 0


__all__ = ["build_parser", "main"]
