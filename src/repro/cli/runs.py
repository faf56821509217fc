"""Single-run commands: timeline drawing, run export, battery impact."""

from __future__ import annotations

import argparse

from ..analysis.battery import compare_battery_life
from ..analysis.visualize import (
    render_residency_bars,
    render_window_report,
)
from ..pipeline import ConventionalScheme, FrameWindowSimulator
from ..core import BurstLinkScheme
from ..power import PowerModel
from ..video.source import AnalyticContentModel
from ._helpers import _RESOLUTIONS, _SCHEMES, _config_for


def cmd_timeline(args: argparse.Namespace) -> str:
    """A Fig. 3/6/7-style drawing of a scheme's first windows."""
    factory, needs_drfb = _SCHEMES[args.scheme]
    resolution = _RESOLUTIONS[args.resolution]
    config = _config_for(resolution, needs_drfb)
    frames = AnalyticContentModel().frames(resolution, 6)
    run = FrameWindowSimulator(config, factory()).run(
        frames, args.fps, retain="full"
    )
    return "\n\n".join(
        [
            f"{args.scheme} @ {args.resolution} {args.fps:g}FPS",
            render_window_report(
                run.timeline, config.frame_window
            ).split("\n\n")[0],
            render_residency_bars(run.timeline),
        ]
    )


def cmd_export(args: argparse.Namespace) -> str:
    """Simulate one run and serialize it (JSON run record or CSV
    segment table) for plotting outside Python."""
    from ..analysis.export import run_to_dict, timeline_to_csv, to_json

    factory, needs_drfb = _SCHEMES[args.scheme]
    resolution = _RESOLUTIONS[args.resolution]
    config = _config_for(resolution, needs_drfb)
    frames = AnalyticContentModel().frames(resolution, args.frames)
    run = FrameWindowSimulator(config, factory()).run(
        frames, args.fps, retain="full"
    )
    if args.format == "csv":
        payload = timeline_to_csv(run.timeline)
    else:
        payload = to_json(
            run_to_dict(run, PowerModel().report(run))
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        return f"wrote {args.out} ({len(payload)} bytes)"
    return payload


def cmd_battery(args: argparse.Namespace) -> str:
    """Battery-life impact of BurstLink for one streaming session."""
    resolution = _RESOLUTIONS[args.resolution]
    frames = AnalyticContentModel().frames(resolution, 30)
    model = PowerModel()
    base_run = FrameWindowSimulator(
        _config_for(resolution, False), ConventionalScheme()
    ).run(frames, args.fps)
    burst_run = FrameWindowSimulator(
        _config_for(resolution, True), BurstLinkScheme()
    ).run(frames, args.fps)
    comparison = compare_battery_life(
        model.report(base_run), model.report(burst_run),
        battery_wh=args.battery_wh,
    )
    return (
        f"{args.resolution} {args.fps:g}FPS streaming on a "
        f"{args.battery_wh:g} Wh battery: {comparison.summary()}"
    )


__all__ = ["cmd_battery", "cmd_export", "cmd_timeline"]
