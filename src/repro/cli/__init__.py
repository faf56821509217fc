"""Command-line interface: regenerate any paper exhibit from a shell.

::

    python -m repro list                 # what can be regenerated
    python -m repro validate             # the Sec. 5.3 accuracy table
    python -m repro table2               # Table 2, both halves
    python -m repro fig09                # the 30 FPS reduction sweep
    python -m repro oled                 # OLED brightness sweep
    python -m repro netstream            # ABR streaming conditions
    python -m repro timeline burstlink   # a Fig. 7-style text drawing
    python -m repro battery --resolution 4K --fps 60

The package is one module per command group — ``exhibits`` (paper
tables/figures + scenario exhibits), ``validate`` (the drift gate),
``runs`` (timeline/export/battery), ``batch`` (figures/stats/bench),
``observe`` (trace/profile/metrics/obs), ``fleet``, ``serve`` — glued
together by :mod:`.parser`, with the shared scheme/resolution tables
hoisted into :mod:`._helpers`.
"""

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
from .parser import build_parser, main
from .runs import cmd_battery, cmd_export, cmd_timeline
from .serve import cmd_serve
from .validate import cmd_validate

__all__ = [
    "build_parser",
    "cmd_battery",
    "cmd_bench_all",
    "cmd_constants",
    "cmd_export",
    "cmd_fig01",
    "cmd_fig09",
    "cmd_fig11",
    "cmd_fig12",
    "cmd_fig13",
    "cmd_fig14",
    "cmd_figures",
    "cmd_fleet_report",
    "cmd_fleet_run",
    "cmd_list",
    "cmd_metrics",
    "cmd_netstream",
    "cmd_obs_chrome",
    "cmd_obs_diff",
    "cmd_oled",
    "cmd_profile",
    "cmd_sec64",
    "cmd_serve",
    "cmd_standby",
    "cmd_stats_run",
    "cmd_table2",
    "cmd_timeline",
    "cmd_trace",
    "cmd_validate",
    "main",
]
