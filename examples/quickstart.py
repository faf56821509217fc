#!/usr/bin/env python3
"""Quickstart: how much energy does BurstLink save on a 4K stream?

Builds the paper's Skylake reference tablet, streams a synthetic 4K
60 FPS video under the conventional pipeline and under BurstLink, and
prints the Table 2-style per-C-state comparison plus the headline
energy reduction (the paper reports 41% for 4K 60 FPS planar video).

Run:  python examples/quickstart.py
"""

from repro import (
    BurstLinkScheme,
    ConventionalScheme,
    FrameWindowSimulator,
    PowerModel,
    UHD_4K,
    skylake_tablet,
)
from repro.analysis import render_cstate_table
from repro.core import HardwareCostModel
from repro.video.source import AnalyticContentModel


def main() -> None:
    config = skylake_tablet(UHD_4K, refresh_hz=60.0)
    frames = AnalyticContentModel().frames(UHD_4K, count=60)
    model = PowerModel()

    baseline_run = FrameWindowSimulator(
        config, ConventionalScheme()
    ).run(frames, video_fps=60.0)
    baseline = model.report(baseline_run)

    # BurstLink needs the DRFB-extended panel (the one hardware change).
    burstlink_run = FrameWindowSimulator(
        config.with_drfb(), BurstLinkScheme()
    ).run(frames, video_fps=60.0)
    burstlink = model.report(burstlink_run)

    print(
        render_cstate_table(
            "Conventional (PSR baseline), 4K 60FPS:",
            baseline.table2_rows(),
            baseline.average_power_mw,
        )
    )
    print()
    print(
        render_cstate_table(
            "BurstLink, 4K 60FPS:",
            burstlink.table2_rows(),
            burstlink.average_power_mw,
        )
    )
    saving = 1 - burstlink.average_power_mw / baseline.average_power_mw
    print()
    print(f"BurstLink energy reduction: {saving:.1%}")
    print(f"DRAM traffic: baseline "
          f"{baseline_run.dram_total_bytes / 2**30:.2f} GiB vs "
          f"BurstLink "
          f"{burstlink_run.dram_total_bytes / 2**30:.2f} GiB "
          f"over {baseline_run.duration:.2f}s of video")

    # What the DRFB costs (paper Sec. 4.4).
    cost = HardwareCostModel().report(config.panel)
    print()
    print(cost.summary())


if __name__ == "__main__":
    main()
