#!/usr/bin/env python3
"""Windowed video and the fallback policy (paper Sec. 4.1).

Shows three things:

1. the hardware's scheme selection from register state — full-screen
   video engages BurstLink, a video-in-a-browser engages the windowed
   PSR2 path, a busy desktop falls back to conventional composition;
2. the two-stage windowed playback: composition windows first, then
   PSR2 selective updates once the GUI goes static — with the energy
   saved in steady state;
3. a fallback event mid-session (the user touches the screen).

Run:  python examples/windowed_video.py
"""

from repro import (
    ConventionalScheme,
    FHD,
    FrameWindowSimulator,
    PowerModel,
    skylake_tablet,
)
from repro.core import WindowedVideoScheme
from repro.core.fallback import select_scheme
from repro.soc.registers import RegisterFile
from repro.video.source import AnalyticContentModel


def selection_demo() -> None:
    print("Scheme selection from DC/VD register state:")
    for label, registers in (
        ("full-screen video", RegisterFile.full_screen_video()),
        ("video in a browser", RegisterFile.windowed_video()),
        ("busy desktop", RegisterFile.multi_plane_desktop()),
    ):
        scheme = select_scheme(registers)
        print(f"  {label:20s} -> {scheme.name}")
    # A PSR2 exit (user input) forces the conventional path.
    touched = RegisterFile.windowed_video()
    touched.psr2_exited = True
    print(f"  {'after user input':20s} -> {select_scheme(touched).name}")
    print()


def windowed_energy_demo() -> None:
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, 60)
    model = PowerModel()

    conventional = model.report(
        FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, video_fps=30.0
        )
    )
    windowed = FrameWindowSimulator(
        config,
        WindowedVideoScheme(video_fraction=0.25, composition_windows=12),
    ).run(frames, video_fps=30.0)
    windowed_report = model.report(windowed)

    print("Windowed playback (25% of the screen, browser chrome "
          "static after 12 windows):")
    print(f"  conventional composition: "
          f"{conventional.average_power_mw:.0f} mW")
    print(f"  windowed PSR2 path:       "
          f"{windowed_report.average_power_mw:.0f} mW "
          f"(-{(1 - windowed_report.average_power_mw / conventional.average_power_mw) * 100:.1f}%)")
    print(f"  PSR-assisted windows: {windowed.stats.psr_windows} of "
          f"{windowed.stats.windows}")
    print()


def main() -> None:
    selection_demo()
    windowed_energy_demo()
    print(
        "Takeaway: BurstLink engages opportunistically from state the "
        "hardware already tracks, and degrades gracefully to the "
        "conventional path the moment composition is actually needed."
    )


if __name__ == "__main__":
    main()
