#!/usr/bin/env python3
"""A whole usage session with dynamic scheme switching.

The paper's Sec. 4.1 describes BurstLink as opportunistic: it engages
when the VD/DC registers allow and falls back the moment composition is
actually needed. This example scripts a realistic five-phase session —
steady playback, a touch, recovery, a notification, recovery — and lets
the hardware's own selector pick the scheme at every boundary.

Run:  python examples/session_scenario.py
"""

from repro.analysis.visualize import render_residency_bars
from repro.config import FHD, skylake_tablet
from repro.pipeline.timeline import TimelineSummary
from repro.workloads.scenario import streaming_session


def main() -> None:
    scenario = streaming_session(skylake_tablet(FHD))
    result = scenario.play()

    print("Five-phase FHD streaming session "
          "(scheme chosen by the hardware per phase):\n")
    print(result.summary())
    print()
    print("Whole-session C-state residency:")
    session = TimelineSummary()
    for outcome in result.outcomes:
        session.absorb(outcome.run.summary)
    print(render_residency_bars(session))
    print()

    steady = result.outcomes[0].report.average_power_mw
    session = result.average_power_mw
    print(
        f"Interruptions cost "
        f"{(session / steady - 1) * 100:.1f}% over steady-state "
        f"BurstLink — and the fallback path kept every frame correct."
    )


if __name__ == "__main__":
    main()
