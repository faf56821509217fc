#!/usr/bin/env python3
"""VR streaming study: the paper's Fig. 11.

Reproduces Fig. 11a/b: BurstLink's energy reduction across the five
head-movement workloads and across per-eye panel resolutions.

Run:  python examples/vr_streaming_study.py
"""

from repro.analysis import fig11a_vr_workloads, fig11b_vr_resolutions
from repro.analysis.report import render_reductions


def main() -> None:
    fig11a = fig11a_vr_workloads()
    print(
        render_reductions(
            "BurstLink reduction per VR workload (paper Fig. 11a, "
            "up to 33%):",
            fig11a.reductions,
        )
    )
    print()
    fig11b = fig11b_vr_resolutions()
    print(
        render_reductions(
            "Rhino reduction per per-eye resolution (paper Fig. 11b, "
            "decreasing):",
            fig11b.reductions,
        )
    )


if __name__ == "__main__":
    main()
