"""Canonical traced runs — the golden-trace exhibits.

Each exhibit here is a small, fully deterministic simulator run traced
end-to-end (window planning, per-segment C-state occupancy, power-model
accounting).  The JSONL these produce is byte-stable across processes
and platforms: simulated timestamps only, ordinal sequence numbers, no
wall-clock, memoization disabled for the duration of the capture.

``repro trace <exhibit>`` renders these as span trees;
``tests/obs/test_golden_traces.py`` pins their JSONL bytes under
``tests/golden/`` as regression artifacts.
"""

from __future__ import annotations

from typing import Callable

from ..config import FHD, skylake_tablet
from ..errors import ConfigurationError
from ..pipeline.sim import (
    FrameWindowSimulator,
    RunResult,
    install_run_memo,
)
from ..power.model import PowerModel
from ..video.source import AnalyticContentModel
from .trace import Tracer, tracing

#: Frames per canonical run — enough windows to show the steady-state
#: oscillation while keeping golden files reviewably small.
GOLDEN_FRAMES = 4
#: Content seed shared by the planar exhibits.
GOLDEN_SEED = 7


def _planar_run(scheme_factory, with_drfb: bool, retain: str) -> RunResult:
    config = skylake_tablet(FHD)
    if with_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(
        FHD, GOLDEN_FRAMES, seed=GOLDEN_SEED
    )
    return FrameWindowSimulator(config, scheme_factory()).run(
        frames, 30.0, retain=retain
    )


def _conventional_run(retain: str) -> RunResult:
    from ..pipeline import ConventionalScheme

    return _planar_run(ConventionalScheme, with_drfb=False, retain=retain)


def _burstlink_run(retain: str) -> RunResult:
    from ..core import BurstLinkScheme

    return _planar_run(BurstLinkScheme, with_drfb=True, retain=retain)


def _vr_run(retain: str) -> RunResult:
    from ..core import BurstLinkScheme
    from ..workloads.vr import VR_WORKLOADS, build_vr_setup

    setup = build_vr_setup(
        VR_WORKLOADS["Elephant"], frame_count=GOLDEN_FRAMES
    )
    return FrameWindowSimulator(
        setup.config.with_drfb(), BurstLinkScheme()
    ).run(setup.frames, 30.0, vr_work=setup.vr_work, retain=retain)


#: Exhibit name -> canonical run builder (called with the retain mode).
GOLDEN_EXHIBITS: dict[str, Callable[[str], RunResult]] = {
    "conventional": _conventional_run,
    "burstlink": _burstlink_run,
    "vr": _vr_run,
}


def capture_trace(
    exhibit: str, retain: str = "full"
) -> tuple[Tracer, RunResult]:
    """Trace one canonical exhibit: simulate it and evaluate the power
    model with a fresh tracer installed and memoization disabled, so
    the captured event stream is complete and reproducible.

    The capture keeps the full timeline by default (the golden JSONL
    pins it); pass ``retain="summary"`` to capture the
    streaming-aggregation path instead (``repro profile --retain
    summary``)."""
    if exhibit not in GOLDEN_EXHIBITS:
        raise ConfigurationError(
            f"unknown trace exhibit {exhibit!r}; "
            f"known: {', '.join(GOLDEN_EXHIBITS)}"
        )
    previous_memo = install_run_memo(None)
    try:
        with tracing() as tracer:
            run = GOLDEN_EXHIBITS[exhibit](retain)
            PowerModel().report(run)
    finally:
        install_run_memo(previous_memo)
    return tracer, run


def golden_trace_jsonl(exhibit: str) -> str:
    """The canonical JSONL trace for ``exhibit`` (the golden bytes)."""
    tracer, _ = capture_trace(exhibit)
    return tracer.to_jsonl()
