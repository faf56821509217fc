"""Workload inputs, operations and correctness checks for the host-time
benchmark.

Every workload is a closed loop: one op at a time in the benchmark
process.  Inputs come only from the seed: op ``i`` of a run gets an
input drawn from ``(seed, i)``, so no input is visited twice in a run
and no memo that outlives an op can serve a later one.  An op returns
its simulated outputs; the checks compare them outside the timed
region.

* ``video_unique`` — one unique-frame clip (natural content, sizes drawn
  from the seed) under the conventional scheme and BurstLink (DRFB),
  priced through ``compare_schemes(retain="summary")`` with the run memo
  disabled.  Ops cycle through the paper's planar resolutions at 30
  and 60 fps.
* ``standby_ambient`` — one multi-hour ambient-standby session under
  both schemes through ``ambient_standby_run``; the update rate
  (0.2-2 Hz, cycling through log-spaced strata) and the duration
  (2.5-3 h) come from the seed.
* ``exhibit_regen`` — a warm pass of ``run_exhibits`` over every
  registered exhibit from a disk cache the run's first, cold pass
  filled, with every outcome's figure records and CSV extracted after
  each pass.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.analysis import figures
from repro.analysis.energy import compare_schemes
from repro.analysis.runner import configure_cache, run_exhibits
from repro.config import PLANAR_RESOLUTIONS, skylake_tablet
from repro.core.burstlink import BurstLinkScheme
from repro.obs.drift import PAPER_EXPECTATIONS
from repro.pipeline.conventional import ConventionalScheme
from repro.power.model import PlatformExtras, PowerModel
from repro.video.source import AnalyticContentModel
from repro.workloads.standby import (
    AmbientStandbyWorkload,
    ambient_standby_run,
)

import hostspeed
import layers

#: The seed whose simulated outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0
#: Ops of the default seed whose outputs are pinned, per workload.
REFERENCE_OPS = 16

#: Relative tolerance against the pinned reference.  Not byte equality:
#: a refactor of the cadence walker may move the last digits.
REFERENCE_RTOL = 1e-9

#: Frames per clip: 240 windows per scheme at 30 fps, 120 at 60 fps on
#: the 60 Hz panel — about 0.1-0.3 s of host time per op.
CLIP_FRAMES = 120
#: The (resolution, fps) pair of op ``i`` is ``VIDEO_STRATA[i % 8]``.
VIDEO_STRATA = tuple(
    (resolution, fps)
    for resolution in PLANAR_RESOLUTIONS
    for fps in (30.0, 60.0)
)

#: The update rate of standby ops cycles through this many log-spaced
#: strata of [0.2, 2] Hz (in a seed-shuffled order), so every seed sees
#: the same spread of op costs; 2.5-3 h sessions take 0.04-0.4 s each.
STANDBY_STRATA = 16
STANDBY_RATE_HZ = (0.2, 2.0)
STANDBY_DURATION_S = (9000.0, 10800.0)

#: Worker processes for the exhibit fan-out (the closed loop never runs
#: more workers than this).
EXHIBIT_JOBS = 2

#: Exhibits whose emitted CSV is byte-pinned under ``tests/golden/specs``.
GOLDEN_CSVS = ("table2", "fig09", "standby", "oled", "netstream")

#: Drift-gate anchors for the BurstLink reduction, by (resolution, fps).
VIDEO_ANCHORS = {
    ("FHD", 30.0): ("table2.reduction_pct", "fig09.fhd.burstlink_pct"),
    ("4K", 30.0): ("fig09.4k.burstlink_pct",),
    ("FHD", 60.0): ("fig12.fhd.burstlink_pct",),
    ("5K", 60.0): ("fig12.5k.burstlink_pct",),
}


def anchors() -> dict[str, Any]:
    """The paper-anchored drift expectations, by key."""
    return {e.key: e for e in PAPER_EXPECTATIONS}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clip:
    """One unique-frame video clip."""

    key: str
    resolution: Any
    fps: float
    frames: tuple


@dataclass(frozen=True)
class Session:
    """One ambient-standby session."""

    key: str
    update_fps: float
    duration_s: float
    content_seed: int


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def video_input(seed: int, index: int) -> Clip:
    """Op ``index``'s clip: its (resolution, fps) stratum in turn, with
    fresh frames drawn from the seed."""
    resolution, fps = VIDEO_STRATA[index % len(VIDEO_STRATA)]
    return Clip(
        key=f"{index}:{resolution}@{fps:g}",
        resolution=resolution,
        fps=fps,
        frames=tuple(
            AnalyticContentModel().frames(
                resolution, CLIP_FRAMES,
                seed=_rng(seed, index).randrange(2**31),
            )
        ),
    )


def standby_input(seed: int, index: int) -> Session:
    """Op ``index``'s session: an update rate inside its stratum, a
    duration and a content seed, all drawn from the seed."""
    order = random.Random(seed).sample(
        range(STANDBY_STRATA), STANDBY_STRATA
    )
    rng = _rng(seed, index)
    position = (order[index % STANDBY_STRATA] + rng.random()) / (
        STANDBY_STRATA
    )
    low, high = STANDBY_RATE_HZ
    return Session(
        key=f"{index}:standby",
        update_fps=low * (high / low) ** position,
        duration_s=rng.uniform(*STANDBY_DURATION_S),
        content_seed=rng.randrange(2**31),
    )


# ---------------------------------------------------------------------------
# Ops and their outputs
# ---------------------------------------------------------------------------


def _run_outputs(run: Any, report: Any) -> dict[str, Any]:
    return {
        "stats": dataclasses.asdict(run.stats),
        "energy_mj": dict(report.by_component_mj),
        "total_mj": report.total_energy_mj,
        "duration_s": report.duration_s,
    }


def video_op(clip: Clip) -> Any:
    """Simulate and price one clip under both schemes (run memo off)."""
    return compare_schemes(
        skylake_tablet(clip.resolution),
        list(clip.frames),
        clip.fps,
        schemes={"burstlink": (BurstLinkScheme(), True)},
        baseline=ConventionalScheme(),
        retain="summary",
    )


def video_outputs(comparison: Any) -> dict[str, Any]:
    """The simulated quantities one video op is checked on."""
    return {
        "conventional": _run_outputs(
            comparison.runs["baseline"], comparison.baseline
        ),
        "burstlink": _run_outputs(
            comparison.runs["burstlink"],
            comparison.candidates["burstlink"],
        ),
    }


def standby_op(session: Session) -> dict[str, tuple[Any, Any]]:
    """Simulate and price one session under both schemes."""
    workload = AmbientStandbyWorkload(
        duration_s=session.duration_s,
        update_fps=session.update_fps,
        seed=session.content_seed,
    )
    model = PowerModel(
        extras=PlatformExtras(streaming=False, local_playback=False)
    )
    result = {}
    for label, scheme, with_drfb in (
        ("conventional", ConventionalScheme(), False),
        ("burstlink", BurstLinkScheme(), True),
    ):
        run = ambient_standby_run(workload, scheme, with_drfb=with_drfb)
        result[label] = (run, model.report(run))
    return result


def standby_outputs(result: dict[str, tuple[Any, Any]]) -> dict[str, Any]:
    """The simulated quantities one standby op is checked on."""
    return {
        label: _run_outputs(run, report)
        for label, (run, report) in result.items()
    }


def reduction(outputs: dict[str, Any]) -> float:
    """BurstLink's simulated energy reduction vs conventional."""
    conventional = outputs["conventional"]
    burstlink = outputs["burstlink"]
    return 1.0 - (
        (burstlink["total_mj"] / burstlink["duration_s"])
        / (conventional["total_mj"] / conventional["duration_s"])
    )


def op_windows(outputs: dict[str, Any]) -> int:
    """Refresh windows one video or standby op simulated."""
    return sum(run["stats"]["windows"] for run in outputs.values())


@dataclass
class RegenPass:
    """One pass of the exhibit regeneration."""

    wall_s: float
    #: Host seconds of :func:`hostspeed.kernel` before and after the
    #: pass, one reading per CPU the pass keeps busy.
    kernel_before_s: list[float]
    kernel_after_s: list[float]
    #: The ``run_exhibits`` call alone (without figure extraction).
    run_s: float
    records: dict[str, list[dict[str, Any]]]
    csvs: dict[str, str]
    windows: int
    #: Sum of per-exhibit wall clocks as the workers measured them.
    busy_s: float
    reductions: dict[str, float]
    #: Self time per layer during the pass (traced passes only).
    layer_s: dict[str, float]

    @property
    def norm_s(self) -> float:
        """``wall_s`` at the reference host's speed."""
        return hostspeed.normalized_across(
            self.wall_s, self.kernel_before_s + self.kernel_after_s
        )


@dataclass
class RegenOp:
    """A cold then a warm pass over one fresh cache directory."""

    cold: RegenPass
    warm: RegenPass

    @property
    def windows(self) -> int:
        return self.cold.windows + self.warm.windows

    @property
    def wall_s(self) -> float:
        return self.cold.wall_s + self.warm.wall_s

    @property
    def norm_s(self) -> float:
        return self.cold.norm_s + self.warm.norm_s


def _extract(outcomes: list[Any], clock: layers.LayerClock | None):
    """Figure records and CSV of every outcome."""
    by_exhibit = {
        figure.exhibit: figure
        for figure in figures.figure_registry().values()
    }
    records: dict[str, list[dict[str, Any]]] = {}
    csvs: dict[str, str] = {}
    frame = clock.push(layers.FIGURES)[0] if clock is not None else None
    try:
        for outcome in outcomes:
            figure = by_exhibit[outcome.name]
            records[outcome.name] = figures.figure_records(
                figure, outcome.result
            )
            csvs[outcome.name] = figures.figure_csv(
                figure, records[outcome.name]
            )
    finally:
        if frame is not None:
            clock.pop(frame)  # type: ignore[union-attr]
    if clock is not None:
        clock.counts["analysis.figures.records"] += sum(
            len(r) for r in records.values()
        )
    return records, csvs


def _reductions(outcomes: list[Any]) -> dict[str, float]:
    """BurstLink reductions the exhibits report, by anchor key."""
    results = {o.name: o.result for o in outcomes}
    return {
        "table2.reduction_pct": results["table2"].reduction,
        "fig09.fhd.burstlink_pct":
            results["fig09"].reductions["FHD"]["burstlink"],
        "fig09.4k.burstlink_pct":
            results["fig09"].reductions["4K"]["burstlink"],
        "fig12.fhd.burstlink_pct":
            results["fig12"].reductions["FHD"]["burstlink"],
        "fig12.5k.burstlink_pct":
            results["fig12"].reductions["5K"]["burstlink"],
    }


#: Kernel runs per host-speed reading around a regeneration pass.
KERNEL_REPEATS = 5


def _parent_kernel_s() -> list[float]:
    return [hostspeed.kernel_s(KERNEL_REPEATS)]


def regen_pass(
    cache_dir: Path, seed: int, jobs: int = EXHIBIT_JOBS,
    clock: layers.LayerClock | None = None,
    kernels: Callable[[], list[float]] = _parent_kernel_s,
    kernel_before_s: list[float] | None = None,
) -> RegenPass:
    """Regenerate every exhibit once against the disk cache in
    ``cache_dir``.  The host's speed is read with ``kernels`` before
    (unless ``kernel_before_s`` holds a reading) and after the pass,
    outside its timing."""
    if kernel_before_s is None:
        kernel_before_s = kernels()
    before = clock.snapshot() if clock is not None else {}
    started = time.perf_counter()
    outcomes = run_exhibits(
        jobs=jobs, cache_dir=cache_dir, seed_offset=seed
    )
    run_s = time.perf_counter() - started
    records, csvs = _extract(outcomes, clock)
    wall = time.perf_counter() - started
    after = clock.snapshot() if clock is not None else {}
    return RegenPass(
        wall_s=wall,
        kernel_before_s=kernel_before_s,
        kernel_after_s=kernels(),
        run_s=run_s,
        records=records,
        csvs=csvs,
        windows=sum(o.metrics.windows_simulated for o in outcomes),
        busy_s=sum(o.metrics.wall_clock_s for o in outcomes),
        reductions=_reductions(outcomes),
        layer_s={
            layer: seconds - before.get(layer, 0.0)
            for layer, seconds in after.items()
        },
    )


def regen_op(
    scratch: Path, seed: int, jobs: int = EXHIBIT_JOBS,
    clock: layers.LayerClock | None = None,
    kernels: Callable[[], list[float]] = _parent_kernel_s,
) -> RegenOp:
    """Regenerate every exhibit cold, then warm, over a fresh cache
    directory under ``scratch`` (removed afterwards)."""
    cache_dir = Path(tempfile.mkdtemp(prefix="regen-", dir=scratch))
    try:
        cold = regen_pass(cache_dir, seed, jobs, clock, kernels)
        if jobs == 1:
            # A fresh cache object, as a fresh worker would have, so the
            # warm pass loads from disk instead of the in-process LRU.
            configure_cache(directory=cache_dir)
        warm = regen_pass(
            cache_dir, seed, jobs, clock, kernels, cold.kernel_after_s
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return RegenOp(cold=cold, warm=warm)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _close(expected: Any, actual: Any, path: str) -> list[str]:
    """Differences between two output trees: integers exactly, floats
    at :data:`REFERENCE_RTOL`."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys differ"]
        problems = []
        for key in expected:
            problems += _close(expected[key], actual[key], f"{path}.{key}")
        return problems
    if isinstance(expected, int):
        return [] if expected == actual else [
            f"{path}: {actual!r} != {expected!r}"
        ]
    if math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
        return []
    return [f"{path}: {actual!r} != {expected!r} (rtol {REFERENCE_RTOL})"]


def check_simulated(
    outputs: dict[str, Any],
    expected_windows: dict[str, int],
    reference: dict[str, Any] | None,
) -> list[str]:
    """Problems with one video/standby op's outputs: invariants, and
    the pinned reference where one exists."""
    problems = []
    for label, run in outputs.items():
        stats = run["stats"]
        if stats["windows"] != expected_windows[label]:
            problems.append(
                f"{label}: {stats['windows']} windows, expected "
                f"{expected_windows[label]}"
            )
        if stats["new_frame_windows"] + stats["repeat_windows"] != (
            stats["windows"]
        ):
            problems.append(f"{label}: window kinds do not add up")
        if not math.isclose(
            sum(run["energy_mj"].values()), run["total_mj"], rel_tol=1e-9
        ):
            problems.append(f"{label}: components do not sum to total")
    if not 0.0 < reduction(outputs) < 1.0:
        problems.append(f"reduction {reduction(outputs)!r} out of (0, 1)")
    if reference is not None:
        problems += _close(reference, outputs, "reference")
    return problems


def video_expected_windows(clip: Clip) -> dict[str, int]:
    refresh_hz = skylake_tablet(clip.resolution).panel.refresh_hz
    windows = int(round(len(clip.frames) * refresh_hz / clip.fps))
    return {"conventional": windows, "burstlink": windows}


def standby_expected_windows(session: Session) -> dict[str, int]:
    windows = AmbientStandbyWorkload(
        duration_s=session.duration_s, update_fps=session.update_fps
    ).window_count
    return {"conventional": windows, "burstlink": windows}


def check_regen(
    op: RegenOp,
    golden: dict[str, bytes] | None,
    first: RegenOp | None,
) -> list[str]:
    """Problems with one regeneration: the warm pass must reproduce the
    cold pass's records, every op the first op's CSVs, and (default
    seed) the pinned golden CSVs byte for byte."""
    problems = []
    if op.warm.records != op.cold.records:
        differing = sorted(
            name for name in op.cold.records
            if op.warm.records.get(name) != op.cold.records[name]
        )
        problems.append(f"warm records differ from cold: {differing}")
    if first is not None and op.cold.csvs != first.cold.csvs:
        problems.append("CSVs differ from the first op")
    if golden is not None:
        for name, expected in golden.items():
            if op.cold.csvs[name].encode("utf-8") != expected:
                problems.append(f"{name}.csv differs from the golden pin")
    return problems


def load_golden(root: Path) -> dict[str, bytes]:
    """The byte-pinned exhibit CSVs."""
    specs = root / "tests" / "golden" / "specs"
    return {
        name: (specs / f"{name}.csv").read_bytes() for name in GOLDEN_CSVS
    }
