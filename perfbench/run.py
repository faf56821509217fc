#!/usr/bin/env python3
"""Host-time benchmark of the BurstLink reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload video_unique --seed 0 \\
        --seconds 30 --trace 0

Workloads: ``video_unique``, ``standby_ambient``, ``exhibit_regen`` (see
``ops.py``).  Every number is host time; simulated quantities are
checked, not timed.  ``--trace 0`` measures the end-to-end metrics, each
op's time scaled to the reference host's speed (``hostspeed.py``);
``--trace 1`` is a separate run that pairs each op with a traced copy
and breaks the traced op's wall time down by layer (``layers.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any correctness check failed.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run writes: scratch space, spans, outputs.
OUT_DIR = ROOT / ".perfbench_out"

#: Developer settings that would silently change what is measured.
ISOLATED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_SIM_ENGINE",
    "REPRO_PLAN_CACHE",
    "REPRO_TRACE",
    "REPRO_HEARTBEAT_DIR",
)

#: Fresh processes timed from launch to first op ready; setup_s is
#: their median.
SETUP_PROBES = 7

#: What a ``--setup-only`` process prints once its first op is ready.
READY_LINE = "perfbench: ready"

WORKLOADS = ("video_unique", "standby_ambient", "exhibit_regen")


def isolate_environment() -> Path:
    """Drop the developer settings and point temp files at a private
    scratch directory inside the checkout; returns that directory."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    scratch = OUT_DIR / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    return scratch


def import_repro() -> None:
    """Put the checkout's sources first on the path and import them.
    Raises ``SystemExit(2)`` when the checkout holds no sources."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no sources at {ROOT / 'src' / 'repro'}; run from "
            "a full checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(
            f"perfbench: imported repro from {repro.__file__}, not from "
            "this checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The value at the highest percentile with at least ten values
    beyond it, but never below the upper quartile, and that percentile's
    label.  With fewer than 41 values the percentile with ten beyond
    falls below p75 (to the minimum at eleven values), so a run's tail
    would jump with its op count, as exhibit_regen's 7-16 ops do; the
    upper quartile is then reported (the maximum of a handful of values
    is mostly noise: across runs of ~9 exhibit ops it spread 0.26)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 40:
        upper = statistics.quantiles(ordered, n=4)[2] if n > 1 else ordered[0]
        return upper, f"p75 of {n} (fewer than 41 ops)"
    index = n - 11
    return ordered[index], f"p{100.0 * (index + 1) / n:.1f} of {n}"


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited
    for, such as the exhibit pool's workers (Linux reports KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    """Everything a workload needs before its first op."""

    workload: str
    seed: int
    scratch: Path
    #: Op index -> its input (video and standby).
    make_input: Callable[[int], Any] | None = None
    first_input: Any = None
    reference: dict[str, Any] | None = None
    golden: dict[str, bytes] | None = None

    def input(self, index: int) -> Any:
        """The input of op ``index``."""
        assert self.make_input is not None
        if index == 0:
            return self.first_input
        return self.make_input(index)


def load_reference(workload: str) -> dict[str, Any]:
    """The pinned default-seed outputs for ``workload``."""
    path = HERE / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))[workload]


def setup(workload: str, seed: int, scratch: Path) -> Setup:
    """Import the program, install the cache state, build the first
    input."""
    import_repro()
    import ops

    state = Setup(workload=workload, seed=seed, scratch=scratch)
    if workload == "video_unique":
        state.make_input = lambda index: ops.video_input(seed, index)
    elif workload == "standby_ambient":
        state.make_input = lambda index: ops.standby_input(seed, index)
    elif seed == ops.DEFAULT_SEED:
        state.golden = ops.load_golden(ROOT)
    if state.make_input is not None:
        state.first_input = state.make_input(0)
        if seed == ops.DEFAULT_SEED:
            state.reference = load_reference(workload)
    return state


def probe_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh benchmark process to its first op
    being ready, for each of :data:`SETUP_PROBES` processes: at the
    reference host's speed and as run.  Each probe times the kernel
    itself once ready, on the CPU it ran on (a kernel timed here, in
    this process, tracked the probes poorly)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    normalized, raw = [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            kernel = child.stdout.readline()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != READY_LINE or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        raw.append(elapsed)
        normalized.append(hostspeed.normalized(elapsed, float(kernel)))
    return normalized, raw


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    #: Host seconds of every op that ran to completion, as run and at
    #: the reference host's speed.
    raw_s: list[float] = field(default_factory=list)
    norm_s: list[float] = field(default_factory=list)
    #: Simulated windows and normalized seconds of the ops that passed
    #: their checks.
    windows: int = 0
    windows_s: float = 0.0
    #: Normalized seconds of each regeneration pass.
    cold_s: list[float] = field(default_factory=list)
    warm_s: list[float] = field(default_factory=list)
    #: Host seconds of :func:`hostspeed.kernel` readings.
    kernel_s: list[float] = field(default_factory=list)
    #: anchor or config key -> simulated BurstLink reductions.
    reductions: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: Outputs per op key (video/standby) or the first op's exhibit CSVs.
    outputs: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems[:5])


def _more(started: float, seconds: float, last_s: float,
          attempted: int) -> bool:
    """Whether another iteration, as long as the last one, still ends
    within the measuring time (the first always runs)."""
    return attempted == 0 or (
        time.perf_counter() - started + last_s <= seconds
    )


def _simulated_workload(state: Setup) -> tuple[Callable, Callable, Callable]:
    import ops

    if state.workload == "video_unique":
        return ops.video_op, ops.video_outputs, ops.video_expected_windows
    return ops.standby_op, ops.standby_outputs, ops.standby_expected_windows


def _check_simulated(
    state: Setup, item: Any, outputs: dict[str, Any],
    expected: Callable, result: Measurement,
) -> bool:
    import ops

    reference = (
        state.reference.get(item.key) if state.reference is not None
        else None
    )
    problems = ops.check_simulated(outputs, expected(item), reference)
    result.outputs[item.key] = outputs
    if problems:
        result.fail([f"{item.key}: {p}" for p in problems])
        return False
    return True


def _record_reduction(
    state: Setup, item: Any, outputs: dict[str, Any], result: Measurement
) -> None:
    import ops

    if state.workload == "video_unique":
        key = f"{item.resolution}@{item.fps:g}"
    else:
        key = "standby"
    result.reductions[key].append(ops.reduction(outputs))


def measure_simulated(state: Setup, seconds: float) -> Measurement:
    """The closed loop of video or standby ops, untraced.  A kernel
    reading between consecutive ops gives each op the host speed around
    it."""
    import ops

    op, outputs_of, expected = _simulated_workload(state)
    result = Measurement()
    started = time.perf_counter()
    kernel_before = hostspeed.kernel_s()
    result.kernel_s.append(kernel_before)
    last_s = 0.0
    while _more(started, seconds, last_s, result.attempted):
        iteration_started = time.perf_counter()
        item = state.input(result.attempted)
        result.attempted += 1
        op_started = time.perf_counter()
        try:
            value = op(item)
        except Exception:
            value = None
            result.fail([f"{item.key}: {traceback.format_exc()}"])
        op_s = time.perf_counter() - op_started
        kernel_after = hostspeed.kernel_s()
        result.kernel_s.append(kernel_after)
        if value is not None:
            norm_s = hostspeed.normalized(
                op_s, (kernel_before + kernel_after) / 2
            )
            result.raw_s.append(op_s)
            result.norm_s.append(norm_s)
            outputs = outputs_of(value)
            if _check_simulated(state, item, outputs, expected, result):
                result.windows += ops.op_windows(outputs)
                result.windows_s += norm_s
                _record_reduction(state, item, outputs, result)
        kernel_before = kernel_after
        last_s = time.perf_counter() - iteration_started
    return result


def _record_regen(state: Setup, op: Any, result: Measurement,
                  first: Any, golden: dict[str, bytes] | None) -> bool:
    import ops

    problems = ops.check_regen(op, golden, first)
    if problems:
        result.fail(problems)
        return False
    for key, value in op.cold.reductions.items():
        result.reductions[key].append(value)
    if not result.outputs:
        result.outputs = dict(op.cold.csvs)
    return True


def measure_regen(state: Setup, seconds: float) -> Measurement:
    """The closed loop of exhibit regenerations, untraced.

    The run's first pass is cold: it fills a fresh disk cache (timed as
    ``regen_cold_s``).  Every op after it is a warm pass from that cache
    with a fresh worker pool, checked against the cold pass's records.
    Cold passes are bound by the cache's fsync-per-store writes, whose
    latency no CPU kernel tracks, so they are reported but not taken
    into the op statistics.  The host's speed is read on every CPU the
    fan-out keeps busy."""
    import ops

    result = Measurement()
    cache_dir = Path(tempfile.mkdtemp(prefix="regen-", dir=state.scratch))
    try:
        with hostspeed.KernelPool(ops.EXHIBIT_JOBS) as pool:
            def kernels() -> list[float]:
                return pool.kernel_s(ops.KERNEL_REPEATS)

            started = time.perf_counter()
            result.attempted += 1
            cold = ops.regen_pass(cache_dir, state.seed, kernels=kernels)
            result.cold_s.append(cold.norm_s)
            result.kernel_s += [*cold.kernel_before_s, *cold.kernel_after_s]
            golden = state.golden
            kernel_before_s = cold.kernel_after_s
            last_s = 0.0
            warm_ops = 0
            while _more(started, seconds, last_s, warm_ops):
                warm_ops += 1
                result.attempted += 1
                iteration_started = time.perf_counter()
                try:
                    warm = ops.regen_pass(
                        cache_dir, state.seed, kernels=kernels,
                        kernel_before_s=kernel_before_s,
                    )
                except Exception:
                    result.fail([traceback.format_exc()])
                    kernel_before_s = kernels()
                    continue
                finally:
                    last_s = time.perf_counter() - iteration_started
                kernel_before_s = warm.kernel_after_s
                result.raw_s.append(warm.wall_s)
                result.norm_s.append(warm.norm_s)
                result.warm_s.append(warm.norm_s)
                result.kernel_s += warm.kernel_after_s
                op = ops.RegenOp(cold=cold, warm=warm)
                if _record_regen(state, op, result, None, golden):
                    # A warm pass loads every run instead of simulating
                    # it; it delivers the windows the cold pass simulated.
                    result.windows += cold.windows
                    result.windows_s += warm.norm_s
                    golden = None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def measure(state: Setup, seconds: float) -> Measurement:
    """The untraced closed loop for ``state.workload``."""
    from repro.analysis.runner import cache_disabled

    gc.collect()
    if state.workload == "exhibit_regen":
        return measure_regen(state, seconds)
    with cache_disabled():
        return measure_simulated(state, seconds)


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """Per-layer totals over the traced ops."""

    measurement: Measurement
    traced: int = 0
    traced_s: float = 0.0
    untraced_s: float = 0.0
    wrapper_s: float = 0.0
    costs: tuple[float, float, float] = (0.0, 0.0, 0.0)
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    sim_windows: float = 0.0
    collapse_hits: float = 0.0
    dist_tasks: int = 0
    dist_wait_s: float = 0.0
    dist_merge_s: float = 0.0
    warm_s: float = 0.0
    untraced_warm_s: float = 0.0
    warm_power_s: float = 0.0
    warm_wrapper_s: float = 0.0
    spans: int = 0
    spans_dropped: int = 0
    spans_path: Path | None = None


def _registry_counts() -> tuple[float, float]:
    from repro.obs import metrics

    registry = metrics.registry()
    return (
        registry.counter("sim.windows").value,
        registry.counter("sim.collapse.hit").value,
    )


def _recalibrate(clock: Any, trace: Trace) -> None:
    """Measure the wrapper costs again right before a traced op: they
    follow the host's speed, which drifts within a run."""
    import layers

    costs = layers.wrapper_costs(calls=2_000, rounds=3)
    clock.call_cost, clock.pull_cost, clock.span_cost = costs
    trace.costs = tuple(
        (n * mean + cost) / (n + 1)
        for n, mean, cost in zip([trace.traced] * 3, trace.costs, costs)
    )


def _finish_trace(state: Setup, clock: Any, trace: Trace) -> None:
    trace.self_s = dict(clock.self_s)
    trace.counts = dict(clock.counts)
    trace.wrapper_s = clock.wrapper_s
    path = OUT_DIR / f"spans-{state.workload}-s{state.seed}.jsonl"
    trace.spans = clock.write_spans(path)
    trace.spans_dropped = clock.spans_dropped
    trace.spans_path = path


def trace_simulated(state: Setup, seconds: float) -> Trace:
    """Each op runs untraced and traced (alternating which goes first);
    the traced copy feeds the layer clock."""
    import layers

    op, outputs_of, expected = _simulated_workload(state)
    trace = Trace(measurement=Measurement())
    clock = layers.LayerClock()
    patches = layers.LayerPatches(clock)
    result = trace.measurement
    started = time.perf_counter()
    last_s = 0.0
    gc.collect()
    while _more(started, seconds, last_s, result.attempted):
        index = result.attempted
        item = state.input(index)
        result.attempted += 1
        pair_started = time.perf_counter()
        try:
            for traced in ((False, True) if index % 2 == 0
                           else (True, False)):
                if not traced:
                    op_started = time.perf_counter()
                    op(item)
                    trace.untraced_s += time.perf_counter() - op_started
                    continue
                _recalibrate(clock, trace)
                windows, hits = _registry_counts()
                clock.recording = index == 0
                try:
                    with patches, clock.op(index) as frame:
                        value = op(item)
                finally:
                    clock.recording = False
                trace.traced_s += frame.wall_s
                windows_after, hits_after = _registry_counts()
                trace.sim_windows += windows_after - windows
                trace.collapse_hits += hits_after - hits
        except Exception:
            result.fail([f"{item.key}: {traceback.format_exc()}"])
            continue
        finally:
            last_s = time.perf_counter() - pair_started
        trace.traced += 1
        _check_simulated(state, item, outputs_of(value), expected, result)
    _finish_trace(state, clock, trace)
    return trace


def trace_regen(state: Setup, seconds: float) -> Trace:
    """Each iteration regenerates three times: untraced at jobs=1,
    traced at jobs=1 (the in-process layers), and at jobs=2 with only
    the fan-out's metrics merge timed, whose difference from the busy
    time workers report is the fan-out cost (``obs.dist``)."""
    import layers
    import ops

    trace = Trace(measurement=Measurement())
    clock = layers.LayerClock()
    patches = layers.LayerPatches(clock)
    fan_clock = layers.LayerClock()
    fan_patches = layers.LayerPatches(fan_clock, only=(layers.MERGE,))
    result = trace.measurement
    first = None
    started = time.perf_counter()
    last_s = 0.0
    while _more(started, seconds, last_s, result.attempted):
        # Three regenerations per iteration, each an op.
        result.attempted += 3
        iteration_started = time.perf_counter()
        try:
            gc.collect()
            untraced = ops.regen_op(state.scratch, state.seed, jobs=1)
            gc.collect()
            _recalibrate(clock, trace)
            windows, hits = _registry_counts()
            clock.recording = trace.traced == 0
            try:
                with patches, clock.op(trace.traced) as frame:
                    traced = ops.regen_op(
                        state.scratch, state.seed, jobs=1, clock=clock
                    )
            finally:
                clock.recording = False
            windows_after, hits_after = _registry_counts()
            gc.collect()
            with fan_patches:
                fanned = ops.regen_op(state.scratch, state.seed)
        except Exception:
            result.fail([traceback.format_exc()])
            continue
        finally:
            last_s = time.perf_counter() - iteration_started
        trace.traced += 1
        # One untraced and one traced op run many seconds apart, so the
        # untraced op's time is taken at the host speed the traced op
        # ran at.
        trace.untraced_s += untraced.norm_s * traced.wall_s / traced.norm_s
        trace.traced_s += frame.wall_s
        trace.sim_windows += windows_after - windows
        trace.collapse_hits += hits_after - hits
        trace.warm_s += traced.warm.wall_s
        trace.untraced_warm_s += (
            untraced.warm.norm_s * traced.warm.wall_s / traced.warm.norm_s
        )
        trace.warm_power_s += traced.warm.layer_s.get(layers.POWER, 0.0)
        trace.warm_wrapper_s += traced.warm.layer_s.get(layers.WRAPPER, 0.0)
        for fan_pass in (fanned.cold, fanned.warm):
            trace.dist_tasks += len(fan_pass.records)
            trace.dist_wait_s += (
                fan_pass.run_s - fan_pass.busy_s / ops.EXHIBIT_JOBS
            )
        for op in (untraced, traced, fanned):
            if _record_regen(state, op, result, first, state.golden):
                first = first or op
    trace.dist_merge_s = fan_clock.self_s.get(layers.MERGE, 0.0)
    trace.dist_wait_s -= trace.dist_merge_s
    _finish_trace(state, clock, trace)
    return trace


def layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced op."""
    import layers

    n = max(trace.traced, 1)
    self_s = trace.self_s
    counts = trace.counts
    loads = counts.get("analysis.runner.cache.loads", 0.0)
    accounted = trace.wrapper_s + sum(
        self_s.get(layer, 0.0) for layer in layers.LAYERS
    )
    per_op = {
        "core.plan.calls": (counts.get("core.plan.calls", 0.0), "count"),
        "core.plan.segments": (
            counts.get("core.plan.segments", 0.0), "count"),
        "core.plan.self_s": (self_s.get(layers.PLAN, 0.0), "s"),
        "pipeline.timeline.segments_folded": (
            counts.get("pipeline.timeline.segments_folded", 0.0), "count"),
        "pipeline.timeline.self_s": (self_s.get(layers.FOLD, 0.0), "s"),
        "pipeline.sim.windows": (trace.sim_windows, "count"),
        "pipeline.sim.self_s": (self_s.get(layers.SIM, 0.0), "s"),
        "video.source.frames": (
            counts.get("video.source.frames", 0.0), "count"),
        "video.source.self_s": (self_s.get(layers.SOURCE, 0.0), "s"),
        "power.model.calls": (counts.get("power.model.calls", 0.0), "count"),
        "power.model.segments_priced": (
            counts.get("power.model.segments_priced", 0.0), "count"),
        "power.model.self_s": (self_s.get(layers.POWER, 0.0), "s"),
        "analysis.runner.cache.loads": (loads, "count"),
        "analysis.runner.cache.stores": (
            counts.get("analysis.runner.cache.stores", 0.0), "count"),
        "analysis.runner.cache.load_s": (
            self_s.get(layers.CACHE_LOAD, 0.0), "s"),
        "analysis.runner.cache.store_s": (
            self_s.get(layers.CACHE_STORE, 0.0), "s"),
        "obs.dist.tasks": (float(trace.dist_tasks), "count"),
        "obs.dist.wait_s": (trace.dist_wait_s, "s"),
        "obs.dist.merge_s": (trace.dist_merge_s, "s"),
        "analysis.figures.records": (
            counts.get("analysis.figures.records", 0.0), "count"),
        "analysis.figures.self_s": (self_s.get(layers.FIGURES, 0.0), "s"),
        "analysis.experiments.self_s": (
            self_s.get(layers.EXPERIMENTS, 0.0), "s"),
        "op.traced_s": (trace.traced_s, "s"),
        "trace.wrapper_s": (trace.wrapper_s, "s"),
        "trace.overhead_s": (trace.traced_s - trace.untraced_s, "s"),
    }
    metrics = {name: (value / n, unit) for name, (value, unit) in per_op.items()}
    metrics["pipeline.sim.plan_reuse"] = (
        trace.collapse_hits / trace.sim_windows if trace.sim_windows else 0.0,
        "ratio",
    )
    metrics["analysis.runner.cache.hit_ratio"] = (
        counts.get("analysis.runner.cache.hits", 0.0) / loads
        if loads else 0.0,
        "ratio",
    )
    metrics["unaccounted.share"] = (
        (trace.traced_s - accounted) / trace.traced_s
        if trace.traced_s else 0.0,
        "ratio",
    )
    metrics["trace.overhead_share"] = (
        (trace.traced_s - trace.untraced_s) / trace.untraced_s
        if trace.untraced_s else 0.0,
        "ratio",
    )
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _anchor_lines(result: Measurement, workload: str) -> list[str]:
    """Simulated BurstLink reduction beside its paper anchor."""
    import ops

    expectations = ops.anchors()
    lines = ["simulated BurstLink reduction (mean over ops) vs paper:"]
    for key, values in sorted(result.reductions.items()):
        pct = 100.0 * statistics.fmean(values)
        if workload == "video_unique":
            resolution, fps = key.split("@")
            anchor_keys = ops.VIDEO_ANCHORS.get((resolution, float(fps)), ())
        elif workload == "exhibit_regen":
            anchor_keys = (key,)
        else:
            anchor_keys = ()
        if not anchor_keys:
            lines.append(
                f"  {key:<24} {pct:6.2f}%  no paper anchor (unvalidated)"
            )
        for anchor_key in anchor_keys:
            anchor = expectations[anchor_key]
            lines.append(
                f"  {key:<24} {pct:6.2f}%  {anchor_key} {anchor.paper:g}% "
                f"±{anchor.tolerance:g}  error {pct - anchor.paper:+.2f} pp"
            )
    return lines


def report_end_to_end(
    state: Setup, result: Measurement,
    setup_s: tuple[list[float], list[float]], rss_mb: float, wall_s: float,
) -> dict[str, Any]:
    """Print the end-to-end metrics; returns them for the JSON line.

    Op times are at the reference host's speed (see ``hostspeed.py``);
    the same statistics over the times as run are printed beside them.
    """
    setup_norm, setup_raw = setup_s
    times = result.norm_s or [0.0]
    tail_s, tail_label = tail(times)
    metrics = {
        "windows_per_s": (
            result.windows / result.windows_s if result.windows_s else 0.0,
            "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "op_ms_tail": (1000.0 * tail_s, "ms"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    checked = len(result.norm_s) - result.failed
    notes = {
        "windows_per_s": (
            f"{result.windows} simulated windows over {checked} checked "
            "ops"),
        "op_ms_p50": f"median of {len(result.norm_s)} ops",
        "op_ms_tail": tail_label,
        "setup_s": (
            f"median of {len(setup_norm)} fresh processes, launch to "
            "first op ready"),
        "peak_rss_mb": "benchmark process and its pool workers",
    }
    print(
        f"workload {state.workload}  seed {state.seed}  ops "
        f"{result.attempted} attempted, {result.failed} failed  "
        f"measured {wall_s:.1f} s"
    )
    print("  (times at the reference host's speed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:14.4f} {unit:<5} {notes[name]}")
    for name, values in (("regen_cold_s", result.cold_s),
                         ("regen_warm_s", result.warm_s)):
        if values:
            print(
                f"  {name:<14} {statistics.median(values):14.4f} s     "
                f"over {len(values)} passes"
            )
        else:
            print(f"  {name:<14} {'n/a':>14}       exhibit_regen only")
    print(
        f"  {'error_rate':<14} "
        f"{result.failed / max(result.attempted, 1):14.4f} ratio "
        f"{result.failed} of {result.attempted} ops"
    )
    if result.raw_s:
        raw_median_ms = 1000.0 * statistics.median(result.raw_s)
        raw_tail_s, _ = tail(result.raw_s)
        kernel_ms = 1000.0 * statistics.median(result.kernel_s)
        print(
            f"  as run: op median {raw_median_ms:.4f} ms, tail "
            f"{1000.0 * raw_tail_s:.4f} ms, setup "
            f"{statistics.median(setup_raw):.4f} s; host-speed kernel "
            f"median {kernel_ms:.3f} ms (reference "
            f"{1000.0 * hostspeed.KERNEL_REFERENCE_S:.3f} ms)"
        )
    for line in _anchor_lines(result, state.workload):
        print(line)
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def share_range(self_s: float, traced_s: float, untraced_s: float,
                wrapper_s: float) -> tuple[float, float]:
    """A layer's share of the op as the untraced program runs it, as a
    (low, high) range.  The tracing overhead the calibrated wrapper cost
    does not explain may sit in this layer's self time or elsewhere."""
    residual = max(traced_s - untraced_s - wrapper_s, 0.0)
    op_s = (traced_s - wrapper_s - residual) or 1.0
    return max(self_s - residual, 0.0) / op_s, self_s / op_s


def _pct(bounds: tuple[float, float]) -> str:
    low, high = bounds
    return f"{100 * low:.1f}-{100 * high:.1f}%"


def report_layers(state: Setup, trace: Trace) -> dict[str, Any]:
    """Print the per-layer breakdown and the dominance predictions;
    returns the metrics for the JSON line."""
    import layers

    metrics = layer_metrics(trace)
    op_s = metrics["op.traced_s"][0] or 1.0
    call_cost, pull_cost, span_cost = trace.costs
    print(
        f"workload {state.workload}  seed {state.seed}  traced ops "
        f"{trace.traced}  traced op {op_s:.4f} s  tracing overhead "
        f"{metrics['trace.overhead_s'][0]:+.4f} s/op "
        f"({100 * metrics['trace.overhead_share'][0]:+.1f}% of untraced), "
        f"of which wrapper cost charged to no layer "
        f"{metrics['trace.wrapper_s'][0]:.4f} s/op"
    )
    print(
        f"  wrapper cost per call {1e9 * call_cost:.0f} ns, per frame "
        f"pull {1e9 * pull_cost:.0f} ns, per recorded span "
        f"{1e9 * span_cost:.0f} ns (means of the readings before each "
        "traced op)"
    )
    for name, (value, unit) in metrics.items():
        share = (
            f"{100 * value / op_s:5.1f}% of op"
            if name.endswith("_s") and name not in (
                "op.traced_s", "trace.overhead_s", "obs.dist.wait_s",
                "obs.dist.merge_s",
            ) else ""
        )
        print(f"  {name:<36} {value:16.6f} {unit:<5} {share}")
    def share(self_s: float, warm: bool = False) -> tuple[float, float]:
        if warm:
            return share_range(self_s, trace.warm_s, trace.untraced_warm_s,
                               trace.warm_wrapper_s)
        return share_range(self_s, trace.traced_s, trace.untraced_s,
                           trace.wrapper_s)

    layer_s = trace.self_s
    plan = share(layer_s.get(layers.PLAN, 0.0))
    fold_plan = share(
        layer_s.get(layers.PLAN, 0.0) + layer_s.get(layers.FOLD, 0.0)
    )
    sim = share(layer_s.get(layers.SIM, 0.0))
    power = share(trace.warm_power_s, warm=True)
    predictions = {
        "video_unique": (
            "core.plan + pipeline.timeline are most of the op",
            fold_plan[0] > 0.5, fold_plan[1] <= 0.5,
            f"plan + fold {_pct(fold_plan)}",
        ),
        "standby_ambient": (
            "pipeline.sim is most of the op, core.plan near zero (<5%)",
            sim[0] > 0.5 and plan[1] < 0.05,
            sim[1] <= 0.5 or plan[0] >= 0.05,
            f"sim {_pct(sim)}, plan {_pct(plan)}",
        ),
        "exhibit_regen": (
            "power.model is most of the warm pass",
            power[0] > 0.5, power[1] <= 0.5,
            f"power {_pct(power)} of the warm pass",
        ),
    }
    claim, confirmed, refuted, measured = predictions[state.workload]
    verdict = (
        "confirmed" if confirmed else "refuted" if refuted else "unresolved"
    )
    print(
        f"prediction: {claim} — {verdict} ({measured} of the untraced op; "
        "the range is where the tracing overhead the wrapper cost does "
        "not explain may sit)"
    )
    print(
        f"spans of the first traced op: {trace.spans} written to "
        f"{trace.spans_path} ({trace.spans_dropped} past the limit "
        "not kept)"
    )
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def write_outputs(state: Setup, result: Measurement) -> str:
    """Write the checked outputs; returns their digest."""
    text = json.dumps(result.outputs, sort_keys=True)
    path = OUT_DIR / f"outputs-{state.workload}-s{state.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def stop_helper_processes() -> None:
    """Reap finished multiprocessing children and stop the fork server
    and resource tracker should anything in the run have started them
    (a spawn or forkserver pool does); left alone they outlive this
    process."""
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    multiprocessing.active_children()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    scratch = isolate_environment()
    try:
        state = setup(args.workload, args.seed, scratch)
        if args.setup_only:
            print(READY_LINE, flush=True)
            print(hostspeed.kernel_s(3), flush=True)
            return 0
        if args.trace:
            if args.workload == "exhibit_regen":
                trace = trace_regen(state, args.seconds)
            else:
                from repro.analysis.runner import cache_disabled

                with cache_disabled():
                    trace = trace_simulated(state, args.seconds)
            result = trace.measurement
            metrics = report_layers(state, trace)
        else:
            started = time.perf_counter()
            result = measure(state, args.seconds)
            wall_s = time.perf_counter() - started
            # Before the set-up probes, whose processes would count as
            # children too.
            rss_mb = peak_rss_mb()
            setup_s = probe_setup(args)
            metrics = report_end_to_end(state, result, setup_s, rss_mb, wall_s)
            print(f"simulated-output digest {write_outputs(state, result)}")
        for problem in result.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        correct = result.failed == 0
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": result.attempted,
                    "failed": result.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0 if correct else 1
    finally:
        stop_helper_processes()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
