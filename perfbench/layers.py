"""Per-layer host-time accounting for the traced benchmark run.

The traced run wraps the public boundaries of each layer from the
outside — class-method patches on the schemes, the summary fold, the
simulator, the power model and the simulation cache, a timing iterator
on every frame source, and a module-function patch on the exhibit
runner and the fan-out's metrics merge — and keeps a stack of open
calls.  A layer's *self* time is its calls' duration minus the part
covered by nested calls into any wrapped layer.

Each wrapper costs its caller a little host time outside the callee's
clock readings: the call into the wrapper, the frame bookkeeping and
the work counts.  :func:`wrapper_costs` measures that cost once per
traced run on empty calls; every closed frame then charges it to a
separate ``trace.wrapper`` bucket instead of to the parent layer's self
time.  The self times of all layers, that bucket and the benchmark's
own root frame add up to the op's wall time.

``repro.obs.trace`` is deliberately not used: an active tracer switches
``FrameWindowSimulator.run`` to the scalar loop and turns off collapsing
and vectorized pricing, so it would time a different program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

#: Layer names, after the modules they time.
PLAN = "core.plan"
FOLD = "pipeline.timeline"
SIM = "pipeline.sim"
SOURCE = "video.source"
POWER = "power.model"
CACHE_LOAD = "analysis.runner.cache.load"
CACHE_STORE = "analysis.runner.cache.store"
FIGURES = "analysis.figures"
EXPERIMENTS = "analysis.experiments"
MERGE = "obs.dist.merge"
#: The benchmark's own frame around one op: whatever no layer claims.
ROOT = "op"
#: Wrapper cost charged to no layer, as a :meth:`LayerClock.snapshot`
#: key.
WRAPPER = "trace.wrapper"

LAYERS = (
    PLAN, FOLD, SIM, SOURCE, POWER, CACHE_LOAD, CACHE_STORE, FIGURES,
    EXPERIMENTS, MERGE,
)

#: Spans kept in memory for the first traced op; later spans only
#: update the per-layer totals.
SPAN_LIMIT = 250_000


class LayerClock:
    """Self time and work counts per layer, from nested call frames.

    ``costs`` holds the host seconds one wrapped call, one timed frame
    pull and one recorded span add to their caller (see
    :func:`wrapper_costs`); each closed frame moves its cost from the
    parent's self time to :attr:`wrapper_s`.
    """

    def __init__(self, costs: tuple[float, float, float] = (0.0, 0.0, 0.0)
                 ) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.call_cost, self.pull_cost, self.span_cost = costs
        #: Wrapper cost charged to no layer.
        self.wrapper_s = 0.0
        #: Open frames: ``[layer, child seconds, start, span id, cost]``.
        self._stack: list[list[Any]] = []
        #: Spans ``[id, parent id, op, layer, start, end]`` recorded
        #: while ``recording`` is set.
        self.spans: list[list[Any]] = []
        self.recording = False
        self.spans_dropped = 0
        self._op = 0

    # -- frames ---------------------------------------------------------------

    def push(self, layer: str, cost: float = 0.0) -> tuple[list[Any], bool]:
        """Open a frame whose wrapper costs its caller ``cost`` seconds;
        returns it and whether it is the outermost frame of its layer
        (nested calls of one layer count once)."""
        stack = self._stack
        outermost = not stack or stack[-1][0] != layer
        span_id = -1
        if self.recording:
            spans = self.spans
            if len(spans) < SPAN_LIMIT:
                span_id = len(spans)
                parent = stack[-1][3] if stack else -1
                spans.append([span_id, parent, self._op, layer, 0.0, 0.0])
                cost += self.span_cost
            else:
                self.spans_dropped += 1
        frame = [layer, 0.0, time.perf_counter(), span_id, cost]
        stack.append(frame)
        return frame, outermost

    def pop(self, frame: list[Any]) -> float:
        """Close ``frame`` (the innermost open one); returns its
        duration."""
        now = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, child_s, start, span_id, cost = frame
        duration = now - start
        self.self_s[layer] += duration - child_s
        if stack:
            stack[-1][1] += duration + cost
            self.wrapper_s += cost
        if span_id >= 0:
            span = self.spans[span_id]
            span[4] = start
            span[5] = now
        return duration

    def op(self, op_id: int) -> "_OpFrame":
        """The root frame of one op (``with clock.op(i) as frame``;
        ``frame.wall_s`` holds the op's wall time afterwards)."""
        self._op = op_id
        return _OpFrame(self)

    def snapshot(self) -> dict[str, float]:
        """The current self times and wrapper cost, for before/after
        deltas."""
        return {**self.self_s, WRAPPER: self.wrapper_s}

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as JSON lines; returns the count."""
        spans = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = spans[0][4] if spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, op_id, layer, start, end in spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op_id,
                            "layer": layer,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )
        return len(spans)


class _OpFrame:
    """Context manager for the root frame of one op."""

    def __init__(self, clock: LayerClock) -> None:
        self._clock = clock
        self._frame: list[Any] | None = None
        self.wall_s = 0.0

    def __enter__(self) -> "_OpFrame":
        self._frame, _ = self._clock.push(ROOT)
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._frame is not None
        self.wall_s = self._clock.pop(self._frame)


class _TimedIterator:
    """Times every pull from a wrapped frame iterator."""

    __slots__ = ("_inner", "_clock")

    def __init__(self, inner: Iterator[Any], clock: LayerClock) -> None:
        self._inner = inner
        self._clock = clock

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        clock = self._clock
        frame, outermost = clock.push(SOURCE, clock.pull_cost)
        try:
            item = next(self._inner)
        finally:
            clock.pop(frame)
        if outermost:
            clock.counts["video.source.frames"] += 1
        return item


def _timed(
    clock: LayerClock,
    layer: str,
    fn: Callable[..., Any],
    count: Callable[[tuple, dict, Any], None] | None = None,
) -> Callable[..., Any]:
    """``fn`` wrapped in a ``layer`` frame; ``count`` sees the call's
    arguments and result when the frame is its layer's outermost."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame, outermost = clock.push(layer, clock.call_cost)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.pop(frame)
        if outermost and count is not None:
            count(args, kwargs, result)
        return result

    return wrapper


def _excess_s(run_wrapped: Callable[[], None],
              run_bare: Callable[[], None], clock: LayerClock,
              layer: str, calls: int) -> float:
    """Seconds per call that ``run_wrapped`` takes beyond ``run_bare``
    and beyond what ``clock`` charged to ``layer``."""
    charged = clock.self_s[layer]
    started = time.perf_counter()
    run_wrapped()
    wrapped_s = time.perf_counter() - started
    charged = clock.self_s[layer] - charged
    started = time.perf_counter()
    run_bare()
    bare_s = time.perf_counter() - started
    return (wrapped_s - charged - bare_s) / calls


def wrapper_costs(calls: int = 20_000, rounds: int = 7
                  ) -> tuple[float, float, float]:
    """Host seconds one wrapped call, one timed frame pull and one
    recorded span add to their caller beyond the callee's own frame,
    measured on empty calls inside an open frame (medians over
    ``rounds``)."""
    clock = LayerClock()

    def empty() -> None:
        return None

    def count(args: tuple, kwargs: dict, result: Any) -> None:
        clock.counts["calibration"] += 1

    wrapped = _timed(clock, "calibration", empty, count)
    items = range(calls)

    def call_wrapped() -> None:
        for _ in items:
            wrapped()

    def call_bare() -> None:
        for _ in items:
            empty()

    def pull_wrapped() -> None:
        for _ in _TimedIterator(iter(items), clock):
            pass

    def pull_bare() -> None:
        for _ in iter(items):
            pass

    samples: dict[str, list[float]] = defaultdict(list)
    root, _ = clock.push(ROOT)
    try:
        for _ in range(rounds):
            samples["call"].append(
                _excess_s(call_wrapped, call_bare, clock, "calibration", calls)
            )
            samples["pull"].append(
                _excess_s(pull_wrapped, pull_bare, clock, SOURCE, calls)
            )
            clock.recording = True
            try:
                samples["recorded"].append(
                    _excess_s(
                        call_wrapped, call_bare, clock, "calibration", calls
                    )
                )
            finally:
                clock.recording = False
                clock.spans.clear()
    finally:
        clock.pop(root)
    call, pull, recorded = (
        max(statistics.median(samples[kind]), 0.0)
        for kind in ("call", "pull", "recorded")
    )
    return call, pull, max(recorded - call, 0.0)


def _scheme_classes() -> list[type]:
    """Every class in ``repro.core``, ``repro.baselines`` and
    ``repro.pipeline.conventional`` that defines ``plan_window``."""
    modules = [importlib.import_module("repro.pipeline.conventional")]
    for package_name in ("repro.core", "repro.baselines"):
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(
                importlib.import_module(f"{package_name}.{info.name}")
            )
    classes = []
    for module in modules:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and (
                "plan_window" in vars(cls)
            ):
                classes.append(cls)
    return classes


class LayerPatches:
    """Installs and removes the layer wrappers around ``clock``; with
    ``only``, just the boundaries of those layers."""

    def __init__(self, clock: LayerClock,
                 only: tuple[str, ...] | None = None) -> None:
        self.clock = clock
        self.only = only
        self._wrapped: dict[str, list[tuple[Any, str, Any]]] | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every selected layer boundary (idempotent per
        instance)."""
        if self._saved:
            return
        if self._wrapped is None:
            self._wrapped = self._boundaries()
        for layer, boundaries in self._wrapped.items():
            if self.only is None or layer in self.only:
                for owner, name, replacement in boundaries:
                    self._patch(owner, name, replacement)

    def _boundaries(self) -> dict[str, list[tuple[Any, str, Any]]]:
        """Every wrapped attribute by layer, as ``(owner, name,
        replacement)``."""
        from repro.analysis import runner
        from repro.obs import dist
        from repro.pipeline.sim import FrameWindowSimulator
        from repro.pipeline.timeline import TimelineSummary
        from repro.power.model import PowerModel
        from repro.video import network, source

        clock = self.clock
        counts = clock.counts
        boundaries: dict[str, list[tuple[Any, str, Any]]] = defaultdict(list)

        def wrap(layer: str, owner: Any, name: str,
                 count: Callable[[tuple, dict, Any], None] | None = None
                 ) -> None:
            boundaries[layer].append(
                (owner, name, _timed(clock, layer, vars(owner)[name], count))
            )

        def count_plan(args: tuple, kwargs: dict, result: Any) -> None:
            counts["core.plan.calls"] += 1
            counts["core.plan.segments"] += len(result.timeline.segments)

        for cls in _scheme_classes():
            wrap(PLAN, cls, "plan_window", count_plan)

        def count_add(args: tuple, kwargs: dict, result: Any) -> None:
            counts["pipeline.timeline.segments_folded"] += 1

        def count_absorb(args: tuple, kwargs: dict, result: Any) -> None:
            counts["pipeline.timeline.segments_folded"] += (
                args[1].segment_count
            )

        def count_absorb_scaled(
            args: tuple, kwargs: dict, result: Any
        ) -> None:
            scale = args[2] if len(args) > 2 else kwargs["count"]
            counts["pipeline.timeline.segments_folded"] += (
                args[1].segment_count * scale
            )

        wrap(FOLD, TimelineSummary, "add_segment", count_add)
        wrap(FOLD, TimelineSummary, "absorb", count_absorb)
        wrap(FOLD, TimelineSummary, "absorb_scaled", count_absorb_scaled)
        wrap(SIM, FrameWindowSimulator, "run")

        def timed_iter(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return _TimedIterator(fn(*args, **kwargs), clock)

            return wrapper

        for owner, name in (
            (source.ListFrameSource, "__iter__"),
            (source.RepeatingFrameSource, "__iter__"),
            (source.AnalyticFrameSource, "__iter__"),
            (network.NetworkFrameSource, "__iter__"),
            (source.AnalyticContentModel, "iter_frames"),
        ):
            boundaries[SOURCE].append(
                (owner, name, timed_iter(vars(owner)[name]))
            )

        def count_report(args: tuple, kwargs: dict, result: Any) -> None:
            counts["power.model.calls"] += 1
            priced = args[1]
            if hasattr(priced, "timeline"):
                priced = (
                    priced.timeline
                    if priced.timeline is not None
                    else priced.summary
                )
            counts["power.model.segments_priced"] += (
                priced.segment_count
                if hasattr(priced, "segment_count")
                else len(priced.segments)
            )

        for name in ("report", "report_timeline", "report_summary"):
            wrap(POWER, PowerModel, name, count_report)

        def count_load(args: tuple, kwargs: dict, result: Any) -> None:
            counts["analysis.runner.cache.loads"] += 1
            counts["analysis.runner.cache.hits"] += result is not None

        def count_store(args: tuple, kwargs: dict, result: Any) -> None:
            counts["analysis.runner.cache.stores"] += 1

        wrap(CACHE_LOAD, runner.SimulationCache, "load", count_load)
        wrap(CACHE_STORE, runner.SimulationCache, "store", count_store)
        wrap(EXPERIMENTS, runner, "run_exhibit")
        wrap(MERGE, dist, "merge_worker_metrics")
        return boundaries

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerPatches":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
