"""Property-based invariants over simulator traces.

Whatever the scheme, cadence, or content seed, a captured trace must be
structurally sound: spans strictly nested and balanced, exactly one
span per planned refresh window, the C-state segments inside a window
tiling its period exactly, and cache counter events reconciling with
the metrics registry's cache counters.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import SimulationCache
from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer, tracing
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import install_run_memo
from repro.video.source import AnalyticContentModel

SCHEMES = {
    "conventional": (ConventionalScheme, False),
    "burstlink": (BurstLinkScheme, True),
}

run_parameters = st.fixed_dictionaries(
    {
        "scheme": st.sampled_from(sorted(SCHEMES)),
        "frame_count": st.integers(min_value=1, max_value=5),
        "fps": st.sampled_from((24.0, 30.0, 60.0)),
        "seed": st.integers(min_value=0, max_value=3),
    }
)


def _traced_run(scheme, frame_count, fps, seed, memo=None):
    factory, needs_drfb = SCHEMES[scheme]
    config = skylake_tablet(FHD)
    if needs_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(FHD, frame_count, seed=seed)
    previous = install_run_memo(memo)
    try:
        with tracing() as tracer:
            run = FrameWindowSimulator(config, factory()).run(
                frames, fps
            )
    finally:
        install_run_memo(previous)
    return tracer, run


def _window_spans(tracer: Tracer):
    """(begin, end) event pairs for every ``sim.window`` span."""
    begins = {
        e["seq"]: e
        for e in tracer.events
        if e["kind"] == "B" and e["name"] == "sim.window"
    }
    return [
        (begins[e["span"]], e)
        for e in tracer.events
        if e["kind"] == "E" and e["span"] in begins
    ]


@settings(max_examples=12, deadline=None)
@given(parameters=run_parameters)
def test_spans_nest_and_balance(parameters):
    tracer, _ = _traced_run(**parameters)
    stack = []
    for event in tracer.events:
        if event["kind"] == "B":
            if stack:
                assert event["parent"] == stack[-1]
            stack.append(event["seq"])
        elif event["kind"] == "E":
            assert stack, "span end with no span open"
            assert stack.pop() == event["span"]
    assert stack == [], "spans left open"
    assert tracer.open_spans == 0


@settings(max_examples=12, deadline=None)
@given(parameters=run_parameters)
def test_every_window_emits_exactly_one_span(parameters):
    tracer, run = _traced_run(**parameters)
    windows = _window_spans(tracer)
    assert len(windows) == run.stats.windows
    indices = [begin["attrs"]["index"] for begin, _ in windows]
    assert indices == sorted(set(indices)), "duplicate or unordered"


@settings(max_examples=12, deadline=None)
@given(parameters=run_parameters)
def test_segments_tile_each_window_period(parameters):
    tracer, run = _traced_run(**parameters)
    period = 1.0 / run.config.panel.refresh_hz
    # Group segment events under their parent window span.
    per_window: dict[int, float] = {}
    for event in tracer.events:
        if event["kind"] == "I" and event["name"] == "sim.segment":
            parent = event["parent"]
            per_window[parent] = (
                per_window.get(parent, 0.0)
                + event["attrs"]["duration"]
            )
    assert len(per_window) == run.stats.windows
    for begin, end in _window_spans(tracer):
        total = per_window[begin["seq"]]
        assert math.isclose(total, period, abs_tol=1e-7)
        assert math.isclose(
            end["t"] - begin["t"], period, abs_tol=1e-7
        )


@settings(max_examples=10, deadline=None)
@given(
    parameters=run_parameters,
    repeats=st.integers(min_value=1, max_value=3),
)
def test_cache_counter_events_reconcile_with_stats(parameters, repeats):
    registry = obs_metrics.registry()
    outcomes = ("cache.hit", "cache.miss", "cache.store")

    def counts():
        return [
            registry.get(name).value if name in registry else 0
            for name in outcomes
        ]

    before = counts()
    cache = SimulationCache()
    previous = install_run_memo(cache)
    try:
        with tracing() as tracer:
            for _ in range(repeats + 1):
                factory, needs_drfb = SCHEMES[parameters["scheme"]]
                config = skylake_tablet(FHD)
                if needs_drfb:
                    config = config.with_drfb()
                frames = AnalyticContentModel().frames(
                    FHD, parameters["frame_count"],
                    seed=parameters["seed"],
                )
                FrameWindowSimulator(config, factory()).run(
                    frames, parameters["fps"]
                )
    finally:
        install_run_memo(previous)
    names = [e["name"] for e in tracer.events if e["kind"] == "I"]
    grown = [after - was for after, was in zip(counts(), before)]
    assert [names.count(name) for name in outcomes] == grown
    assert grown == [repeats, 1, 1]
