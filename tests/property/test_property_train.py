"""An oscillation train is the per-cycle build, bit for bit.

:meth:`TimelineBuilder.cycles` stores the cycles after the second as
one train of the timeline instead of adding them phase by phase.  These
properties hold it to the per-cycle build (``repeat`` refused, so every
cycle goes through :meth:`TimelineBuilder.add`) with ``==`` and no
tolerance: the expanded segments, ``end``, the final state, ``len``,
the builder's clock and squeezed count, the summary fold
(:meth:`TimelineSummary.add_segment` over the built segments against
:meth:`TimelineSummary.add_timeline`), :meth:`TimelineSummary.window_digest`
and :meth:`TimelineSummary.from_timeline`.  Cases: random increments,
rates, entry states and start times; 1, 2, 3, 11 and 12 cycles;
excursions that swallow a phase; an empty drain, which leaves the
builder in C2; the plans of every scheme that oscillates (the
conventional family's fetch-drain, the Frame Bursting burst body, and
the C7/C7' interleave of BurstLink and bypass); and an APL-stamped
frame.
"""

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fbc import FrameBufferCompressionScheme
from repro.baselines.zhang import ZhangScheme
from repro.config import FHD, UHD_4K, UHD_5K, skylake_tablet
from repro.core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
)
from repro.display.timing import WindowKind, WindowPlan
from repro.pipeline.builder import TimelineBuilder, excursion_latency
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import (
    FrameWindowSimulator,
    WindowContext,
    _stamp_content,
)
from repro.pipeline.timeline import PanelMode, Timeline, TimelineSummary
from repro.power.model import PowerModel
from repro.soc.cstates import PackageCState
from repro.video.source import (
    AnalyticContentModel,
    ContentAttributes,
    FrameDescriptor,
    FrameType,
)

CYCLES = st.sampled_from([1, 2, 3, 11, 12])

rates = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e10))

#: Phase bases from exactly zero through ones far below an excursion
#: latency (the excursion then swallows the phase) to whole windows.
bases = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-15, max_value=1e-9),
    st.floats(min_value=1e-9, max_value=0.05),
)


def per_cycle():
    """Refuse every train, so each cycle is added phase by phase."""
    return mock.patch.object(
        TimelineBuilder, "repeat", lambda self, times: False
    )


def fold(segments, kind):
    """The summary of ``segments`` folded one by one."""
    summary = TimelineSummary()
    for segment in segments:
        summary.add_segment(segment, kind)
    return summary


def assert_same_summary(got, want):
    assert list(got.buckets) == list(want.buckets)
    assert got.buckets == want.buckets
    assert json.dumps(got.to_payload()) == json.dumps(want.to_payload())


def assert_same_timeline(train, built):
    """``train`` (possibly holding a train) equals the per-cycle
    ``built`` in every view the program reads."""
    assert list(train) == built.segments
    assert train.segments == built.segments
    assert train == built
    assert len(train) == len(built)
    assert train.start == built.start
    assert train.end == built.end
    assert train.duration == built.duration
    if built.segments:
        assert train.final_state is built.segments[-1].state
        assert train[0] == built.segments[0]
    for kind in ("new_frame", "repeat"):
        summary = TimelineSummary()
        summary.add_timeline(train, kind)
        assert_same_summary(summary, fold(built.segments, kind))
        got = TimelineSummary.window_digest(train, kind, 1 / 60)
        want = TimelineSummary.window_digest(built, kind, 1 / 60)
        assert_same_summary(got, want)
        assert (got.start, got.end) == (want.start, want.end)
    got = TimelineSummary.from_timeline(train, "new_frame")
    want = TimelineSummary.from_timeline(built, "new_frame")
    assert_same_summary(got, want)
    assert (got.start, got.end) == (want.start, want.end)


@st.composite
def cycle_specs(draw):
    return {
        "start": draw(st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=7200.0)
        )),
        "entry": draw(st.sampled_from(list(PackageCState))),
        "cycles": draw(CYCLES),
        "fetch": draw(bases),
        "drain": draw(bases),
        "empty_drain": draw(st.booleans()),
        "read_bw": draw(rates),
        "edp_rate": draw(rates),
    }


def emit(spec):
    """A builder after ``spec``'s fetch-drain cycles."""
    builder = TimelineBuilder(
        start=spec["start"], initial_state=spec["entry"]
    )
    for _ in builder.cycles(spec["cycles"]):
        builder.add(
            spec["fetch"]
            + excursion_latency(builder.state, PackageCState.C2),
            PackageCState.C2,
            label="fetch chunk",
            dram_read_bw=spec["read_bw"],
            dc_active=True,
            edp_rate=spec["edp_rate"],
            panel_mode=PanelMode.LIVE,
        )
        builder.add(
            0.0 if spec["empty_drain"] else (
                spec["drain"]
                + excursion_latency(PackageCState.C2, PackageCState.C8)
            ),
            PackageCState.C8,
            label="drain",
            dc_active=True,
            edp_rate=spec["edp_rate"],
            panel_mode=PanelMode.LIVE,
        )
    return builder


@settings(max_examples=300, deadline=None)
@given(cycle_specs())
def test_train_equals_per_cycle_build(spec):
    train = emit(spec)
    with per_cycle():
        built = emit(spec)
    assert_same_timeline(train.timeline, built.timeline)
    assert train.now == built.now
    assert train.state is built.state
    assert train.squeezed_phases == built.squeezed_phases
    # The drain that follows the train lands on the same floats too.
    end = built.now + 1e-3
    for builder in (train, built):
        builder.fill_to(end, PackageCState.C8, label="drain",
                        dc_active=True, panel_mode=PanelMode.LIVE)
    assert_same_timeline(train.timeline, built.timeline)
    assert train.now == built.now


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(min_value=0.0, max_value=7200.0),
    entry=st.sampled_from(list(PackageCState)),
    cycles=CYCLES,
    phases=st.lists(
        st.tuples(bases, st.sampled_from(list(PackageCState)), rates),
        min_size=1, max_size=3,
    ),
)
def test_any_cycle_repeats_as_built(start, entry, cycles, phases):
    """Any cycle of phases: one that does not end in the state it
    entered from must be refused (the next pass would carve other
    excursions), and either way the result is the per-cycle build."""

    def build():
        builder = TimelineBuilder(start=start, initial_state=entry)
        for _ in builder.cycles(cycles):
            for number, (base, state, edp_rate) in enumerate(phases):
                builder.add(base, state, label=f"phase {number}",
                            edp_rate=edp_rate, panel_mode=PanelMode.LIVE)
        return builder

    train = build()
    with per_cycle():
        built = build()
    assert_same_timeline(train.timeline, built.timeline)
    assert (train.now, train.state, train.squeezed_phases) == (
        built.now, built.state, built.squeezed_phases
    )


#: Every scheme whose new-frame plan oscillates; BurstLink's planar
#: plan does once its burst outlasts the stretched decode (4K and up at
#: 60 FPS).
OSCILLATING_SCHEMES = [
    ConventionalScheme,
    FrameBufferCompressionScheme,
    ZhangScheme,
    FrameBurstingScheme,
    BurstLinkScheme,
    FrameBufferBypassScheme,
]


def cycle_config(resolution, cycles, display_bytes):
    """The tablet at ``resolution`` with every oscillation sized to
    ``cycles``: the fetch-drain cap, and a DC buffer whose half takes
    ``display_bytes`` in ``cycles`` C7/C7' hand-offs."""
    config = skylake_tablet(resolution).with_drfb()
    buffer_size = 2 * display_bytes / cycles * (1 + 1e-9)
    return dataclasses.replace(
        config,
        dc=dataclasses.replace(
            config.dc,
            max_fetch_cycles_per_window=cycles,
            buffer_size=buffer_size,
            chunk_size=min(config.dc.chunk_size, buffer_size),
        ),
    )


def new_frame_context(config, fps, entry, decoded, apl=0.0, index=0):
    frame_bytes = float(config.panel.frame_bytes)
    frame = FrameDescriptor(
        index=index,
        frame_type=FrameType.P,
        encoded_bytes=frame_bytes * decoded / 50,
        decoded_bytes=frame_bytes * decoded,
        attributes=ContentAttributes(apl=apl) if apl else None,
    )
    return frame, WindowContext(
        config=config,
        window=WindowPlan(
            index=index, start=0.0, duration=1.0 / fps,
            kind=WindowKind.NEW_FRAME, frame_index=index,
        ),
        frame=frame,
        initial_state=entry,
    )


@settings(max_examples=200, deadline=None)
@given(
    scheme_cls=st.sampled_from(OSCILLATING_SCHEMES),
    resolution=st.sampled_from([FHD, UHD_4K, UHD_5K]),
    fps=st.sampled_from([24.0, 30.0, 60.0]),
    cycles=CYCLES,
    entry=st.sampled_from(list(PackageCState)),
    decoded=st.floats(min_value=0.05, max_value=1.0),
    apl=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    index=st.integers(min_value=0, max_value=7),
)
def test_scheme_plans_equal_per_cycle_plans(
    scheme_cls, resolution, fps, cycles, entry, decoded, apl, index
):
    config = cycle_config(
        resolution, cycles, float(resolution.frame_bytes()) * decoded
    )
    frame, ctx = new_frame_context(config, fps, entry, decoded, apl, index)
    train = _stamp_content(scheme_cls().plan_window(ctx), frame)
    with per_cycle():
        built = _stamp_content(scheme_cls().plan_window(ctx), frame)
    assert_same_timeline(train.timeline, built.timeline)
    assert train.staged_segment == built.staged_segment
    assert train.deadline_missed == built.deadline_missed
    assert train.vd_wakes == built.vd_wakes
    if apl:
        assert all(
            segment.apl == apl for segment in train.timeline
            if segment.panel_mode is not PanelMode.OFF
        )


@pytest.mark.parametrize("scheme_cls", OSCILLATING_SCHEMES)
def test_every_oscillation_goes_in_as_a_train(scheme_cls, monkeypatch):
    """The 4K, 60-FPS plan of each scheme stores its cycles after the
    second as one train, so the property above compares trains."""
    repeats = []
    record = Timeline.repeat

    def counting(self, steps, times):
        repeats.append(times)
        return record(self, steps, times)

    monkeypatch.setattr(Timeline, "repeat", counting)
    config = cycle_config(UHD_4K, 8, float(UHD_4K.frame_bytes()))
    _, ctx = new_frame_context(config, 60.0, PackageCState.C8, 1.0)
    scheme_cls().plan_window(ctx)
    assert len(repeats) == 1 and repeats[0] >= 2


def test_summary_run_never_expands_a_train(monkeypatch):
    """A summary-retention conventional run folds and prices its trains
    as stored: no copy is ever built."""
    repeats = []
    record = Timeline.repeat

    def counting(self, steps, times):
        repeats.append(times)
        return record(self, steps, times)

    def refuse(self):
        raise AssertionError("a train was expanded")

    monkeypatch.setattr(Timeline, "repeat", counting)
    monkeypatch.setattr(Timeline, "_expand", refuse)
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, 12, seed=3)
    run = FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, 30.0
    )
    assert run.timeline is None
    assert repeats and all(times > 0 for times in repeats)
    assert PowerModel().report(run).average_power_mw > 0
