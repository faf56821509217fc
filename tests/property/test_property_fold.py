"""The summary fold is exact.

:meth:`TimelineSummary.add_segment` keys buckets through an interned
attribute tuple and accumulates ``end - start`` and ``rate * duration``
itself.  These properties hold it to the plain definition — key by
:meth:`SegmentClass.of`, add the :class:`Segment` properties — with
``==`` on the serialized payload and on the bucket order, no tolerance:
random segments (transitions, idle and active eDP links, APL), digests
folded in between with :meth:`TimelineSummary.absorb_scaled`, and bucket
maps cleared mid-stream.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.timeline import (
    ClassTotals,
    PanelMode,
    Segment,
    SegmentClass,
    Timeline,
    TimelineSummary,
    VdMode,
)
from repro.soc.cstates import PackageCState

rates = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=1e10)
)


@st.composite
def segments(draw):
    state = draw(st.sampled_from(list(PackageCState)))
    start = draw(st.floats(min_value=0.0, max_value=3600.0))
    duration = draw(
        st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1.0))
    )
    traffic = not state.dram_in_self_refresh
    return Segment(
        start=start,
        end=start + duration,
        state=state,
        label=draw(st.sampled_from(["", "idle", "fetch chunk", "C8->C2"])),
        transition=draw(st.booleans()),
        dram_read_bw=draw(rates) if traffic else 0.0,
        dram_write_bw=draw(rates) if traffic else 0.0,
        edp_rate=draw(rates),
        cpu_active=draw(st.booleans()),
        gpu_active=draw(st.booleans()),
        vd_mode=draw(st.sampled_from(list(VdMode))),
        dc_active=draw(st.booleans()),
        panel_mode=draw(st.sampled_from(list(PanelMode))),
        drfb_active=draw(st.booleans()),
        apl=draw(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
        ),
    )


kinds = st.sampled_from(["", "new_frame", "repeat"])

#: One step of a fold: a segment, a scaled digest, or a cleared map.
steps = st.one_of(
    st.tuples(st.just("segment"), segments(), kinds),
    st.tuples(
        st.just("scaled"),
        st.lists(segments(), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=1000),
    ),
    st.tuples(st.just("clear")),
)


def _reference_add(summary, segment, kind):
    """The fold as defined: class record per segment, properties for
    every quantity."""
    totals = summary.buckets.setdefault(
        SegmentClass.of(segment, kind), ClassTotals()
    )
    totals.seconds += segment.duration
    totals.segments += 1
    totals.dram_read_bytes += segment.dram_read_bytes
    totals.dram_write_bytes += segment.dram_write_bytes
    totals.edp_bytes += segment.edp_bytes
    totals.apl_seconds += segment.apl_seconds


def _assert_identical(actual, expected):
    assert json.dumps(actual.to_payload()) == json.dumps(
        expected.to_payload()
    )
    assert list(actual.buckets) == list(expected.buckets)
    assert actual.buckets == expected.buckets


@given(st.lists(steps, max_size=40))
@settings(max_examples=150, deadline=None)
def test_add_segment_matches_reference_fold(plan):
    actual, expected = TimelineSummary(), TimelineSummary()
    for step in plan:
        if step[0] == "segment":
            _, segment, kind = step
            actual.add_segment(segment, kind)
            _reference_add(expected, segment, kind)
        elif step[0] == "scaled":
            _, digest_segments, count = step
            digest = TimelineSummary()
            for segment in digest_segments:
                digest.add_segment(segment, "repeat")
            actual.absorb_scaled(digest, count)
            expected.absorb_scaled(digest, count)
        else:
            actual.buckets.clear()
            expected.buckets.clear()
        _assert_identical(actual, expected)


@given(st.lists(segments(), min_size=1, max_size=30), kinds)
@settings(max_examples=80, deadline=None)
def test_window_digest_matches_reference_fold(segment_list, kind):
    # Chain the random segments end to end into a valid timeline.
    chained, now = [], 0.0
    for segment in segment_list:
        chained.append(segment.shifted(now - segment.start))
        now = chained[-1].end
    timeline = Timeline(chained)
    expected = TimelineSummary()
    for segment in timeline:
        _reference_add(expected, segment, kind)
    expected.close_window(kind, 1 / 60, timeline.duration)
    _assert_identical(
        TimelineSummary.window_digest(timeline, kind, 1 / 60), expected
    )
