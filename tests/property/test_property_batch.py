"""Property-based equivalence: plan-group replay (an untraced run) must
be indistinguishable from planning every window fresh (a traced run, the
per-window reference) for every scheme, cadence, and retain mode —
equal stats, equal summary payloads and equal energy reports, compared
exactly — and vectorized plan pricing must match the per-segment
scalar composition of the library.
(Byte-equal summaries and pushed-vs-offline streams are checked in
``test_property_summary.py``.)"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FHD, QHD, skylake_tablet
from repro.core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
)
from repro.obs.trace import tracing
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import install_run_memo
from repro.pipeline.timeline import SegmentClass, TimelineSummary
from repro.power import PowerModel
from repro.power.model import COMPONENT_KEYS, QUANTITY_COLUMNS
from repro.video.source import AnalyticContentModel

from .test_property_power import oracle_component_powers


@pytest.fixture(autouse=True)
def no_memo():
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


schemes = st.sampled_from(
    [
        ("conventional", ConventionalScheme, False),
        ("burstlink", BurstLinkScheme, True),
        ("bursting", FrameBurstingScheme, True),
        ("bypass", FrameBufferBypassScheme, False),
    ]
)
resolutions = st.sampled_from([FHD, QHD])
frame_rates = st.sampled_from([15.0, 24.0, 30.0, 60.0])
frame_counts = st.integers(min_value=1, max_value=10)
retains = st.sampled_from(["full", "summary"])
seeds = st.integers(min_value=0, max_value=2**16)


@given(schemes, resolutions, frame_rates, frame_counts, retains, seeds)
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar(
    scheme_spec, resolution, fps, count, retain, seed
):
    """Replayed plan groups price like windows planned one by one."""
    name, scheme_cls, needs_drfb = scheme_spec
    config = skylake_tablet(resolution)
    if needs_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(resolution, count, seed=seed)

    with tracing():
        scalar = FrameWindowSimulator(config, scheme_cls()).run(
            frames, fps, retain=retain
        )
    batch = FrameWindowSimulator(config, scheme_cls()).run(
        frames, fps, retain=retain
    )

    assert batch.stats == scalar.stats
    assert batch.summary.to_payload() == scalar.summary.to_payload()
    assert PowerModel().report(batch) == PowerModel().report(scalar)


@given(resolutions, frame_rates, frame_counts, seeds)
@settings(max_examples=25, deadline=None)
def test_price_plan_matrix_matches_scalar_pricer(
    resolution, fps, count, seed
):
    """The vectorized pricer is the per-segment scalar oracle, summed
    over each class's segments."""
    import numpy as np

    config = skylake_tablet(resolution)
    frames = AnalyticContentModel().frames(resolution, count, seed=seed)
    run = FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, fps, retain="full"
    )
    model = PowerModel()
    summary = TimelineSummary.from_timeline(run.timeline)
    cls_keys = list(summary.buckets)
    quantities = np.array(
        [
            [getattr(summary.buckets[k], column)
             for column in QUANTITY_COLUMNS]
            for k in cls_keys
        ]
    )
    matrix = model.price_plan_matrix(
        cls_keys, quantities, config.panel
    )
    expected = {k: [0.0] * len(COMPONENT_KEYS) for k in cls_keys}
    for segment in run.timeline:
        powers = oracle_component_powers(model, segment, config.panel)
        row = expected[SegmentClass.of(segment)]
        for col, key in enumerate(COMPONENT_KEYS):
            row[col] += powers[key] * segment.duration
    for row, cls_key in enumerate(cls_keys):
        for col, energy in enumerate(expected[cls_key]):
            assert matrix[row, col] == pytest.approx(
                energy, rel=1e-9, abs=1e-18
            )
