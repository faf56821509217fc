"""Property-based robustness: random platform/workload configurations
through the full simulate-and-price stack must preserve the global
invariants for every scheme."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    EdpConfig,
    PanelConfig,
    Resolution,
    SystemConfig,
)
from repro.core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
)
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.power import PowerModel
from repro.units import gbps
from repro.video.source import AnalyticContentModel

#: Panel geometries from phone-class to 5K, always macroblock-friendly.
panel_geometries = st.tuples(
    st.integers(min_value=40, max_value=320),
    st.integers(min_value=30, max_value=180),
).map(lambda wh: Resolution(wh[0] * 16, wh[1] * 16))

refresh_rates = st.sampled_from([48.0, 60.0, 90.0, 120.0])
frame_rates = st.sampled_from([24.0, 30.0, 48.0, 60.0])

schemes = st.sampled_from(
    [
        ("conventional", ConventionalScheme, False),
        ("burstlink", BurstLinkScheme, True),
        ("bursting", FrameBurstingScheme, True),
        ("bypass", FrameBufferBypassScheme, False),
    ]
)


def build_config(resolution, refresh):
    """A platform whose link always sustains the panel (scaled up when
    the random mode outruns eDP 1.4)."""
    needed = resolution.frame_bytes() * refresh
    link = EdpConfig()
    if needed > link.max_bandwidth:
        link = EdpConfig(
            name="scaled", max_bandwidth=needed * 2.5
        )
    return SystemConfig(
        panel=PanelConfig(resolution=resolution, refresh_hz=refresh),
        edp=link,
    )


@given(panel_geometries, refresh_rates, frame_rates, schemes)
@settings(max_examples=60, deadline=None)
def test_full_stack_invariants(resolution, refresh, fps, scheme_spec):
    """For any feasible random configuration: the timeline tiles the
    run exactly, residencies sum to one, energy is finite and positive,
    and the closed-form identity holds."""
    if fps > refresh:
        return
    name, factory, needs_drfb = scheme_spec
    config = build_config(resolution, refresh)
    if needs_drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(resolution, 6)
    run = FrameWindowSimulator(config, factory()).run(frames, fps)

    assert run.duration == pytest.approx(
        run.stats.windows / refresh
    )
    assert sum(run.residency_fractions().values()) == (
        pytest.approx(1.0)
    )
    model = PowerModel()
    report = model.report(run)
    assert 0 < report.average_power_mw < 50000
    assert model.closed_form_average_power(report) == pytest.approx(
        report.average_power_mw, rel=1e-9
    )


@given(panel_geometries, frame_rates)
@settings(max_examples=30, deadline=None)
def test_burstlink_never_loses_to_baseline(resolution, fps):
    """On any feasible 60 Hz panel, BurstLink's average power never
    exceeds the conventional pipeline's — the paper's claim has no
    adversarial counterexample in the configuration space."""
    if fps > 60.0:
        return
    config = build_config(resolution, 60.0)
    frames = AnalyticContentModel().frames(resolution, 6)
    model = PowerModel()
    base = model.report(
        FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, fps
        )
    )
    burst = model.report(
        FrameWindowSimulator(
            config.with_drfb(), BurstLinkScheme()
        ).run(frames, fps)
    )
    assert burst.average_power_mw < base.average_power_mw


@given(panel_geometries, frame_rates)
@settings(max_examples=30, deadline=None)
def test_bypass_eliminates_display_dram_traffic(resolution, fps):
    """For any configuration, the bypass path's DRAM traffic is exactly
    the encoded stream (write + read), independent of frame size."""
    if fps > 60.0:
        return
    config = build_config(resolution, 60.0)
    frames = AnalyticContentModel().frames(resolution, 6)
    run = FrameWindowSimulator(
        config, FrameBufferBypassScheme()
    ).run(frames, fps, retain="full")
    encoded = 2 * sum(f.encoded_bytes for f in frames)
    assert run.timeline.dram_total_bytes == pytest.approx(
        encoded, rel=0.05
    )
