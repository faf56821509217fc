"""Property-based tests on the power model."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PanelConfig, Resolution
from repro.dram.power import DramPowerModel
from repro.pipeline.timeline import (
    PanelMode,
    Segment,
    Timeline,
    TimelineSummary,
    VdMode,
)
from repro.power.model import COMPONENT_KEYS, PowerModel
from repro.soc.cstates import PackageCState

#: 0 or a normal float: a subnormal product keeps fewer than 53
#: significant bits, so two association orders of the same energy
#: cannot agree to 1e-12 there (no workload moves under 1 B/s).
bandwidths = st.floats(
    min_value=0.0, max_value=30e9, allow_subnormal=False
)
shallow_states = st.sampled_from(
    [PackageCState.C0, PackageCState.C2]
)
deep_states = st.sampled_from(
    [
        PackageCState.C7,
        PackageCState.C7_PRIME,
        PackageCState.C8,
        PackageCState.C9,
    ]
)
resolutions = st.sampled_from(
    [
        Resolution(1920, 1080),
        Resolution(2560, 1440),
        Resolution(3840, 2160),
    ]
)


@given(bandwidths, bandwidths)
def test_dram_operating_power_superposition(read, write):
    model = DramPowerModel()
    combined = model.operating_power(read, write)
    assert abs(
        combined
        - model.operating_power(read, 0)
        - model.operating_power(0, write)
    ) < 1e-6


@given(shallow_states, bandwidths, resolutions)
@settings(max_examples=100)
def test_power_monotone_in_traffic(state, bandwidth, resolution):
    model = PowerModel()
    panel = PanelConfig(resolution=resolution)
    quiet = Segment(start=0, end=1, state=state)
    busy = Segment(
        start=0, end=1, state=state, dram_read_bw=bandwidth
    )
    assert model.segment_power(busy, panel) >= model.segment_power(
        quiet, panel
    )


@given(deep_states, resolutions)
@settings(max_examples=100)
def test_deep_states_cheaper_than_c0(state, resolution):
    model = PowerModel()
    panel = PanelConfig(resolution=resolution)
    deep = Segment(start=0, end=1, state=state)
    active = Segment(
        start=0, end=1, state=PackageCState.C0, cpu_active=True,
        vd_mode=VdMode.ACTIVE,
    )
    assert model.segment_power(deep, panel) < model.segment_power(
        active, panel
    )


@given(
    deep_states,
    resolutions,
    st.sampled_from([PanelMode.SELF_REFRESH, PanelMode.LIVE]),
)
@settings(max_examples=100)
def test_power_always_positive(state, resolution, panel_mode):
    model = PowerModel()
    panel = PanelConfig(resolution=resolution)
    segment = Segment(
        start=0, end=1, state=state, panel_mode=panel_mode
    )
    assert model.segment_power(segment, panel) > 0


@given(resolutions, st.floats(min_value=60.0, max_value=144.0))
@settings(max_examples=100)
def test_panel_power_monotone_in_refresh(resolution, refresh):
    library = PowerModel().library
    base = library.panel_power(
        PanelConfig(resolution=resolution, refresh_hz=60.0)
    )
    fast = library.panel_power(
        PanelConfig(resolution=resolution, refresh_hz=refresh)
    )
    assert fast >= base


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-4, max_value=10e-3),
            deep_states,
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50)
def test_report_energy_equals_sum_of_segments(phase_list):
    """Total report energy always equals the integral over segments."""
    from repro.pipeline.builder import TimelineBuilder

    builder = TimelineBuilder(initial_state=PackageCState.C8)
    for duration, state in phase_list:
        builder.add(duration, state)
    timeline = builder.build()
    model = PowerModel()
    panel = PanelConfig()
    report = model.report_timeline(timeline, panel)
    manual = sum(
        model.segment_power(segment, panel) * segment.duration
        for segment in timeline
    )
    assert abs(report.total_energy_mj - manual) < 1e-6


any_states = st.sampled_from(list(PackageCState))
unit_floats = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def segments(draw):
    """An arbitrary valid segment: DRAM traffic only where the state
    keeps DRAM out of self-refresh."""
    state = draw(any_states)
    traffic = st.just(0.0) if state.dram_in_self_refresh else bandwidths
    start = draw(st.floats(min_value=0.0, max_value=10.0))
    return Segment(
        start=start,
        end=start + draw(st.floats(min_value=1e-6, max_value=1.0)),
        state=state,
        transition=draw(st.booleans()),
        dram_read_bw=draw(traffic),
        dram_write_bw=draw(traffic),
        edp_rate=draw(st.sampled_from([0.0, 1e8, 2.5e9])),
        cpu_active=draw(st.booleans()),
        gpu_active=draw(st.booleans()),
        vd_mode=draw(st.sampled_from(list(VdMode))),
        dc_active=draw(st.booleans()),
        panel_mode=draw(st.sampled_from(list(PanelMode))),
        drfb_active=draw(st.booleans()),
        apl=draw(unit_floats),
    )


def oracle_component_powers(model, segment, panel):
    """Per-component power (mW) during ``segment``, composed from the
    library's own scalar methods — the Sec. 5.2 sum, independent of the
    model's coefficient tables."""
    lib = model.library
    displaying = segment.panel_mode is not PanelMode.OFF
    receiving = segment.edp_rate > 0
    vd = {
        VdMode.ACTIVE: lib.vd_active,
        VdMode.LOW_POWER: lib.vd_low_power,
        VdMode.HALTED: lib.vd_clock_gated,
    }.get(segment.vd_mode, 0.0)
    if panel.is_oled:
        panel_power = lib.oled_power(panel, displaying, receiving)
        if displaying:
            panel_power += lib.oled_emission_mw(panel) * segment.apl
    else:
        panel_power = lib.panel_power(panel, displaying, receiving)
    return {
        "soc_floor": lib.floor(segment.state),
        "always_on": lib.always_on,
        "cpu": lib.cpu_active if segment.cpu_active else 0.0,
        "vd": vd,
        "gpu": lib.gpu_active if segment.gpu_active else 0.0,
        "dc": lib.dc_power(segment.edp_rate) if segment.dc_active else 0.0,
        "edp": lib.edp_power(segment.edp_rate),
        "panel": panel_power,
        "drfb": lib.drfb_active if segment.drfb_active else 0.0,
        "dram_background": lib.dram_background(segment.state),
        "dram_traffic": lib.dram.operating_power(
            segment.dram_read_bw, segment.dram_write_bw
        ),
        "platform": model.extras.power(lib),
        "transition": lib.transition_extra if segment.transition else 0.0,
    }


@given(
    segments(),
    resolutions,
    st.booleans(),
    st.sampled_from([0.25, 0.5, 1.0]),
)
@settings(max_examples=200)
def test_segment_power_is_class_energy_rate(
    segment, resolution, oled, brightness
):
    """A segment's component power is the library's scalar composition,
    and that power times the segment's duration is what the summary
    path charges the one-segment summary of it."""
    model = PowerModel()
    panel = PanelConfig(
        resolution=resolution,
        technology="oled" if oled else "lcd",
        brightness=brightness,
    )
    summary = TimelineSummary.from_timeline(Timeline([segment]))
    _, _, matrix = model.price_summary(summary, panel)
    oracle = oracle_component_powers(model, segment, panel)
    powers = model.segment_component_powers(segment, panel)
    assert tuple(powers) == tuple(oracle) == COMPONENT_KEYS
    for key, energy in zip(COMPONENT_KEYS, matrix[0].tolist()):
        assert math.isclose(
            powers[key], oracle[key], rel_tol=1e-12, abs_tol=0.0
        ), key
        assert math.isclose(
            oracle[key] * segment.duration, energy,
            rel_tol=1e-12, abs_tol=0.0,
        ), key
