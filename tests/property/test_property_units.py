"""Property-based tests on unit conversions and timing arithmetic."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.display.timing import RefreshTiming

positive = st.floats(
    min_value=1e-9, max_value=1e12, allow_nan=False,
    allow_infinity=False,
)


@given(positive)
def test_time_roundtrips(value):
    assert math.isclose(units.to_ms(units.ms(value)), value)
    assert math.isclose(units.to_us(units.us(value)), value)


@given(positive)
def test_bandwidth_roundtrips(value):
    assert math.isclose(units.to_gbps(units.gbps(value)), value)
    assert math.isclose(
        units.to_gb_per_s(units.gb_per_s(value)), value
    )


@given(positive)
def test_size_roundtrips(value):
    assert math.isclose(units.to_mib(units.mib(value)), value)


@given(positive, positive)
def test_energy_power_duality(power_mw, duration_s):
    energy = units.energy_mj(power_mw, duration_s)
    assert math.isclose(energy / duration_s, power_mw, rel_tol=1e-12)


@given(
    st.floats(min_value=24.0, max_value=120.0),
    st.floats(min_value=1.0, max_value=120.0),
)
def test_cadence_new_frame_density(refresh, fps):
    """Over many windows, the NEW_FRAME density approaches
    fps / refresh for any feasible pair."""
    if fps > refresh:
        return
    timing = RefreshTiming(refresh, fps)
    windows = list(timing.windows(600))
    new_frames = sum(1 for w in windows if w.is_new_frame)
    expected = 600 * fps / refresh
    assert abs(new_frames - expected) <= 2


@given(
    st.floats(min_value=24.0, max_value=120.0),
    st.floats(min_value=1.0, max_value=120.0),
    st.integers(min_value=1, max_value=300),
)
def test_cadence_frame_indices_within_bounds(refresh, fps, count):
    if fps > refresh:
        return
    timing = RefreshTiming(refresh, fps)
    for window in timing.windows(count):
        assert 0 <= window.frame_index <= window.index
