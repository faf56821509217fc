"""The two-part DRAM power model (paper Sec. 5.2)."""

import pytest

from repro.dram.power import DramPowerModel
from repro.dram.states import DramPowerState
from repro.errors import ConfigurationError
from repro.units import gb_per_s, mib


@pytest.fixture
def model():
    return DramPowerModel()


class TestBackground:
    def test_state_ordering(self, model):
        """Active > fast power-down > self-refresh, always."""
        assert (
            model.background_power(DramPowerState.ACTIVE)
            > model.background_power(DramPowerState.FAST_POWER_DOWN)
            > model.background_power(DramPowerState.SELF_REFRESH)
        )

    def test_missing_state_rejected(self):
        with pytest.raises(ConfigurationError):
            DramPowerModel(background_mw={DramPowerState.ACTIVE: 100.0})

    def test_negative_background_rejected(self):
        background = dict(DramPowerModel().background_mw)
        background[DramPowerState.ACTIVE] = -1.0
        with pytest.raises(ConfigurationError):
            DramPowerModel(background_mw=background)


class TestOperating:
    def test_linear_in_bandwidth(self, model):
        assert model.operating_power(gb_per_s(2), 0) == pytest.approx(
            2 * model.operating_power(gb_per_s(1), 0)
        )

    def test_writes_cost_more_than_reads(self, model):
        assert model.operating_power(0, gb_per_s(1)) > (
            model.operating_power(gb_per_s(1), 0)
        )

    def test_zero_bandwidth_is_free(self, model):
        assert model.operating_power(0, 0) == 0.0

    def test_negative_bandwidth_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.operating_power(-1, 0)

    def test_negative_slope_rejected(self):
        with pytest.raises(ConfigurationError):
            DramPowerModel(read_mw_per_gbs=-1)


class TestTotalPower:
    def test_active_total(self, model):
        total = model.power(
            DramPowerState.ACTIVE, read_bw=gb_per_s(1)
        )
        assert total == pytest.approx(
            model.background_power(DramPowerState.ACTIVE)
            + model.read_mw_per_gbs
        )

    def test_traffic_in_self_refresh_is_a_bug(self, model):
        with pytest.raises(ConfigurationError):
            model.power(DramPowerState.SELF_REFRESH, read_bw=1.0)

    def test_idle_self_refresh_allowed(self, model):
        assert model.power(DramPowerState.SELF_REFRESH) == (
            model.background_power(DramPowerState.SELF_REFRESH)
        )


class TestTrafficEnergy:
    def test_energy_independent_of_rate(self, model):
        """Moving N bytes costs the same energy fast or slow (power is
        linear in bandwidth, so time cancels)."""
        size = mib(24)
        fast = model.operating_power(gb_per_s(4), 0) * (
            size / gb_per_s(4)
        )
        slow = model.operating_power(gb_per_s(1), 0) * (
            size / gb_per_s(1)
        )
        assert fast == pytest.approx(slow)
        assert model.traffic_energy(size, 0) == pytest.approx(fast)

    def test_traffic_energy_splits_read_write(self, model):
        combined = model.traffic_energy(mib(1), mib(1))
        assert combined == pytest.approx(
            model.traffic_energy(mib(1), 0)
            + model.traffic_energy(0, mib(1))
        )

    def test_negative_bytes_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.traffic_energy(-1, 0)
