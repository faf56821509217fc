"""Unit-conversion helpers."""

import pytest

from repro import units
from repro.units import (
    BITS_PER_BYTE,
    GIB,
    KIB,
    MIB,
    energy_mj,
    gb_per_s,
    gbps,
    gib,
    kib,
    mbps,
    mib,
    mj_to_j,
    ms,
    sustained_bandwidth,
    to_gb_per_s,
    to_gbps,
    to_mib,
    to_ms,
    to_us,
    to_watts,
    us,
    watts,
)


class TestSizes:
    def test_kib(self):
        assert kib(1) == 1024

    def test_mib(self):
        assert mib(1) == 1024 * 1024

    def test_gib(self):
        assert gib(2) == 2 * 1024 ** 3

    def test_constants_consistent(self):
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_to_mib_roundtrip(self):
        assert to_mib(mib(24)) == pytest.approx(24.0)


class TestTime:
    def test_ms(self):
        assert ms(16.67) == pytest.approx(0.01667)

    def test_us(self):
        assert us(250) == pytest.approx(250e-6)

    def test_roundtrips(self):
        assert to_ms(ms(3.5)) == pytest.approx(3.5)
        assert to_us(us(42)) == pytest.approx(42.0)


class TestBandwidth:
    def test_gbps_is_bits(self):
        # 25.92 Gbps = 3.24 GB/s.
        assert gbps(25.92) == pytest.approx(3.24e9)

    def test_mbps(self):
        assert mbps(8) == pytest.approx(1e6)

    def test_gb_per_s(self):
        assert gb_per_s(1.5) == pytest.approx(1.5e9)

    def test_roundtrips(self):
        assert to_gbps(gbps(11.3)) == pytest.approx(11.3)
        assert to_gb_per_s(gb_per_s(4)) == pytest.approx(4.0)

    def test_bits_per_byte(self):
        assert BITS_PER_BYTE == 8


class TestPowerEnergy:
    def test_watts(self):
        assert watts(2.162) == pytest.approx(2162.0)

    def test_to_watts(self):
        assert to_watts(1274) == pytest.approx(1.274)

    def test_energy_is_power_times_time(self):
        # 1000 mW for 2 s = 2000 mJ.
        assert energy_mj(1000.0, 2.0) == pytest.approx(2000.0)

    def test_mj_to_j(self):
        assert mj_to_j(2500) == pytest.approx(2.5)


class TestTransferArithmetic:
    def test_sustained_bandwidth(self):
        assert sustained_bandwidth(1e9, 2.0) == pytest.approx(0.5e9)

    def test_sustained_bandwidth_zero_over_zero(self):
        assert sustained_bandwidth(0, 0) == 0.0

    def test_sustained_bandwidth_rejects_instant_transfer(self):
        with pytest.raises(ValueError):
            sustained_bandwidth(10, 0)

    def test_sustained_bandwidth_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            sustained_bandwidth(10, -1)

    def test_module_has_no_float_surprises(self):
        # mW * s must equal mJ exactly in the canonical system.
        assert units.energy_mj(1.0, 1.0) == 1.0
