"""Unit helpers and conversions used throughout the BurstLink reproduction.

The simulator keeps a single canonical unit per physical quantity so that
module boundaries never have to guess what a bare ``float`` means:

===================  =====================
Quantity             Canonical unit
===================  =====================
time                 seconds (s)
data size            bytes (B)
bandwidth            bytes per second (B/s)
power                milliwatts (mW)
energy               millijoules (mJ)
frequency / rates    hertz (Hz)
===================  =====================

Energy follows from power x time: ``mW * s == mJ``, so the two calibrated
quantities (milliwatt power levels from the paper's Table 2 and second-scale
timelines) multiply directly into millijoules without conversion factors.

Helpers in this module convert *into* the canonical units (``ms(1.5)`` is
1.5 milliseconds expressed in seconds) and *out of* them for reporting
(``to_ms(t)``).  Display-interface bandwidths are quoted in Gbps in the
paper (e.g. 25.92 Gbps for eDP 1.4), hence the bit-oriented helpers.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Data sizes (canonical: bytes)
# ---------------------------------------------------------------------------

#: Bytes in one kibibyte.
KIB = 1024
#: Bytes in one mebibyte.
MIB = 1024 * 1024
#: Bytes in one gibibyte.
GIB = 1024 * 1024 * 1024

#: Bits per byte.
BITS_PER_BYTE = 8


def kib(value: float) -> float:
    """Convert a size in KiB to bytes."""
    return value * KIB


def mib(value: float) -> float:
    """Convert a size in MiB to bytes."""
    return value * MIB


def gib(value: float) -> float:
    """Convert a size in GiB to bytes."""
    return value * GIB


def to_mib(value_bytes: float) -> float:
    """Convert a size in bytes to MiB (for reporting)."""
    return value_bytes / MIB


# ---------------------------------------------------------------------------
# Time (canonical: seconds)
# ---------------------------------------------------------------------------


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def to_ms(value_seconds: float) -> float:
    """Convert seconds to milliseconds (for reporting)."""
    return value_seconds * 1e3


def to_us(value_seconds: float) -> float:
    """Convert seconds to microseconds (for reporting)."""
    return value_seconds * 1e6


# ---------------------------------------------------------------------------
# Bandwidth (canonical: bytes/second)
# ---------------------------------------------------------------------------


def gbps(value: float) -> float:
    """Convert a bandwidth in gigabits/s (as display interfaces are quoted)
    to bytes/s."""
    return value * 1e9 / BITS_PER_BYTE


def mbps(value: float) -> float:
    """Convert a bandwidth in megabits/s to bytes/s."""
    return value * 1e6 / BITS_PER_BYTE


def gb_per_s(value: float) -> float:
    """Convert a bandwidth in gigabytes/s (decimal, as DRAM datasheets are
    quoted) to bytes/s."""
    return value * 1e9


def to_gbps(value_bytes_per_s: float) -> float:
    """Convert bytes/s to gigabits/s (for reporting)."""
    return value_bytes_per_s * BITS_PER_BYTE / 1e9


def to_gb_per_s(value_bytes_per_s: float) -> float:
    """Convert bytes/s to gigabytes/s (for reporting)."""
    return value_bytes_per_s / 1e9


# ---------------------------------------------------------------------------
# Power / energy (canonical: milliwatts / millijoules)
# ---------------------------------------------------------------------------


def watts(value: float) -> float:
    """Convert watts to milliwatts."""
    return value * 1e3


def to_watts(value_mw: float) -> float:
    """Convert milliwatts to watts (for reporting)."""
    return value_mw * 1e-3


def mj_to_j(value_mj: float) -> float:
    """Convert millijoules to joules (for reporting)."""
    return value_mj * 1e-3


def energy_mj(power_mw: float, duration_s: float) -> float:
    """Energy in millijoules of holding ``power_mw`` for ``duration_s``."""
    return power_mw * duration_s


# ---------------------------------------------------------------------------
# Transfer arithmetic
# ---------------------------------------------------------------------------


def sustained_bandwidth(size_bytes: float, duration_s: float) -> float:
    """Average bandwidth (bytes/s) of moving ``size_bytes`` in
    ``duration_s``; zero duration with zero size is defined as zero."""
    if duration_s < 0:
        raise ValueError(f"duration must be non-negative, got {duration_s!r}")
    if duration_s == 0:
        if size_bytes == 0:
            return 0.0
        raise ValueError("non-zero transfer in zero time has no bandwidth")
    return size_bytes / duration_s
