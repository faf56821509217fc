"""Synthetic head-movement traces for VR workloads.

The paper evaluates five 360-degree streams from the Corbillon et al.
head-movement dataset (Elephant, Paris, Rollercoaster, Timelapse, Rhino).
We do not have that dataset, so this module generates deterministic
synthetic traces whose *angular-velocity statistics* are parameterised
per workload — the axis that matters for Fig. 11a, because head velocity
drives GPU reprojection cost and therefore the compute- vs
memory-dominance of each workload (DESIGN.md, substitution table).

A trace is an Ornstein-Uhlenbeck-style random walk in yaw/pitch velocity:
velocities revert to a per-workload mean with per-workload volatility,
which produces the smooth-pursuit-plus-saccade character of real head
traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # eager; see video/source.py

from ..errors import ConfigurationError


@dataclass(frozen=True)
class HeadTraceParams:
    """Angular-velocity statistics of one VR viewing session."""

    #: Mean absolute yaw velocity, degrees/second.
    yaw_speed_mean: float
    #: Volatility of yaw velocity (saccade intensity), degrees/second.
    yaw_speed_std: float
    #: Mean absolute pitch velocity, degrees/second (people pitch less).
    pitch_speed_mean: float = 5.0
    #: Mean-reversion rate of the velocity process, 1/second.
    reversion: float = 2.0

    def __post_init__(self) -> None:
        if min(self.yaw_speed_mean, self.yaw_speed_std,
               self.pitch_speed_mean) < 0:
            raise ConfigurationError("trace speeds must be >= 0")
        if self.reversion <= 0:
            raise ConfigurationError("reversion rate must be positive")


@dataclass(frozen=True)
class HeadTrace:
    """A sampled head trace: per-sample yaw/pitch (degrees) and the
    angular speed between samples (degrees/second)."""

    timestamps: np.ndarray
    yaw: np.ndarray
    pitch: np.ndarray
    angular_speed: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        if not (len(self.yaw) == len(self.pitch)
                == len(self.angular_speed) == n):
            raise ConfigurationError("trace arrays must share a length")

    @property
    def mean_speed(self) -> float:
        """Mean angular speed over the trace, degrees/second."""
        return float(np.mean(self.angular_speed))

    @property
    def peak_speed(self) -> float:
        """Peak angular speed over the trace."""
        return float(np.max(self.angular_speed)) if len(
            self.angular_speed
        ) else 0.0

    def __len__(self) -> int:
        return len(self.timestamps)


def save_head_trace(trace: HeadTrace, path: str) -> None:
    """Write a trace as CSV (``time_s,yaw_deg,pitch_deg``) — the format
    :func:`load_head_trace` reads, and an easy target to convert real
    head-movement datasets (e.g. Corbillon et al.'s) into."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("time_s,yaw_deg,pitch_deg\n")
        for t, yaw, pitch in zip(
            trace.timestamps, trace.yaw, trace.pitch
        ):
            handle.write(f"{t:.6f},{yaw:.4f},{pitch:.4f}\n")


def load_head_trace(path: str) -> HeadTrace:
    """Read a CSV head trace (``time_s,yaw_deg,pitch_deg`` header, one
    sample per line).  Angular speed is derived from the samples, so a
    real dataset dropped into this format slots directly into
    :func:`~repro.workloads.vr.build_vr_setup`'s cost model."""
    timestamps: list[float] = []
    yaw: list[float] = []
    pitch: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header.replace(" ", "") != "time_s,yaw_deg,pitch_deg":
            raise ConfigurationError(
                f"unrecognised head-trace header: {header!r}"
            )
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"{path}:{line_number}: expected 3 columns"
                )
            try:
                timestamps.append(float(parts[0]))
                yaw.append(float(parts[1]))
                pitch.append(float(parts[2]))
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: non-numeric sample"
                ) from exc
    if len(timestamps) < 2:
        raise ConfigurationError(
            "a head trace needs at least two samples"
        )
    times = np.asarray(timestamps)
    deltas = np.diff(times)
    if np.any(deltas <= 0):
        raise ConfigurationError(
            "head-trace timestamps must strictly increase"
        )
    yaw_arr = np.asarray(yaw)
    pitch_arr = np.asarray(pitch)
    # Yaw is circular: difference through the shorter arc.
    yaw_step = (np.diff(yaw_arr) + 180.0) % 360.0 - 180.0
    pitch_step = np.diff(pitch_arr)
    speed = np.sqrt(yaw_step ** 2 + pitch_step ** 2) / deltas
    angular_speed = np.concatenate([speed[:1], speed])
    return HeadTrace(
        timestamps=times,
        yaw=yaw_arr,
        pitch=pitch_arr,
        angular_speed=np.abs(angular_speed),
    )


def generate_head_trace(
    params: HeadTraceParams,
    duration_s: float,
    sample_hz: float = 60.0,
    seed: int = 0,
) -> HeadTrace:
    """Generate a deterministic synthetic head trace.

    Yaw wraps around the full circle; pitch is clamped to [-90, 90] (you
    cannot tilt your head past vertical).
    """
    if duration_s <= 0 or sample_hz <= 0:
        raise ConfigurationError("duration and sample rate must be > 0")
    rng = np.random.default_rng(seed)
    count = max(2, int(round(duration_s * sample_hz)))
    dt = 1.0 / sample_hz

    yaw_velocity = np.empty(count)
    pitch_velocity = np.empty(count)
    yaw_velocity[0] = params.yaw_speed_mean
    pitch_velocity[0] = params.pitch_speed_mean
    # Ornstein-Uhlenbeck updates; sign flips model direction changes.
    for i in range(1, count):
        yaw_velocity[i] = (
            yaw_velocity[i - 1]
            + params.reversion
            * (params.yaw_speed_mean - abs(yaw_velocity[i - 1])) * dt
            * np.sign(yaw_velocity[i - 1] or 1.0)
            + params.yaw_speed_std * np.sqrt(dt) * rng.standard_normal()
        )
        pitch_velocity[i] = (
            pitch_velocity[i - 1]
            + params.reversion
            * (params.pitch_speed_mean - abs(pitch_velocity[i - 1])) * dt
            * np.sign(pitch_velocity[i - 1] or 1.0)
            + 0.5 * params.yaw_speed_std * np.sqrt(dt)
            * rng.standard_normal()
        )

    timestamps = np.arange(count) * dt
    yaw = np.cumsum(yaw_velocity * dt)
    yaw = (yaw + 180.0) % 360.0 - 180.0
    pitch = np.clip(np.cumsum(pitch_velocity * dt), -90.0, 90.0)
    angular_speed = np.sqrt(yaw_velocity ** 2 + pitch_velocity ** 2)
    return HeadTrace(
        timestamps=timestamps,
        yaw=yaw,
        pitch=pitch,
        angular_speed=np.abs(angular_speed),
    )
