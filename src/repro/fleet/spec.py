"""The fleet scenario-matrix spec: what population to simulate.

A spec is a TOML document describing a device population as weighted
axes (resolution, refresh rate, frame rate), a weighted workload mix
(streaming video sessions, ambient standby), and a Monte Carlo seed
pool.  Every device in the fleet is one independent weighted draw from
the matrix — :mod:`repro.fleet.sampler` maps ``(spec, device index)``
to the same draw on every machine, so a fleet is fully described by
its spec plus a device count.

::

    [fleet]
    devices = 64
    seed = 2021
    shard_size = 16
    schemes = ["burstlink", "bursting"]

    [axes.resolution]
    values = ["FHD", "QHD", "4K"]
    weights = [2.0, 2.0, 1.0]

    [[workloads]]
    name = "stream"
    kind = "video"
    content = "natural"
    frames = 48

Specs validate eagerly: unknown schemes, unknown content classes, and
infeasible panel modes (a resolution x refresh combination whose pixel
rate exceeds the eDP link, e.g. 5K at 120 Hz) are rejected at load
time rather than failing one shard deep into a million-device run.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..baselines import (
    FrameBufferCompressionScheme,
    VipScheme,
    ZhangScheme,
)
from ..config import PLANAR_RESOLUTIONS, Resolution, skylake_tablet
from ..core import (
    BurstLinkScheme,
    FrameBufferBypassScheme,
    FrameBurstingScheme,
    WindowedVideoScheme,
)
from ..errors import ConfigurationError
from ..pipeline import ConventionalScheme
from ..video.source import ContentClass


#: Display schemes a spec may name, mirroring the CLI scheme table:
#: label -> (factory, needs_drfb).
SCHEMES: dict[str, tuple[Callable, bool]] = {
    "conventional": (ConventionalScheme, False),
    "burstlink": (BurstLinkScheme, True),
    "bursting": (FrameBurstingScheme, True),
    "bypass": (FrameBufferBypassScheme, False),
    "windowed": (WindowedVideoScheme, True),
    "fbc": (
        lambda: FrameBufferCompressionScheme(compression_rate=0.5),
        False,
    ),
    "zhang": (ZhangScheme, False),
    "vip": (VipScheme, False),
}

#: Resolutions a spec may name (the paper's planar sweep points).
RESOLUTIONS: dict[str, Resolution] = {
    str(r): r for r in PLANAR_RESOLUTIONS
}

#: Content classes a spec may name.
CONTENT_CLASSES: dict[str, ContentClass] = {
    c.name.lower(): c for c in ContentClass
}

#: Workload kinds a spec may declare.
WORKLOAD_KINDS = ("video", "standby", "oled", "netstream")


def _positive_weights(
    weights: Any, count: int, where: str
) -> tuple[float, ...]:
    if weights is None:
        return (1.0,) * count
    values = tuple(float(w) for w in weights)
    if len(values) != count:
        raise ConfigurationError(
            f"{where}: {len(values)} weights for {count} values"
        )
    if any(w <= 0 for w in values):
        raise ConfigurationError(
            f"{where}: weights must be > 0, got {values}"
        )
    return values


@dataclass(frozen=True)
class AxisSpec:
    """One weighted sampling axis of the scenario matrix."""

    name: str
    values: tuple[Any, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(
                f"axis {self.name!r} has no values"
            )
        if len(self.weights) != len(self.values):
            raise ConfigurationError(
                f"axis {self.name!r}: {len(self.weights)} weights "
                f"for {len(self.values)} values"
            )
        for weight in self.weights:
            if not weight > 0:
                raise ConfigurationError(
                    f"axis {self.name!r}: weights must be > 0, "
                    f"got {weight!r}"
                )

    def to_payload(self) -> dict[str, Any]:
        return {
            "values": list(self.values),
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """One entry of the fleet's weighted workload mix."""

    name: str
    kind: str
    weight: float = 1.0
    content: str = "natural"
    #: Video/OLED/netstream: frames per streaming session.
    frames: int = 48
    #: Standby: session length and content-update cadence.
    duration_s: float = 20.0
    update_fps: float = 1.0
    #: OLED: panel brightness setting, (0, 1].
    brightness: float = 1.0
    #: Netstream: mean network bandwidth, Mbps.
    bandwidth_mbps: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"workload {self.name!r}: unknown kind "
                f"{self.kind!r} (have {WORKLOAD_KINDS})"
            )
        if self.content not in CONTENT_CLASSES:
            raise ConfigurationError(
                f"workload {self.name!r}: unknown content "
                f"{self.content!r} "
                f"(have {sorted(CONTENT_CLASSES)})"
            )
        if self.weight <= 0:
            raise ConfigurationError(
                f"workload {self.name!r}: weight must be > 0"
            )
        if self.kind in ("video", "oled", "netstream") and (
            self.frames < 1
        ):
            raise ConfigurationError(
                f"workload {self.name!r}: frames must be >= 1"
            )
        if not 0.0 < self.brightness <= 1.0:
            raise ConfigurationError(
                f"workload {self.name!r}: brightness must be "
                "in (0, 1]"
            )
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"workload {self.name!r}: bandwidth must be > 0"
            )
        if self.kind == "standby":
            if self.duration_s <= 0:
                raise ConfigurationError(
                    f"workload {self.name!r}: duration must be > 0"
                )
            if self.update_fps <= 0:
                raise ConfigurationError(
                    f"workload {self.name!r}: update_fps must be > 0"
                )

    @property
    def content_class(self) -> ContentClass:
        return CONTENT_CLASSES[self.content]

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "weight": self.weight,
            "content": self.content,
            "frames": self.frames,
            "duration_s": self.duration_s,
            "update_fps": self.update_fps,
            "brightness": self.brightness,
            "bandwidth_mbps": self.bandwidth_mbps,
        }


@dataclass(frozen=True)
class FleetSpec:
    """A complete, validated fleet population description."""

    devices: int
    seed: int = 0
    #: Devices per checkpoint shard (the resume granularity).
    shard_size: int = 256
    battery_wh: float = 45.0
    baseline: str = "conventional"
    schemes: tuple[str, ...] = ("burstlink",)
    #: Size of the Monte Carlo content-seed pool.  A finite pool keeps
    #: the number of *distinct* simulations bounded (the run memo turns
    #: the rest into cache hits) while still sampling content variety.
    content_seeds: int = 4
    resolution: AxisSpec = field(
        default_factory=lambda: AxisSpec(
            "resolution", ("FHD",), (1.0,)
        )
    )
    refresh_hz: AxisSpec = field(
        default_factory=lambda: AxisSpec(
            "refresh_hz", (60.0,), (1.0,)
        )
    )
    fps: AxisSpec = field(
        default_factory=lambda: AxisSpec("fps", (30.0,), (1.0,))
    )
    workloads: tuple[WorkloadSpec, ...] = field(
        default_factory=lambda: (WorkloadSpec("stream", "video"),)
    )

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ConfigurationError("devices must be >= 1")
        if self.shard_size < 1:
            raise ConfigurationError("shard_size must be >= 1")
        if self.content_seeds < 1:
            raise ConfigurationError("content_seeds must be >= 1")
        if self.battery_wh <= 0:
            raise ConfigurationError("battery_wh must be > 0")
        for label in (self.baseline, *self.schemes):
            if label not in SCHEMES:
                raise ConfigurationError(
                    f"unknown scheme {label!r} "
                    f"(have {sorted(SCHEMES)})"
                )
        if self.baseline in self.schemes:
            raise ConfigurationError(
                f"baseline {self.baseline!r} repeated in schemes"
            )
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError("duplicate candidate schemes")
        if not self.schemes:
            raise ConfigurationError(
                "at least one candidate scheme is required"
            )
        if not self.workloads:
            raise ConfigurationError(
                "at least one workload is required"
            )
        names = [w.name for w in self.workloads]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate workload names: {names}"
            )
        for label in self.resolution.values:
            if str(label) not in RESOLUTIONS:
                raise ConfigurationError(
                    f"unknown resolution {label!r} "
                    f"(have {sorted(RESOLUTIONS)})"
                )
        for value in (*self.refresh_hz.values, *self.fps.values):
            if float(value) <= 0:
                raise ConfigurationError(
                    f"refresh/fps values must be > 0, got {value}"
                )
        # Every (resolution, refresh) cell must be a feasible panel
        # mode — SystemConfig rejects pixel rates beyond the eDP link
        # (5K at 120 Hz), and a DRFB-requiring candidate additionally
        # needs the DRFB-extended panel to construct.
        needs_drfb = any(
            SCHEMES[label][1]
            for label in (self.baseline, *self.schemes)
        )
        for label in self.resolution.values:
            for hz in self.refresh_hz.values:
                config = skylake_tablet(
                    RESOLUTIONS[str(label)], float(hz)
                )
                if needs_drfb:
                    config.with_drfb()
        for workload in self.workloads:
            if workload.kind != "standby":
                continue
            ceiling = min(float(h) for h in self.refresh_hz.values)
            if workload.update_fps > ceiling:
                raise ConfigurationError(
                    f"workload {workload.name!r}: update_fps "
                    f"{workload.update_fps:g} exceeds the slowest "
                    f"refresh axis value {ceiling:g}"
                )

    def to_payload(self) -> dict[str, Any]:
        """The spec as a JSON-safe dictionary (exact round-trip)."""
        return {
            "devices": self.devices,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "battery_wh": self.battery_wh,
            "baseline": self.baseline,
            "schemes": list(self.schemes),
            "content_seeds": self.content_seeds,
            "axes": {
                "resolution": self.resolution.to_payload(),
                "refresh_hz": self.refresh_hz.to_payload(),
                "fps": self.fps.to_payload(),
            },
            "workloads": [w.to_payload() for w in self.workloads],
        }

    def fingerprint(self) -> str:
        """A content hash of the *sampling-relevant* spec.

        Two specs with the same fingerprint draw identical device
        populations, so a checkpoint taken under one may resume under
        the other.  The device count is deliberately excluded: device
        draws depend only on ``(seed, index)``, so growing a fleet
        extends a checkpointed run instead of invalidating it.
        """
        payload = self.to_payload()
        del payload["devices"]
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def scheme_labels(self) -> tuple[str, ...]:
        """Baseline first, then the candidates in spec order."""
        return (self.baseline, *self.schemes)

    def shard_ranges(self) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` device ranges, one per shard."""
        return [
            (start, min(start + self.shard_size, self.devices))
            for start in range(0, self.devices, self.shard_size)
        ]

    def with_devices(self, devices: int) -> "FleetSpec":
        """The same population, resized to ``devices``."""
        return spec_from_dict(
            {**self.to_payload(), "devices": devices}
        )


def _axis_from_dict(
    name: str, payload: dict[str, Any] | None, default: AxisSpec
) -> AxisSpec:
    if payload is None:
        return default
    if not isinstance(payload, dict) or "values" not in payload:
        raise ConfigurationError(
            f"axis {name!r} must be a table with a 'values' list"
        )
    values = tuple(payload["values"])
    return AxisSpec(
        name,
        values,
        _positive_weights(
            payload.get("weights"), len(values), f"axis {name!r}"
        ),
    )


def spec_from_dict(data: dict[str, Any]) -> FleetSpec:
    """Build a validated spec from parsed TOML/JSON data.

    Accepts either the flat shape produced by :meth:`FleetSpec.
    to_payload` or the authored TOML shape with a ``[fleet]`` table.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("fleet spec must be a table")
    fleet = data.get("fleet", data)
    if not isinstance(fleet, dict):
        raise ConfigurationError("[fleet] must be a table")
    axes = data.get("axes", fleet.get("axes", {})) or {}
    if not isinstance(axes, dict):
        raise ConfigurationError("[axes] must be a table")
    raw_workloads = data.get(
        "workloads", fleet.get("workloads")
    )
    known = {
        "devices",
        "seed",
        "shard_size",
        "battery_wh",
        "baseline",
        "schemes",
        "content_seeds",
        "axes",
        "workloads",
    }
    unknown = sorted(set(fleet) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown fleet spec keys: {', '.join(unknown)}"
        )
    if "devices" not in fleet:
        raise ConfigurationError("fleet spec needs 'devices'")
    defaults = FleetSpec(devices=1)
    workloads: tuple[WorkloadSpec, ...]
    if raw_workloads is None:
        workloads = defaults.workloads
    else:
        entries = []
        for index, entry in enumerate(raw_workloads):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"workload #{index} must be a table"
                )
            extra = sorted(
                set(entry)
                - {
                    "name",
                    "kind",
                    "weight",
                    "content",
                    "frames",
                    "duration_s",
                    "update_fps",
                    "brightness",
                    "bandwidth_mbps",
                }
            )
            if extra:
                raise ConfigurationError(
                    f"workload #{index}: unknown keys "
                    f"{', '.join(extra)}"
                )
            entries.append(
                WorkloadSpec(
                    name=str(entry.get("name", f"workload{index}")),
                    kind=str(entry.get("kind", "video")),
                    weight=float(entry.get("weight", 1.0)),
                    content=str(entry.get("content", "natural")),
                    frames=int(entry.get("frames", 48)),
                    duration_s=float(entry.get("duration_s", 20.0)),
                    update_fps=float(entry.get("update_fps", 1.0)),
                    brightness=float(entry.get("brightness", 1.0)),
                    bandwidth_mbps=float(
                        entry.get("bandwidth_mbps", 10.0)
                    ),
                )
            )
        workloads = tuple(entries)
    return FleetSpec(
        devices=int(fleet["devices"]),
        seed=int(fleet.get("seed", 0)),
        shard_size=int(fleet.get("shard_size", 256)),
        battery_wh=float(fleet.get("battery_wh", 45.0)),
        baseline=str(fleet.get("baseline", "conventional")),
        schemes=tuple(
            str(s) for s in fleet.get("schemes", ["burstlink"])
        ),
        content_seeds=int(fleet.get("content_seeds", 4)),
        resolution=_axis_from_dict(
            "resolution",
            axes.get("resolution"),
            defaults.resolution,
        ),
        refresh_hz=_axis_from_dict(
            "refresh_hz",
            axes.get("refresh_hz"),
            defaults.refresh_hz,
        ),
        fps=_axis_from_dict("fps", axes.get("fps"), defaults.fps),
        workloads=workloads,
    )


def load_spec(path: str | Path) -> FleetSpec:
    """Load and validate a fleet spec from a TOML file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot read fleet spec {path}: {error}"
        ) from None
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigurationError(
            f"invalid TOML in {path}: {error}"
        ) from None
    return spec_from_dict(data)


__all__ = [
    "AxisSpec",
    "CONTENT_CLASSES",
    "FleetSpec",
    "RESOLUTIONS",
    "SCHEMES",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "load_spec",
    "spec_from_dict",
]
