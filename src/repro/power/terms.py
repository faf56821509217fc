"""The declarative power-term registry.

Historically :mod:`repro.power.model` hard-coded its component set as a
frozen ``COMPONENT_KEYS`` tuple with one pricing expression per
component copy-pasted into every accumulation loop.  This module turns
each component into a :class:`PowerTerm` — a declaration of its key and
its pricing function — and the model evaluates whatever registry it
was built with.  The default registry (:func:`default_registry`)
reproduces the historical component set: every term carries the very
expression the monolithic model used.

A term prices one summary bucket: ``energy(cls_key, totals, panel,
ctx)`` returns millijoules for a segment class and its
:class:`~repro.pipeline.timeline.ClassTotals`.  Every energy expression
must be **linear through the origin** in the :data:`QUANTITY_COLUMNS`
the totals carry (accumulated seconds, DRAM read/write bytes, eDP
payload bytes, APL-weighted seconds).  That linearity is what lets the
model recover a term's coefficient row by probing with unit totals and
price whole summaries in one ``einsum`` — the energy function *is* the
term's coefficient function over ``(segment class, C-state, config,
content attributes)``: the class key carries the C-state and activity
flags, the panel/library carry the configuration, and the content
attributes enter through the quantity columns (``apl_seconds``) they
integrate into.  A single segment's instantaneous power is the same
coefficients times its per-second quantity row
(:meth:`~repro.power.model.PowerModel.segment_component_powers`).

Content-aware pricing needs no per-site special cases: a term that reads
``totals.apl_seconds`` (like the OLED emission part of the ``panel``
term) is priced by exactly the same vectorized path as every other
term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from ..config import PanelConfig
from ..errors import CalibrationError
from ..pipeline.timeline import (
    ClassTotals,
    PanelMode,
    SegmentClass,
    VdMode,
)
from ..units import to_gbps
from .calibration import ComponentPowerLibrary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .model import PlatformExtras

#: Quantity columns a class-energy expression may be linear in, in the
#: order :class:`~repro.power.model.PowerModel` probes and prices them.
QUANTITY_COLUMNS = (
    "seconds",
    "dram_read_bytes",
    "dram_write_bytes",
    "edp_bytes",
    "apl_seconds",
)


@dataclass(frozen=True)
class TermContext:
    """Everything a term's pricing function may read besides the class
    and its totals: the calibrated library and the workload's
    platform-device shape."""

    library: ComponentPowerLibrary
    extras: "PlatformExtras"


#: Energy of one summary bucket, in mJ (linear in QUANTITY_COLUMNS).
ClassEnergyFn = Callable[
    [SegmentClass, ClassTotals, PanelConfig, TermContext], float
]


@dataclass(frozen=True)
class PowerTerm:
    """One component of the power model, declaratively.

    ``key`` doubles as the component's trace/report identifier; the
    term's stable numeric id is its position in the registry (see
    :attr:`PowerTermRegistry.ids`), which is why registries are
    append-only: a term may be added, never renamed or reordered.
    """

    key: str
    energy: ClassEnergyFn
    #: One-line description for docs/exports.
    doc: str = ""


class PowerTermRegistry:
    """An ordered, append-only collection of power terms.

    The registry owns the component namespace: iteration order is
    reporting/trace-event order, and positional indices are the stable
    component ids consumers join on (pinned by
    ``tests/obs/test_profile.py`` for the default registry).
    """

    def __init__(self, terms: "tuple[PowerTerm, ...] | list[PowerTerm]"):
        terms = tuple(terms)
        if not terms:
            raise CalibrationError("a power-term registry needs terms")
        keys = tuple(term.key for term in terms)
        if len(set(keys)) != len(keys):
            raise CalibrationError(
                "power-term keys must be unique, got " + ", ".join(keys)
            )
        self.terms = terms
        self.keys = keys
        #: Stable component id per key (append-only positions).
        self.ids: dict[str, int] = {
            key: index for index, key in enumerate(keys)
        }

    def __iter__(self) -> Iterator[PowerTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, key: str) -> PowerTerm:
        """The term registered under ``key`` (raises on unknown)."""
        for term in self.terms:
            if term.key == key:
                return term
        raise CalibrationError(
            f"unknown power term {key!r}; known: {', '.join(self.keys)}"
        )

    def zeros(self) -> dict[str, float]:
        """A fresh per-component accumulator, keys in registry order —
        the one helper behind every accumulation loop in the model."""
        return dict.fromkeys(self.keys, 0.0)

    def extended(self, *terms: PowerTerm) -> "PowerTermRegistry":
        """A new registry with ``terms`` appended (append-only growth:
        existing keys keep their ids)."""
        return PowerTermRegistry(self.terms + terms)


# ---------------------------------------------------------------------------
# The default registry: the historical component set, expression for
# expression.  Each function below is the class-level pricing the
# monolithic model used; the model probes them for its coefficient rows,
# so their float arithmetic is what the pinned outputs rest on.
# ---------------------------------------------------------------------------


def _soc_floor_energy(c: SegmentClass, t: ClassTotals,
                      panel: PanelConfig, ctx: TermContext) -> float:
    return ctx.library.floor(c.state) * t.seconds


def _always_on_energy(c: SegmentClass, t: ClassTotals,
                      panel: PanelConfig, ctx: TermContext) -> float:
    return ctx.library.always_on * t.seconds


def _cpu_energy(c: SegmentClass, t: ClassTotals,
                panel: PanelConfig, ctx: TermContext) -> float:
    return ctx.library.cpu_active * t.seconds if c.cpu_active else 0.0


def _vd_energy(c: SegmentClass, t: ClassTotals,
               panel: PanelConfig, ctx: TermContext) -> float:
    lib = ctx.library
    if c.vd_mode is VdMode.ACTIVE:
        return lib.vd_active * t.seconds
    if c.vd_mode is VdMode.LOW_POWER:
        return lib.vd_low_power * t.seconds
    if c.vd_mode is VdMode.HALTED:
        return lib.vd_clock_gated * t.seconds
    return 0.0


def _gpu_energy(c: SegmentClass, t: ClassTotals,
                panel: PanelConfig, ctx: TermContext) -> float:
    return ctx.library.gpu_active * t.seconds if c.gpu_active else 0.0


def _dc_energy(c: SegmentClass, t: ClassTotals,
               panel: PanelConfig, ctx: TermContext) -> float:
    if not c.dc_active:
        return 0.0
    # dc_power(rate) = dc_base + dc_mw_per_gbs * rate / 1e9;
    # integrating the rate term over the bucket leaves its bytes.
    lib = ctx.library
    return (
        lib.dc_base * t.seconds
        + lib.dc_mw_per_gbs * t.edp_bytes / 1e9
    )


def _edp_energy(c: SegmentClass, t: ClassTotals,
                panel: PanelConfig, ctx: TermContext) -> float:
    if not c.edp_active:
        # edp_power is discontinuous at rate 0 (the link power-gates
        # between transfers), which is why the class key carries the
        # edp_active indicator.
        return 0.0
    lib = ctx.library
    return (
        lib.edp_base * t.seconds
        + lib.edp_mw_per_gbps * to_gbps(t.edp_bytes)
    )


def _panel_energy(c: SegmentClass, t: ClassTotals,
                  panel: PanelConfig, ctx: TermContext) -> float:
    lib = ctx.library
    displaying = c.panel_mode is not PanelMode.OFF
    if panel.is_oled:
        energy = lib.oled_power(
            panel, displaying=displaying, receiving=c.edp_active
        ) * t.seconds
        if displaying:
            # The luminance-dependent emission term (Duinkharjav et
            # al. 2022): linear in the APL-weighted seconds the bucket
            # integrated from its segments' content attributes.
            energy += lib.oled_emission_mw(panel) * t.apl_seconds
        return energy
    return lib.panel_power(
        panel,
        displaying=displaying,
        receiving=c.edp_active,
    ) * t.seconds


def _drfb_energy(c: SegmentClass, t: ClassTotals,
                 panel: PanelConfig, ctx: TermContext) -> float:
    return ctx.library.drfb_active * t.seconds if c.drfb_active else 0.0


def _dram_background_energy(c: SegmentClass, t: ClassTotals,
                            panel: PanelConfig,
                            ctx: TermContext) -> float:
    return ctx.library.dram_background(c.state) * t.seconds


def _dram_traffic_energy(c: SegmentClass, t: ClassTotals,
                         panel: PanelConfig,
                         ctx: TermContext) -> float:
    return ctx.library.dram.traffic_energy(
        t.dram_read_bytes, t.dram_write_bytes
    )


def _platform_energy(c: SegmentClass, t: ClassTotals,
                     panel: PanelConfig, ctx: TermContext) -> float:
    return ctx.extras.power(ctx.library) * t.seconds


def _transition_energy(c: SegmentClass, t: ClassTotals,
                       panel: PanelConfig, ctx: TermContext) -> float:
    if c.transition:
        return ctx.library.transition_extra * t.seconds
    return 0.0


#: The historical component set, as declarative terms.  Order is the
#: historical ``COMPONENT_KEYS`` order — it defines the stable ids.
DEFAULT_TERMS: tuple[PowerTerm, ...] = (
    PowerTerm("soc_floor", _soc_floor_energy,
              "SoC floor of the package C-state"),
    PowerTerm("always_on", _always_on_energy,
              "always-on platform rail"),
    PowerTerm("cpu", _cpu_energy,
              "CPU cores running orchestration code"),
    PowerTerm("vd", _vd_energy,
              "video decoder (per DVFS mode)"),
    PowerTerm("gpu", _gpu_energy,
              "GPU projection/render work"),
    PowerTerm("dc", _dc_energy,
              "display controller base + datapath"),
    PowerTerm("edp", _edp_energy,
              "eDP link electrical cost"),
    PowerTerm("panel", _panel_energy,
              "panel scan/backlight (LCD) or drive + luminance-"
              "dependent emission (OLED)"),
    PowerTerm("drfb", _drfb_energy,
              "double remote framebuffer write overhead"),
    PowerTerm("dram_background", _dram_background_energy,
              "DRAM background (state-implied)"),
    PowerTerm("dram_traffic", _dram_traffic_energy,
              "DRAM traffic-proportional energy"),
    PowerTerm("platform", _platform_energy,
              "platform devices (WiFi/storage/idle)"),
    PowerTerm("transition", _transition_energy,
              "C-state entry/exit excursion extra"),
)

_DEFAULT_REGISTRY = PowerTermRegistry(DEFAULT_TERMS)


def default_registry() -> PowerTermRegistry:
    """The registry reproducing the historical component set."""
    return _DEFAULT_REGISTRY
