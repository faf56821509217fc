"""The analytical power model (paper Sec. 5.2).

The paper computes average system power as::

    P_avg = sum_i  P_Ci * R_Ci  +  P_en_Ci * Lat_en_Ci  +  P_ex_Ci * Lat_ex_Ci

i.e. per-C-state power weighted by residency, plus the energy of state
entry/exit excursions.  This module evaluates exactly that — as a sum
over segment classes.  Every component's energy is linear in a class's
accumulated quantities (:data:`QUANTITY_COLUMNS`: seconds, DRAM and eDP
bytes, APL-seconds), so each class has one fixed coefficient table
(:meth:`PowerModel._class_coefficients`, quantities × components) read
straight from the calibrated library, and a run's
:class:`~repro.pipeline.timeline.TimelineSummary` is priced by one
matrix product over those tables.  The per-state powers ``P_Ci`` of a
Table 2-style report emerge as energy-weighted averages.  Excursion
classes carry the library's ``transition_extra`` on top of the
shallower state's floor — the ``P_en/P_ex`` terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PanelConfig
from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..pipeline.sim import RunResult
from ..pipeline.timeline import (
    PanelMode,
    Segment,
    SegmentClass,
    Timeline,
    TimelineSummary,
    VdMode,
)
from ..soc.cstates import PackageCState
from ..units import to_gbps
from . import calibration
from .calibration import ComponentPowerLibrary

__all__ = [
    "COMPONENT_IDS",
    "COMPONENT_KEYS",
    "CStateSummary",
    "EnergyReport",
    "PlatformExtras",
    "PowerModel",
    "QUANTITY_COLUMNS",
    "component_id",
    "state_id",
]

#: Quantity columns a class's energy is linear in (through the origin),
#: in the row order of its coefficient table and of a plan matrix.
QUANTITY_COLUMNS = (
    "seconds",
    "dram_read_bytes",
    "dram_write_bytes",
    "edp_bytes",
    "apl_seconds",
)

#: Component keys an :class:`EnergyReport` decomposes energy into, in
#: the column order of a class's coefficient table.
COMPONENT_KEYS = (
    "soc_floor",
    "always_on",
    "cpu",
    "vd",
    "gpu",
    "dc",
    "edp",
    "panel",
    "drfb",
    "dram_background",
    "dram_traffic",
    "platform",
    "transition",
)

#: Stable component identifiers.  ``power.component`` trace events name
#: components by these keys, and consumers (the attribution profiler,
#: exporters) join on them — so the mapping is append-only: a component
#: may be added, never renamed or renumbered.  Pinned by
#: ``tests/obs/test_profile.py``.
COMPONENT_IDS: dict[str, int] = {
    key: index for index, key in enumerate(COMPONENT_KEYS)
}

#: Row indices of the quantity columns in a coefficient table.
_SECONDS, _READ, _WRITE, _EDP, _APL = range(len(QUANTITY_COLUMNS))


def component_id(key: str) -> int:
    """The stable numeric id of component ``key`` (raises on unknown —
    a trace produced by a different schema)."""
    try:
        return COMPONENT_IDS[key]
    except KeyError:
        raise SimulationError(
            f"unknown power component {key!r}; "
            f"known: {', '.join(COMPONENT_KEYS)}"
        ) from None


def state_id(state: "PackageCState | str") -> str:
    """The stable identifier of a package C-state as it appears in
    ``power.state`` and ``sim.segment`` trace events (the enum member
    name).  Accepts either the enum or an event's string form and
    validates membership."""
    if isinstance(state, PackageCState):
        return state.name
    try:
        return PackageCState[state].name
    except KeyError:
        raise SimulationError(
            f"unknown package C-state {state!r}"
        ) from None


@dataclass(frozen=True)
class PlatformExtras:
    """Workload-dependent platform device activity."""

    #: A network streaming session is up (WiFi active on average).
    streaming: bool = True
    #: Frames come from local storage instead (eMMC active on average).
    local_playback: bool = False

    def power(self, library: ComponentPowerLibrary) -> float:
        """Average platform-device power for this workload shape."""
        power = library.platform_idle
        if self.streaming:
            power += library.wifi_streaming
        if self.local_playback:
            power += library.storage_playback
        return power


@dataclass(frozen=True)
class CStateSummary:
    """Per-C-state roll-up, one Table 2 row."""

    state: PackageCState
    residency_s: float
    residency_fraction: float
    average_power_mw: float
    energy_mj: float


@dataclass
class EnergyReport:
    """Energy accounting for one simulated run."""

    scheme: str
    duration_s: float
    total_energy_mj: float
    by_component_mj: dict[str, float]
    by_state: dict[PackageCState, CStateSummary]
    transition_energy_mj: float
    dram_read_bytes: float
    dram_write_bytes: float

    @property
    def average_power_mw(self) -> float:
        """Run-average system power (the paper's ``AvgP``)."""
        if self.duration_s <= 0:
            raise SimulationError("report covers no time")
        return self.total_energy_mj / self.duration_s

    def energy_per_frame_window(self, window_s: float) -> float:
        """Average energy (mJ) per refresh window of length ``window_s``."""
        if window_s <= 0:
            raise SimulationError("window length must be positive")
        return self.total_energy_mj * window_s / self.duration_s

    def table2_rows(self) -> list[CStateSummary]:
        """Rows sorted shallow-to-deep, Table 2 style."""
        return sorted(
            self.by_state.values(), key=lambda row: row.state.depth
        )


#: Coefficient-table sets kept across models (oldest dropped first):
#: sensitivity sweeps build a library per perturbed parameter.
_SHARED_COEFFICIENT_SETS = 16

#: ``(id(library), extras)`` -> ``(library, tables)``: the coefficient
#: tables of every :class:`PowerModel` over that library object and
#: extras.  A library holds a dict and cannot be hashed, so it keys by
#: identity; the entry keeps the library alive, so its id cannot be
#: reused by another object while the entry exists.
_SHARED_COEFFICIENTS: dict[
    tuple[int, PlatformExtras],
    tuple[ComponentPowerLibrary, dict[tuple, np.ndarray]],
] = {}


class PowerModel:
    """Evaluates the analytical model over simulated timelines."""

    def __init__(
        self,
        library: ComponentPowerLibrary | None = None,
        extras: PlatformExtras | None = None,
    ) -> None:
        #: The calibrated library; the default resolves
        #: ``calibration.SKYLAKE_TABLET_POWER`` at construction.
        self.library = (
            library if library is not None
            else calibration.SKYLAKE_TABLET_POWER
        )
        self.extras = extras if extras is not None else PlatformExtras()
        #: Per-(class, panel) coefficient tables for the vectorized path
        #: (see :meth:`price_plan_matrix`), shared by every model over
        #: the same library object and extras: both are fixed at
        #: construction, and the tables depend on nothing else.
        key = (id(self.library), self.extras)
        shared = _SHARED_COEFFICIENTS.get(key)
        if shared is None:
            if len(_SHARED_COEFFICIENTS) >= _SHARED_COEFFICIENT_SETS:
                del _SHARED_COEFFICIENTS[next(iter(_SHARED_COEFFICIENTS))]
            shared = _SHARED_COEFFICIENTS[key] = (self.library, {})
        self._coefficients: dict[tuple, np.ndarray] = shared[1]

    # -- per-segment composition -------------------------------------------------

    def segment_component_powers(
        self, segment: Segment, panel: PanelConfig
    ) -> dict[str, float]:
        """Instantaneous power per component during ``segment`` (mW),
        keyed in :data:`COMPONENT_KEYS` order: the segment's class
        coefficients (see :meth:`_class_coefficients`) times its
        quantity row per second of the segment."""
        rates = np.array(
            [
                1.0,
                segment.dram_read_bw,
                segment.dram_write_bw,
                segment.edp_rate,
                segment.apl,
            ]
        )
        powers = rates @ self._class_coefficients(
            SegmentClass.of(segment), panel
        )
        return dict(zip(COMPONENT_KEYS, powers.tolist()))

    def segment_power(self, segment: Segment, panel: PanelConfig) -> float:
        """Total instantaneous power during ``segment`` (mW)."""
        return sum(self.segment_component_powers(segment, panel).values())

    # -- per-class composition -----------------------------------------------------

    def _class_coefficients(
        self, cls_key: SegmentClass, panel: PanelConfig
    ) -> np.ndarray:
        """The ``(quantities, components)`` coefficient table of one
        segment class: energy in mJ per unit of each
        :data:`QUANTITY_COLUMNS` entry (per second, per DRAM/eDP byte,
        per APL-second), one column per :data:`COMPONENT_KEYS` entry.
        Each entry is the component's energy expression at unit
        quantity, spelled so the float matches it exactly.  Cached per
        ``(class, panel)`` — the cadence walker prices the same handful
        of classes across thousands of reports."""
        cache_key = (cls_key, panel)
        table = self._coefficients.get(cache_key)
        if table is not None:
            return table
        lib = self.library
        table = np.zeros((len(QUANTITY_COLUMNS), len(COMPONENT_KEYS)))
        column = COMPONENT_IDS
        # soc_floor: the SoC floor of the package C-state.
        table[_SECONDS, column["soc_floor"]] = lib.floor(cls_key.state)
        # always_on: the always-on platform rail.
        table[_SECONDS, column["always_on"]] = lib.always_on
        # cpu: cores running orchestration code.
        if cls_key.cpu_active:
            table[_SECONDS, column["cpu"]] = lib.cpu_active
        # vd: the video decoder at its DVFS mode (off draws nothing).
        vd_power = {
            VdMode.ACTIVE: lib.vd_active,
            VdMode.LOW_POWER: lib.vd_low_power,
            VdMode.HALTED: lib.vd_clock_gated,
        }.get(cls_key.vd_mode)
        if vd_power is not None:
            table[_SECONDS, column["vd"]] = vd_power
        # gpu: projection/render work.
        if cls_key.gpu_active:
            table[_SECONDS, column["gpu"]] = lib.gpu_active
        # dc: base power plus a datapath cost per eDP payload byte
        # (dc_power's rate term, integrated over the bucket).
        if cls_key.dc_active:
            table[_SECONDS, column["dc"]] = lib.dc_base
            table[_EDP, column["dc"]] = lib.dc_mw_per_gbs / 1e9
        # edp: the link power-gates between transfers, so edp_power is
        # discontinuous at rate 0 — which is why the class key carries
        # the edp_active indicator.
        if cls_key.edp_active:
            table[_SECONDS, column["edp"]] = lib.edp_base
            table[_EDP, column["edp"]] = (
                lib.edp_mw_per_gbps * to_gbps(1.0)
            )
        # panel: LCD scan/backlight, or OLED drive plus the luminance-
        # dependent emission (Duinkharjav et al. 2022), linear in the
        # APL-weighted seconds the bucket integrated.
        displaying = cls_key.panel_mode is not PanelMode.OFF
        if panel.is_oled:
            table[_SECONDS, column["panel"]] = lib.oled_power(
                panel, displaying=displaying, receiving=cls_key.edp_active
            )
            if displaying:
                table[_APL, column["panel"]] = lib.oled_emission_mw(panel)
        else:
            table[_SECONDS, column["panel"]] = lib.panel_power(
                panel, displaying=displaying, receiving=cls_key.edp_active
            )
        # drfb: the double remote framebuffer write overhead.
        if cls_key.drfb_active:
            table[_SECONDS, column["drfb"]] = lib.drfb_active
        # dram_background: the background power the state implies.
        table[_SECONDS, column["dram_background"]] = lib.dram_background(
            cls_key.state
        )
        # dram_traffic: energy per byte read and per byte written.
        table[_READ, column["dram_traffic"]] = lib.dram.traffic_energy(
            1.0, 0.0
        )
        table[_WRITE, column["dram_traffic"]] = lib.dram.traffic_energy(
            0.0, 1.0
        )
        # platform: WiFi/storage/idle devices for this workload shape.
        table[_SECONDS, column["platform"]] = self.extras.power(lib)
        # transition: the C-state entry/exit excursion extra.
        if cls_key.transition:
            table[_SECONDS, column["transition"]] = lib.transition_extra
        table.flags.writeable = False  # shared across models
        self._coefficients[cache_key] = table
        return table

    def price_plan_matrix(
        self,
        cls_keys: "list[SegmentClass]",
        quantities: np.ndarray,
        panel: PanelConfig,
    ) -> np.ndarray:
        """Price a quantity matrix in one vectorized pass.

        ``quantities`` is ``(len(cls_keys), len(QUANTITY_COLUMNS))``
        with the :data:`QUANTITY_COLUMNS` per class (e.g. a summary's
        bucket totals, as :meth:`price_summary` builds it).  Returns
        the ``(classes, components)`` energy matrix in mJ: each row is
        the class's quantities times its coefficient table
        (:meth:`_class_coefficients`) — the one pricing path behind
        every report.
        """
        columns = len(QUANTITY_COLUMNS)
        quantities = np.asarray(quantities, dtype=float)
        if quantities.shape != (len(cls_keys), columns):
            raise SimulationError(
                f"quantity matrix must be (classes, {columns}), got "
                f"{quantities.shape} for {len(cls_keys)} classes"
            )
        if not cls_keys:
            return np.zeros((0, len(COMPONENT_KEYS)))
        coefficients = np.stack(
            [
                self._class_coefficients(cls_key, panel)
                for cls_key in cls_keys
            ]
        )
        return np.einsum("kq,kqc->kc", quantities, coefficients)

    def price_summary(
        self, summary: TimelineSummary, panel: PanelConfig
    ) -> tuple[list[SegmentClass], np.ndarray, np.ndarray]:
        """A summary's classes, their quantity rows, and their
        ``(classes, components)`` energy matrix from
        :meth:`price_plan_matrix` — what every report and the energy
        ledger price from."""
        cls_keys = list(summary.buckets)
        quantities = np.array(
            [
                [
                    totals.seconds,
                    totals.dram_read_bytes,
                    totals.dram_write_bytes,
                    totals.edp_bytes,
                    totals.apl_seconds,
                ]
                for totals in summary.buckets.values()
            ]
        ).reshape(len(cls_keys), len(QUANTITY_COLUMNS))
        return (
            cls_keys,
            quantities,
            self.price_plan_matrix(cls_keys, quantities, panel),
        )

    # -- run-level evaluation ------------------------------------------------------

    def report(self, run: RunResult) -> EnergyReport:
        """Evaluate the model over a simulated run's class totals (the
        online summary the simulator builds in every retain mode)."""
        if run.summary is None:
            raise SimulationError("run carries no timeline summary")
        return self.report_summary(
            run.summary, run.config.panel, scheme=run.scheme
        )

    def report_summary(
        self,
        summary: TimelineSummary,
        panel: PanelConfig,
        scheme: str = "",
    ) -> EnergyReport:
        """Evaluate the model over a timeline summary.

        The one pricing path: every bucket's quantities go through
        :meth:`price_plan_matrix` in one vectorized pass, O(segment
        classes) work whatever the run's length.  A traced run prices
        the same way and emits the ``power.report`` span with its
        ``power.component`` and ``power.state`` events from the result.
        """
        if not summary.buckets:
            raise SimulationError("cannot evaluate an empty summary")
        duration = summary.duration
        if duration <= 0:
            raise SimulationError("summary covers no time")
        tracer = obs_trace.active()
        report_span = None
        if tracer is not None:
            report_span = tracer.begin_span(
                "power.report",
                t=summary.start,
                scheme=scheme,
                segments=summary.segment_count,
            )
        cls_keys, quantities, matrix = self.price_summary(summary, panel)
        by_component = dict(
            zip(COMPONENT_KEYS, matrix.sum(axis=0).tolist())
        )
        class_energies = matrix.sum(axis=1).tolist()
        state_energy: dict[PackageCState, float] = {}
        state_seconds: dict[PackageCState, float] = {}
        transition_energy = 0.0
        for cls_key, class_energy, seconds in zip(
            cls_keys, class_energies, quantities[:, 0].tolist()
        ):
            state = cls_key.state.reporting_state
            state_energy[state] = state_energy.get(state, 0.0) + class_energy
            state_seconds[state] = state_seconds.get(state, 0.0) + seconds
            if cls_key.transition:
                transition_energy += class_energy
        total = sum(by_component.values())
        by_state = {
            state: CStateSummary(
                state=state,
                residency_s=seconds,
                residency_fraction=seconds / duration,
                average_power_mw=(
                    state_energy[state] / seconds if seconds > 0 else 0.0
                ),
                energy_mj=state_energy[state],
            )
            for state, seconds in state_seconds.items()
        }
        report = EnergyReport(
            scheme=scheme,
            duration_s=duration,
            total_energy_mj=total,
            by_component_mj=by_component,
            by_state=by_state,
            transition_energy_mj=transition_energy,
            dram_read_bytes=summary.dram_read_bytes,
            dram_write_bytes=summary.dram_write_bytes,
        )
        registry = obs_metrics.registry()
        registry.counter(
            "power.reports", "energy reports evaluated"
        ).inc()
        registry.histogram(
            "power.avg_mw", "run-average system power per report"
        ).observe(report.average_power_mw)
        if tracer is not None:
            for key in COMPONENT_KEYS:
                tracer.event(
                    "power.component", component=key,
                    energy_mj=by_component[key],
                )
            for row in report.table2_rows():
                tracer.event(
                    "power.state",
                    state=row.state,
                    residency_s=row.residency_s,
                    residency_fraction=row.residency_fraction,
                    average_power_mw=row.average_power_mw,
                    energy_mj=row.energy_mj,
                )
            assert report_span is not None
            tracer.end_span(
                report_span,
                t=summary.end,
                total_mj=total,
                average_mw=report.average_power_mw,
                transition_mj=transition_energy,
            )
        return report

    def report_timeline(
        self,
        timeline: Timeline,
        panel: PanelConfig,
        scheme: str = "",
    ) -> EnergyReport:
        """Evaluate the model over a bare timeline: its class totals
        (:meth:`TimelineSummary.from_timeline`), priced by
        :meth:`report_summary`."""
        return self.report_summary(
            TimelineSummary.from_timeline(timeline), panel, scheme=scheme
        )

    # -- the closed-form check ------------------------------------------------------

    def closed_form_average_power(self, report: EnergyReport) -> float:
        """Recompute ``AvgP`` from the report's own per-state rows — the
        paper's ``sum P_Ci * R_Ci`` (excursion energy is already folded
        into the per-state averages by attribution).  Must equal
        :attr:`EnergyReport.average_power_mw` up to rounding; the model
        validation tests assert it."""
        return sum(
            row.average_power_mw * row.residency_fraction
            for row in report.by_state.values()
        )
