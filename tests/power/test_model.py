"""The analytical power model over timelines."""

import dataclasses

import pytest

from repro.config import (
    FHD,
    PLANAR_RESOLUTIONS,
    PanelConfig,
    skylake_tablet,
)
from repro.core import BurstLinkScheme
from repro.errors import SimulationError
from repro.obs.trace import tracing
from repro.pipeline.conventional import ConventionalScheme
from repro.pipeline.sim import FrameWindowSimulator
from repro.pipeline.timeline import (
    PanelMode,
    Segment,
    SegmentClass,
    Timeline,
    TimelineSummary,
    VdMode,
)
from repro.power.model import (
    COMPONENT_IDS,
    COMPONENT_KEYS,
    EnergyReport,
    PlatformExtras,
    PowerModel,
)
from repro.soc.cstates import PackageCState
from repro.video.source import AnalyticContentModel


@pytest.fixture
def model():
    return PowerModel()


@pytest.fixture
def panel():
    return PanelConfig(resolution=FHD)


def segment(state=PackageCState.C9, duration=1.0, **kwargs):
    return Segment(start=0.0, end=duration, state=state, **kwargs)


class TestComponentTable:
    def test_keys_in_historical_order(self):
        assert COMPONENT_KEYS == (
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

    def test_ids_are_stable_positions(self):
        assert COMPONENT_IDS["soc_floor"] == 0
        assert [COMPONENT_IDS[key] for key in COMPONENT_KEYS] == list(
            range(len(COMPONENT_KEYS))
        )


class TestSegmentPower:
    def test_deep_idle_is_cheapest(self, model, panel):
        idle = model.segment_power(segment(PackageCState.C9), panel)
        active = model.segment_power(
            segment(PackageCState.C0, cpu_active=True), panel
        )
        assert active > 2 * idle

    def test_component_keys_complete(self, model, panel):
        powers = model.segment_component_powers(segment(), panel)
        assert set(powers) == set(COMPONENT_KEYS)

    def test_cpu_adder(self, model, panel):
        base = model.segment_power(segment(PackageCState.C0), panel)
        busy = model.segment_power(
            segment(PackageCState.C0, cpu_active=True), panel
        )
        assert busy - base == pytest.approx(model.library.cpu_active)

    def test_vd_mode_ladder(self, model, panel):
        def power(mode):
            return model.segment_power(
                segment(PackageCState.C0, vd_mode=mode), panel
            )

        assert power(VdMode.ACTIVE) > power(VdMode.LOW_POWER) > (
            power(VdMode.HALTED) > power(VdMode.OFF)
        )

    def test_dram_traffic_charged(self, model, panel):
        quiet = model.segment_power(segment(PackageCState.C2), panel)
        busy = model.segment_power(
            segment(PackageCState.C2, dram_read_bw=1e9), panel
        )
        assert busy - quiet == pytest.approx(
            model.library.dram.read_mw_per_gbs
        )

    def test_transition_extra_charged(self, model, panel):
        plain = model.segment_power(segment(PackageCState.C2), panel)
        excursion = model.segment_power(
            segment(PackageCState.C2, transition=True), panel
        )
        assert excursion - plain == pytest.approx(
            model.library.transition_extra
        )

    def test_drfb_adder(self, model, panel):
        without = model.segment_power(segment(PackageCState.C7), panel)
        with_drfb = model.segment_power(
            segment(PackageCState.C7, drfb_active=True), panel
        )
        assert with_drfb - without == pytest.approx(58.0)

    def test_panel_off_removes_panel_power(self, model, panel):
        lit = model.segment_power(segment(), panel)
        dark = model.segment_power(
            segment(panel_mode=PanelMode.OFF), panel
        )
        assert lit - dark == pytest.approx(
            model.library.panel_power(panel)
        )


class TestSharedCoefficients:
    def test_default_models_share_tables(self, panel):
        first, second = PowerModel(), PowerModel()
        assert first._coefficients is second._coefficients
        cls_key = SegmentClass.of(segment(PackageCState.C8))
        table = first._class_coefficients(cls_key, panel)
        assert second._class_coefficients(cls_key, panel) is table
        assert not table.flags.writeable

    def test_other_library_or_extras_get_their_own(self, model, panel):
        library = dataclasses.replace(
            model.library, cpu_active=2 * model.library.cpu_active
        )
        other = PowerModel(library=library)
        assert other._coefficients is not model._coefficients
        assert PowerModel(
            extras=PlatformExtras(streaming=False)
        )._coefficients is not model._coefficients
        cls_key = SegmentClass.of(
            segment(PackageCState.C0, cpu_active=True)
        )
        cpu = COMPONENT_IDS["cpu"]
        assert other._class_coefficients(cls_key, panel)[0, cpu] == (
            2 * model._class_coefficients(cls_key, panel)[0, cpu]
        )


class TestPlatformExtras:
    def test_streaming_adds_wifi(self, model):
        streaming = PlatformExtras(streaming=True)
        idle = PlatformExtras(streaming=False)
        assert streaming.power(model.library) - idle.power(
            model.library
        ) == pytest.approx(model.library.wifi_streaming)

    def test_local_playback_adds_storage(self, model):
        local = PlatformExtras(streaming=False, local_playback=True)
        idle = PlatformExtras(streaming=False)
        assert local.power(model.library) - idle.power(
            model.library
        ) == pytest.approx(model.library.storage_playback)


class TestReport:
    @pytest.fixture
    def report(self, model):
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 24)
        run = FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 30.0
        )
        return model.report(run)

    def test_energy_sums_components(self, report):
        assert report.total_energy_mj == pytest.approx(
            sum(report.by_component_mj.values())
        )

    def test_energy_sums_states(self, report):
        assert report.total_energy_mj == pytest.approx(
            sum(row.energy_mj for row in report.by_state.values())
        )

    def test_average_power(self, report):
        assert report.average_power_mw == pytest.approx(
            report.total_energy_mj / report.duration_s
        )

    def test_closed_form_matches_bottom_up(self, model, report):
        """The paper's sum(P_Ci * R_Ci) must equal the bottom-up
        integral exactly."""
        assert model.closed_form_average_power(report) == (
            pytest.approx(report.average_power_mw, rel=1e-9)
        )

    def test_residencies_sum_to_one(self, report):
        assert sum(
            row.residency_fraction for row in report.by_state.values()
        ) == pytest.approx(1.0)

    def test_table2_rows_sorted(self, report):
        rows = report.table2_rows()
        depths = [row.state.depth for row in rows]
        assert depths == sorted(depths)

    def test_energy_per_window(self, report):
        per_window = report.energy_per_frame_window(1 / 60)
        assert per_window == pytest.approx(
            report.average_power_mw / 60
        )

    def test_transition_energy_positive(self, report):
        assert 0 < report.transition_energy_mj < (
            report.total_energy_mj / 4
        )

    def test_empty_timeline_rejected(self, model, panel):
        with pytest.raises(SimulationError):
            model.report_timeline(Timeline(), panel)

    def test_bad_window_length_rejected(self, report):
        with pytest.raises(SimulationError):
            report.energy_per_frame_window(0)


class TestOnePrice:
    """Every report prices class totals through one vectorized path:
    tracing, retain mode and the caller's entry point do not change a
    bit of the result."""

    @staticmethod
    def _run(resolution, scheme_cls, retain="full"):
        config = skylake_tablet(resolution)
        if scheme_cls is BurstLinkScheme:
            config = config.with_drfb()
        frames = AnalyticContentModel().frames(resolution, 12)
        return FrameWindowSimulator(config, scheme_cls()).run(
            frames, 30.0, retain=retain
        )

    @pytest.mark.parametrize("retain", ["full", "summary"])
    @pytest.mark.parametrize("scheme_cls", [
        ConventionalScheme, BurstLinkScheme,
    ])
    @pytest.mark.parametrize("resolution", PLANAR_RESOLUTIONS, ids=str)
    def test_traced_report_equals_untraced(
        self, resolution, scheme_cls, retain
    ):
        run = self._run(resolution, scheme_cls, retain)
        untraced = PowerModel().report(run)
        with tracing() as tracer:
            traced = PowerModel().report(run)
        assert any(e["name"] == "power.component" for e in tracer.events)
        for field in dataclasses.fields(EnergyReport):
            assert getattr(traced, field.name) == getattr(
                untraced, field.name
            ), field.name

    @pytest.mark.parametrize("scheme_cls", [
        ConventionalScheme, BurstLinkScheme,
    ])
    def test_report_timeline_is_summary_of_timeline(self, model, scheme_cls):
        run = self._run(FHD, scheme_cls)
        panel = run.config.panel
        assert model.report_timeline(
            run.timeline, panel, scheme=run.scheme
        ) == model.report_summary(
            TimelineSummary.from_timeline(run.timeline), panel,
            scheme=run.scheme,
        )
