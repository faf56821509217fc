"""Calibration sensitivity analysis."""

import pytest

from repro.analysis.runner import cache_disabled
from repro.analysis.sensitivity import (
    PERTURBABLE,
    SensitivityRow,
    perturb_library,
    sensitivity_analysis,
)
from repro.config import FHD, PanelConfig
from repro.dram.states import DramPowerState
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.power.calibration import SKYLAKE_TABLET_POWER
from repro.soc.cstates import PackageCState


class TestPerturbLibrary:
    def test_direct_field(self):
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "cpu_active", 1.5
        )
        assert perturbed.cpu_active == pytest.approx(
            1.5 * SKYLAKE_TABLET_POWER.cpu_active
        )

    def test_dram_slope(self):
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "dram_read_slope", 0.5
        )
        assert perturbed.dram.read_mw_per_gbs == pytest.approx(
            0.5 * SKYLAKE_TABLET_POWER.dram.read_mw_per_gbs
        )
        # The untouched slope is preserved.
        assert perturbed.dram.write_mw_per_gbs == (
            SKYLAKE_TABLET_POWER.dram.write_mw_per_gbs
        )

    def test_dram_background(self):
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "dram_background_active", 2.0
        )
        assert perturbed.dram.background_power(
            DramPowerState.ACTIVE
        ) == pytest.approx(
            2.0 * SKYLAKE_TABLET_POWER.dram.background_power(
                DramPowerState.ACTIVE
            )
        )

    def test_soc_floor(self):
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "soc_floor_c2", 0.8
        )
        assert perturbed.floor(PackageCState.C2) == pytest.approx(
            0.8 * SKYLAKE_TABLET_POWER.floor(PackageCState.C2)
        )

    def test_soc_floor_keeps_monotonicity(self):
        """Scaling a deep floor above its shallower neighbour must not
        produce an invalid library."""
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "soc_floor_c9", 5.0
        )
        assert perturbed.floor(PackageCState.C9) <= (
            perturbed.floor(PackageCState.C8)
        )

    def test_soc_floor_capped_at_shallower_neighbour(self):
        """C8 at +20% stops at C7''s floor: 180 -> 185 mW, not 216."""
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "soc_floor_c8", 1.2
        )
        assert SKYLAKE_TABLET_POWER.floor(PackageCState.C8) == 180.0
        assert perturbed.floor(PackageCState.C8) == 185.0
        assert perturbed.floor(PackageCState.C7_PRIME) == (
            SKYLAKE_TABLET_POWER.floor(PackageCState.C7_PRIME)
        )
        assert perturbed.floor(PackageCState.C7) == (
            SKYLAKE_TABLET_POWER.floor(PackageCState.C7)
        )

    def test_base_library_untouched(self):
        before = SKYLAKE_TABLET_POWER.cpu_active
        perturb_library(SKYLAKE_TABLET_POWER, "cpu_active", 3.0)
        assert SKYLAKE_TABLET_POWER.cpu_active == before

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            perturb_library(SKYLAKE_TABLET_POWER, "nonsense", 1.1)

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            perturb_library(SKYLAKE_TABLET_POWER, "cpu_active", 0.0)

    def test_perturbed_library_still_prices(self):
        perturbed = perturb_library(
            SKYLAKE_TABLET_POWER, "panel_base", 1.2
        )
        assert perturbed.panel_power(PanelConfig(resolution=FHD)) > (
            SKYLAKE_TABLET_POWER.panel_power(
                PanelConfig(resolution=FHD)
            )
        )


class TestSensitivityAnalysis:
    @pytest.fixture(scope="class")
    def rows(self):
        return sensitivity_analysis(
            FHD,
            parameters=(
                "panel_base",
                "dram_read_slope",
                "transition_extra",
                "wifi_streaming",
            ),
            frame_count=12,
        )

    def test_simulates_each_scheme_once(self):
        """Every perturbed library reprices the same two runs."""
        runs = obs_metrics.registry().counter("sim.runs")
        before = runs.value
        with cache_disabled():
            sensitivity_analysis(FHD, frame_count=12)
        assert runs.value - before == 2

    def test_conclusion_stable_everywhere(self, rows):
        """The robustness statement: BurstLink wins at every +/-20%
        perturbation of every constant."""
        assert all(row.conclusion_stable for row in rows)

    def test_swings_are_small(self, rows):
        """No single constant moves the headline by more than ~5
        points."""
        assert all(row.swing < 0.08 for row in rows)

    def test_sorted_by_swing(self, rows):
        swings = [row.swing for row in rows]
        assert swings == sorted(swings, reverse=True)

    def test_base_reduction_consistent(self, rows):
        bases = {round(row.reduction_base, 6) for row in rows}
        assert len(bases) == 1

    def test_all_perturbable_names_valid(self):
        for parameter in PERTURBABLE:
            perturb_library(SKYLAKE_TABLET_POWER, parameter, 1.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sensitivity_analysis(FHD, parameters=())
        with pytest.raises(ConfigurationError):
            sensitivity_analysis(FHD, spread=1.5)

    def test_row_helpers(self):
        row = SensitivityRow("x", 0.3, 0.4, 0.5)
        assert row.swing == pytest.approx(0.2)
        assert row.conclusion_stable
        assert not SensitivityRow("y", -0.1, 0.2, 0.3).conclusion_stable
