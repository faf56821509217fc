"""The declarative power-term registry: semantics, default-registry
parity with the historical component set, and append-only extension."""

import pytest

from repro.config import FHD, skylake_tablet
from repro.errors import CalibrationError
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.power.model import COMPONENT_KEYS, PowerModel
from repro.power.terms import (
    DEFAULT_TERMS,
    PowerTerm,
    PowerTermRegistry,
    default_registry,
)
from repro.video.source import AnalyticContentModel


def _zero_term(key="extra"):
    return PowerTerm(
        key,
        lambda cls, totals, panel, ctx: 0.0,
        "a term that prices nothing",
    )


class TestRegistrySemantics:
    def test_default_keys_are_the_component_keys(self):
        registry = default_registry()
        assert registry.keys == COMPONENT_KEYS
        assert len(registry) == len(DEFAULT_TERMS) == 13

    def test_zeros_is_a_fresh_accumulator_in_registry_order(self):
        registry = default_registry()
        zeros = registry.zeros()
        assert tuple(zeros) == registry.keys
        assert all(value == 0.0 for value in zeros.values())
        # A fresh dict every call: mutating one must not leak.
        zeros["panel"] = 1.0
        assert registry.zeros()["panel"] == 0.0

    def test_ids_are_stable_positions(self):
        registry = default_registry()
        assert registry.ids["soc_floor"] == 0
        assert [registry.ids[key] for key in registry.keys] == list(
            range(len(registry))
        )

    def test_term_lookup(self):
        assert default_registry().term("panel").key == "panel"
        with pytest.raises(CalibrationError):
            default_registry().term("nope")

    def test_empty_registry_rejected(self):
        with pytest.raises(CalibrationError):
            PowerTermRegistry(())

    def test_duplicate_keys_rejected(self):
        with pytest.raises(CalibrationError):
            PowerTermRegistry((_zero_term("a"), _zero_term("a")))

    def test_extended_appends_preserving_ids(self):
        base = default_registry()
        extended = base.extended(_zero_term())
        assert extended.keys == base.keys + ("extra",)
        assert extended.ids["extra"] == len(base)
        for key in base.keys:
            assert extended.ids[key] == base.ids[key]
        # The default registry itself is untouched.
        assert "extra" not in default_registry().ids


class TestModelWithCustomRegistry:
    @pytest.fixture(scope="class")
    def run(self):
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 12)
        return FrameWindowSimulator(
            config, ConventionalScheme()
        ).run(frames, 30.0, retain="full")

    def test_zero_cost_term_leaves_totals_unchanged(self, run):
        base = PowerModel().report(run)
        extended = PowerModel(
            registry=default_registry().extended(_zero_term())
        ).report(run)
        assert extended.total_energy_mj == pytest.approx(
            base.total_energy_mj
        )
        assert extended.by_component_mj["extra"] == 0.0
        assert set(extended.by_component_mj) == set(
            COMPONENT_KEYS
        ) | {"extra"}

    def test_constant_term_adds_linear_energy(self, run):
        flat = PowerTerm(
            "heater",
            lambda cls, totals, panel, ctx: 100.0 * totals.seconds,
        )
        base = PowerModel().report(run)
        extended = PowerModel(
            registry=default_registry().extended(flat)
        ).report(run)
        duration = run.timeline.duration
        assert extended.by_component_mj["heater"] == pytest.approx(
            100.0 * duration
        )
        assert extended.total_energy_mj == pytest.approx(
            base.total_energy_mj + 100.0 * duration
        )

    def test_default_model_uses_default_registry(self):
        assert PowerModel().registry is default_registry()
