"""Timeline and segment algebra."""

import copy
import dataclasses
import enum
import pickle

import pytest

from repro.errors import SimulationError
from repro.pipeline.sim import _digest
from repro.pipeline.timeline import (
    PanelMode,
    Segment,
    Timeline,
    VdMode,
)
from repro.soc.cstates import PackageCState


def seg(start, end, state, **kwargs):
    return Segment(start=start, end=end, state=state, **kwargs)


class TestSegment:
    def test_duration(self):
        assert seg(1.0, 3.0, PackageCState.C8).duration == 2.0

    def test_reversed_rejected(self):
        with pytest.raises(SimulationError):
            seg(3.0, 1.0, PackageCState.C8)

    def test_traffic_derivation(self):
        segment = seg(
            0.0, 2.0, PackageCState.C2,
            dram_read_bw=100.0, dram_write_bw=50.0, edp_rate=10.0,
        )
        assert segment.dram_read_bytes == 200.0
        assert segment.dram_write_bytes == 100.0
        assert segment.edp_bytes == 20.0

    def test_traffic_in_self_refresh_rejected(self):
        """A segment cannot move DRAM data while the package state puts
        DRAM in self-refresh — the central datapath invariant."""
        with pytest.raises(SimulationError):
            seg(0, 1, PackageCState.C8, dram_read_bw=1.0)

    def test_traffic_allowed_in_c0_c2(self):
        seg(0, 1, PackageCState.C0, dram_write_bw=1.0)
        seg(0, 1, PackageCState.C2, dram_read_bw=1.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(SimulationError):
            seg(0, 1, PackageCState.C0, dram_read_bw=-1)
        with pytest.raises(SimulationError):
            seg(0, 1, PackageCState.C0, edp_rate=-1)

    def test_shifted(self):
        shifted = seg(0.0, 1.0, PackageCState.C8).shifted(5.0)
        assert (shifted.start, shifted.end) == (5.0, 6.0)

    def test_frozen(self):
        segment = seg(0.0, 1.0, PackageCState.C8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            segment.end = 2.0  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            del segment.label  # type: ignore[misc]
        with pytest.raises((AttributeError, TypeError)):
            segment.extra = 1  # type: ignore[attr-defined]

    def test_replace_revalidates(self):
        segment = seg(0.0, 1.0, PackageCState.C2, dram_read_bw=5.0)
        moved = dataclasses.replace(segment, apl=0.5, label="x")
        assert (moved.apl, moved.label, moved.dram_read_bw) == (
            0.5, "x", 5.0,
        )
        with pytest.raises(SimulationError):
            dataclasses.replace(segment, state=PackageCState.C8)
        with pytest.raises(SimulationError):
            dataclasses.replace(segment, apl=1.5)

    def test_pickle_and_copy_round_trip(self):
        segment = seg(
            0.25, 1.0, PackageCState.C7_PRIME, label="drain",
            transition=True, edp_rate=3.0, vd_mode=VdMode.HALTED,
            panel_mode=PanelMode.LIVE, drfb_active=True, apl=0.3,
        )
        for clone in (
            pickle.loads(pickle.dumps(segment)),
            copy.copy(segment),
            copy.deepcopy(segment),
        ):
            assert clone == segment
            assert hash(clone) == hash(segment)
            assert clone.state is PackageCState.C7_PRIME

    def test_fingerprint_covers_every_field(self):
        segment = seg(
            0.0, 1.0, PackageCState.C0, label="decode",
            dram_read_bw=2.0, edp_rate=3.0, apl=0.5,
        )
        assert _digest(segment) == _digest(copy.copy(segment))
        for field in dataclasses.fields(Segment):
            value = getattr(segment, field.name)
            if isinstance(value, enum.Enum):
                members = list(type(value))
                changed = members[(members.index(value) + 1) % len(members)]
            elif isinstance(value, bool):
                changed = not value
            elif isinstance(value, str):
                changed = value + "x"
            else:
                changed = value + 0.25
            other = dataclasses.replace(segment, **{field.name: changed})
            assert _digest(other) != _digest(segment), field.name


class TestTimelineStructure:
    def test_contiguity_enforced(self):
        with pytest.raises(SimulationError):
            Timeline([
                seg(0.0, 1.0, PackageCState.C0),
                seg(1.5, 2.0, PackageCState.C8),
            ])

    def test_append_must_be_contiguous(self):
        timeline = Timeline([seg(0.0, 1.0, PackageCState.C0)])
        with pytest.raises(SimulationError):
            timeline.append(seg(2.0, 3.0, PackageCState.C8))

    def test_empty_timeline(self):
        empty = Timeline()
        assert empty.duration == 0.0
        assert len(empty) == 0


class TestResidencies:
    def make(self):
        return Timeline([
            seg(0.0, 1.0, PackageCState.C0),
            seg(1.0, 2.0, PackageCState.C7),
            seg(2.0, 3.0, PackageCState.C7_PRIME),
            seg(3.0, 10.0, PackageCState.C9),
        ])

    def test_fold_prime_into_c7(self):
        residencies = self.make().residencies(fold_prime=True)
        assert residencies[PackageCState.C7] == pytest.approx(2.0)
        assert PackageCState.C7_PRIME not in residencies

    def test_unfolded(self):
        residencies = self.make().residencies(fold_prime=False)
        assert residencies[PackageCState.C7_PRIME] == pytest.approx(1.0)

    def test_fractions_sum_to_one(self):
        fractions = self.make().residency_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_of_empty_rejected(self):
        with pytest.raises(SimulationError):
            Timeline().residency_fractions()

    def test_dominant_state(self):
        assert self.make().dominant_state() is PackageCState.C9

    def test_dominant_of_empty_rejected(self):
        with pytest.raises(SimulationError):
            Timeline().dominant_state()


class TestTransitions:
    def test_transition_accounting(self):
        timeline = Timeline([
            seg(0.0, 1.0, PackageCState.C0),
            seg(1.0, 1.1, PackageCState.C0, transition=True),
            seg(1.1, 2.0, PackageCState.C8),
        ])
        assert timeline.transition_time() == pytest.approx(0.1)
        assert timeline.transition_count() == 1


class TestTrafficTotals:
    def test_totals(self):
        timeline = Timeline([
            seg(0.0, 1.0, PackageCState.C0, dram_read_bw=10,
                dram_write_bw=5),
            seg(1.0, 2.0, PackageCState.C2, dram_read_bw=10),
        ])
        assert timeline.dram_read_bytes == pytest.approx(20.0)
        assert timeline.dram_write_bytes == pytest.approx(5.0)
        assert timeline.dram_total_bytes == pytest.approx(25.0)


class TestPattern:
    def test_collapsed_pattern(self):
        timeline = Timeline([
            seg(0.0, 1.0, PackageCState.C0),
            seg(1.0, 2.0, PackageCState.C2),
            seg(2.0, 3.0, PackageCState.C2),
            seg(3.0, 4.0, PackageCState.C8),
        ])
        assert timeline.pattern() == "C0 C2 C8"

    def test_uncollapsed(self):
        timeline = Timeline([
            seg(0.0, 1.0, PackageCState.C2),
            seg(1.0, 2.0, PackageCState.C2),
        ])
        assert timeline.pattern(collapse=False) == "C2 C2"

    def test_transitions_excluded(self):
        timeline = Timeline([
            seg(0.0, 1.0, PackageCState.C0),
            seg(1.0, 1.1, PackageCState.C2, transition=True),
            seg(1.1, 2.0, PackageCState.C8),
        ])
        assert timeline.pattern() == "C0 C8"

    def test_prime_label_in_pattern(self):
        timeline = Timeline([
            seg(0.0, 1.0, PackageCState.C7),
            seg(1.0, 2.0, PackageCState.C7_PRIME),
        ])
        assert timeline.pattern() == "C7 C7'"


class TestModes:
    def test_vd_modes(self):
        assert not VdMode.HALTED.name == VdMode.ACTIVE.name

    def test_panel_modes(self):
        assert PanelMode.LIVE is not PanelMode.SELF_REFRESH
