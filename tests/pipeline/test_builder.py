"""The timeline builder: excursion insertion and idle-state selection."""

import pytest

from repro.errors import SimulationError
from repro.pipeline.builder import TimelineBuilder, excursion_latency
from repro.soc.cstates import PackageCState, transition_cost


class TestExcursionLatency:
    def test_same_state_free(self):
        assert excursion_latency(
            PackageCState.C8, PackageCState.C8
        ) == 0.0

    def test_going_deeper_pays_entry(self):
        assert excursion_latency(
            PackageCState.C0, PackageCState.C8
        ) == transition_cost(PackageCState.C8).entry_latency

    def test_going_shallower_pays_exit(self):
        assert excursion_latency(
            PackageCState.C8, PackageCState.C0
        ) == transition_cost(PackageCState.C8).exit_latency


class TestAdd:
    def test_first_phase_in_initial_state_has_no_excursion(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-3, PackageCState.C0, label="work")
        timeline = builder.build()
        assert len(timeline) == 1
        assert not timeline.segments[0].transition

    def test_state_change_inserts_transition(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-3, PackageCState.C8)
        timeline = builder.build()
        assert timeline.segments[0].transition
        assert timeline.segments[0].duration == pytest.approx(
            transition_cost(PackageCState.C8).entry_latency
        )

    def test_excursion_carved_from_phase(self):
        """Time is conserved: the transition eats into the phase."""
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-3, PackageCState.C8)
        assert builder.now == pytest.approx(1e-3)

    def test_transition_attributed_to_shallower_state(self):
        builder = TimelineBuilder(initial_state=PackageCState.C8)
        builder.add(1e-3, PackageCState.C2)  # waking up
        timeline = builder.build()
        # C8 -> C2: the excursion counts toward C2 (the shallower).
        assert timeline.segments[0].state is PackageCState.C2
        builder2 = TimelineBuilder(initial_state=PackageCState.C2)
        builder2.add(1e-3, PackageCState.C8)  # going to sleep
        # C2 -> C8: still attributed to C2.
        assert builder2.build().segments[0].state is PackageCState.C2

    def test_phase_shorter_than_excursion_is_squeezed(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-6, PackageCState.C9)  # entry takes 250 us
        assert builder.squeezed_phases == 1

    def test_zero_duration_is_noop(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(0.0, PackageCState.C8)
        assert len(builder.build()) == 0
        assert builder.state is PackageCState.C0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            TimelineBuilder().add(-1.0, PackageCState.C8)

    def test_attrs_forwarded(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-3, PackageCState.C0, cpu_active=True)
        assert builder.build().segments[0].cpu_active


class TestIdle:
    def test_long_idle_picks_deepest(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        chosen = builder.idle(
            10e-3, [PackageCState.C8, PackageCState.C9]
        )
        assert chosen is PackageCState.C9

    def test_short_idle_declines_deep_state(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        # C9 round trip is 450 us; a 1 ms gap fails the 20% rule.
        chosen = builder.idle(
            1e-3, [PackageCState.C8, PackageCState.C9]
        )
        assert chosen is PackageCState.C8

    def test_shallowest_used_unconditionally(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        chosen = builder.idle(1e-6, [PackageCState.C8])
        assert chosen is PackageCState.C8

    def test_empty_candidates_rejected(self):
        with pytest.raises(SimulationError):
            TimelineBuilder().idle(1e-3, [])

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            TimelineBuilder().idle(-1.0, [PackageCState.C8])

    def test_candidate_order_irrelevant(self):
        a = TimelineBuilder(initial_state=PackageCState.C0)
        b = TimelineBuilder(initial_state=PackageCState.C0)
        assert a.idle(
            10e-3, [PackageCState.C9, PackageCState.C8]
        ) is b.idle(10e-3, [PackageCState.C8, PackageCState.C9])


class TestFillTo:
    def test_fill_pads_to_time(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-3, PackageCState.C0)
        builder.fill_to(5e-3, PackageCState.C8)
        assert builder.now == pytest.approx(5e-3)

    def test_fill_to_now_is_noop(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(1e-3, PackageCState.C0)
        builder.fill_to(1e-3, PackageCState.C8)
        assert builder.state is PackageCState.C0

    def test_fill_into_past_rejected(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(2e-3, PackageCState.C0)
        with pytest.raises(SimulationError):
            builder.fill_to(1e-3, PackageCState.C8)


class TestSequenceConsistency:
    def test_oscillation_produces_alternating_pattern(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        for _ in range(3):
            builder.add(1e-3, PackageCState.C2, label="fetch")
            builder.add(1e-3, PackageCState.C8, label="drain")
        pattern = builder.build().pattern()
        assert pattern == "C0 C2 C8 C2 C8 C2 C8".replace("C0 ", "", 1) or (
            pattern == "C2 C8 C2 C8 C2 C8"
        )

    def test_total_time_conserved(self):
        builder = TimelineBuilder(initial_state=PackageCState.C0)
        builder.add(4e-3, PackageCState.C2)
        builder.add(4e-3, PackageCState.C8)
        builder.add(4e-3, PackageCState.C9)
        assert builder.build().duration == pytest.approx(12e-3)


class TestRepeat:
    def test_cycle_repeats_as_one_train(self):
        builder = TimelineBuilder(initial_state=PackageCState.C8)
        builder.record()
        builder.add(1e-3, PackageCState.C2, label="fetch")
        builder.add(2e-3, PackageCState.C8, label="drain")
        assert builder.repeat(4)
        timeline = builder.build()
        assert len(timeline) == 20
        assert len(timeline._stored) == 4
        assert builder.now == timeline.end == timeline.segments[-1].end
        assert builder.now == pytest.approx(15e-3)
        assert [s.label for s in timeline][:4] == [
            "C8->C2", "fetch", "C2->C8", "drain"
        ]

    def test_cycle_that_moves_state_is_refused(self):
        builder = TimelineBuilder(initial_state=PackageCState.C8)
        builder.record()
        builder.add(1e-3, PackageCState.C2, label="fetch")
        assert not builder.repeat(3)
        assert len(builder.build()) == 2
        assert builder.now == builder.build().end

    def test_empty_cycle_is_refused(self):
        builder = TimelineBuilder(initial_state=PackageCState.C2)
        builder.record()
        builder.add(0.0, PackageCState.C8)
        assert not builder.repeat(3)
        assert len(builder.build()) == 0

    def test_squeezed_phases_count_every_copy(self):
        builder = TimelineBuilder(initial_state=PackageCState.C8)
        builder.add(1e-3, PackageCState.C2)
        builder.record()
        builder.add(1e-3, PackageCState.C2)
        builder.add(
            excursion_latency(PackageCState.C2, PackageCState.C9),
            PackageCState.C9,
        )
        builder.add(1e-3, PackageCState.C8)
        builder.add(1e-3, PackageCState.C2)
        squeezed = builder.squeezed_phases
        assert squeezed == 1
        assert builder.repeat(2)
        assert builder.squeezed_phases == 3

    def test_a_timeline_holds_one_train(self):
        builder = TimelineBuilder(initial_state=PackageCState.C2)
        builder.record()
        builder.add(1e-3, PackageCState.C2)
        assert builder.repeat(1)
        builder.add(1e-3, PackageCState.C8)
        with pytest.raises(SimulationError):
            builder.timeline.repeat((1e-3,), 1)
