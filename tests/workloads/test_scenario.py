"""The multi-phase scenario engine with dynamic fallback."""

import functools

import pytest

from repro.config import FHD, skylake_tablet
from repro.errors import ConfigurationError
from repro.pipeline import FrameWindowSimulator
from repro.soc.registers import RegisterFile
from repro.workloads.scenario import (
    Phase,
    Scenario,
    notification_appears,
    notification_dismissed,
    second_stream_closes,
    second_stream_opens,
    streaming_session,
    touch_settles,
    user_touch,
)


@pytest.fixture
def config():
    return skylake_tablet(FHD)


class TestValidation:
    def test_phase_needs_positive_duration(self):
        with pytest.raises(ConfigurationError):
            Phase("x", duration_s=0)

    def test_phase_needs_positive_fps(self):
        with pytest.raises(ConfigurationError):
            Phase("x", duration_s=1, fps=0)

    def test_scenario_needs_phases(self, config):
        with pytest.raises(ConfigurationError):
            Scenario(config=config, phases=[])


class TestCannedSession:
    @pytest.fixture(scope="class")
    def result(self):
        return streaming_session(skylake_tablet(FHD)).play()

    def test_scheme_sequence_tracks_events(self, result):
        assert result.scheme_sequence() == [
            "burstlink",      # steady playback
            "conventional",   # touch -> PSR2 exit
            "burstlink",      # touch settles
            "conventional",   # notification plane
            "burstlink",      # dismissed
        ]

    def test_timeline_covers_session(self, result):
        expected = sum(o.phase.duration_s for o in result.outcomes)
        assert result.duration_s == pytest.approx(expected, rel=0.02)

    def test_fallback_phases_cost_more(self, result):
        powers = [
            o.report.average_power_mw for o in result.outcomes
        ]
        assert powers[1] > powers[0]  # touch phase vs steady
        assert powers[3] > powers[2]  # notification vs steady

    def test_session_average_between_extremes(self, result):
        powers = [
            o.report.average_power_mw for o in result.outcomes
        ]
        assert min(powers) < result.average_power_mw < max(powers)

    def test_summary_mentions_every_phase(self, result):
        summary = result.summary()
        for outcome in result.outcomes:
            assert outcome.phase.name in summary
        assert "session average" in summary


class TestSecondStream:
    def test_second_session_forces_conventional(self, config):
        scenario = Scenario(
            config=config,
            phases=[
                Phase("solo", duration_s=0.5),
                Phase("pip opens", duration_s=0.5,
                      events=(second_stream_opens,)),
                Phase("pip closes", duration_s=0.5,
                      events=(second_stream_closes,)),
            ],
        )
        result = scenario.play()
        assert result.scheme_sequence() == [
            "burstlink", "conventional", "burstlink",
        ]


class TestEventOrder:
    def test_multiple_events_in_one_phase(self, config):
        scenario = Scenario(
            config=config,
            phases=[
                Phase(
                    "touch+notification",
                    duration_s=0.5,
                    events=(user_touch, notification_appears),
                ),
                Phase(
                    "both clear",
                    duration_s=0.5,
                    events=(touch_settles, notification_dismissed),
                ),
            ],
        )
        result = scenario.play()
        assert result.scheme_sequence() == [
            "conventional", "burstlink",
        ]

    def test_reasons_recorded(self, config):
        scenario = Scenario(
            config=config,
            phases=[
                Phase("touch", duration_s=0.5, events=(user_touch,)),
            ],
        )
        outcome = scenario.play().outcomes[0]
        assert "PSR2" in outcome.reason


class TestRegisterEvents:
    """The six canned register events, applied directly to a register
    file (the unit the scenario engine feeds them)."""

    def test_user_touch_raises_psr2_exit(self):
        registers = RegisterFile.full_screen_video()
        assert not registers.fallback_required
        user_touch(registers)
        assert registers.psr2_exited
        assert registers.fallback_required

    def test_touch_settles_clears_psr2_exit(self):
        registers = RegisterFile.full_screen_video()
        user_touch(registers)
        touch_settles(registers)
        assert not registers.psr2_exited
        assert registers.bypass_eligible

    def test_notification_raises_graphics_interrupt(self):
        registers = RegisterFile.full_screen_video()
        notification_appears(registers)
        assert registers.graphics_interrupt
        assert registers.fallback_required

    def test_notification_dismissed_clears_interrupt(self):
        registers = RegisterFile.full_screen_video()
        notification_appears(registers)
        notification_dismissed(registers)
        assert not registers.graphics_interrupt
        assert registers.bypass_eligible

    def test_second_stream_breaks_single_video(self):
        registers = RegisterFile.full_screen_video()
        assert registers.single_video
        second_stream_opens(registers)
        assert registers.video_sessions == 2
        assert not registers.single_video
        assert not registers.bypass_eligible

    def test_second_stream_closes_restores_eligibility(self):
        registers = RegisterFile.full_screen_video()
        second_stream_opens(registers)
        second_stream_closes(registers)
        assert registers.single_video
        assert registers.bypass_eligible

    def test_closing_without_a_session_rejected(self):
        registers = RegisterFile()
        with pytest.raises(ConfigurationError):
            second_stream_closes(registers)


class TestSummaryRetain:
    def test_play_with_summary_only_runs(self, config, monkeypatch):
        summary = streaming_session(config).play()
        monkeypatch.setattr(
            FrameWindowSimulator, "run",
            functools.partialmethod(FrameWindowSimulator.run, retain="full"),
        )
        full = streaming_session(config).play()
        assert all(o.run.timeline is None for o in summary.outcomes)
        assert all(o.run.timeline is not None for o in full.outcomes)
        assert summary.scheme_sequence() == full.scheme_sequence()
        assert summary.duration_s == pytest.approx(
            full.duration_s, rel=1e-12
        )
        assert summary.total_energy_mj == full.total_energy_mj


class TestPhaseOutcomeAccounting:
    @pytest.fixture(scope="class")
    def result(self):
        return streaming_session(skylake_tablet(FHD)).play()

    def test_total_energy_sums_phase_reports(self, result):
        assert result.total_energy_mj == pytest.approx(
            sum(o.report.total_energy_mj for o in result.outcomes)
        )

    def test_average_power_is_energy_over_duration(self, result):
        assert result.average_power_mw == pytest.approx(
            result.total_energy_mj / result.duration_s
        )

    def test_each_outcome_covers_its_phase(self, result):
        for outcome in result.outcomes:
            assert outcome.run.duration == pytest.approx(
                outcome.phase.duration_s, rel=0.05
            )

    def test_outcome_carries_selector_verdict(self, result):
        for outcome in result.outcomes:
            assert outcome.scheme == outcome.run.scheme
            assert outcome.reason

    def test_sub_frame_phase_still_simulates(self, config):
        scenario = Scenario(
            config=config,
            phases=[Phase("blip", duration_s=0.01)],
        )
        result = scenario.play()
        assert result.outcomes[0].run.stats.windows >= 1
        assert result.total_energy_mj > 0


class TestPlayTransitions:
    def test_register_state_persists_across_phases(self, config):
        # No clearing event in phase 2: the phase-1 touch still forces
        # the conventional path.
        scenario = Scenario(
            config=config,
            phases=[
                Phase("touch", duration_s=0.5, events=(user_touch,)),
                Phase("still touching", duration_s=0.5),
                Phase("settled", duration_s=0.5,
                      events=(touch_settles,)),
            ],
        )
        assert scenario.play().scheme_sequence() == [
            "conventional", "conventional", "burstlink",
        ]

    def test_play_is_deterministic(self, config):
        first = streaming_session(config).play()
        second = streaming_session(config).play()
        assert first.scheme_sequence() == second.scheme_sequence()
        assert first.total_energy_mj == second.total_energy_mj

    def test_phase_count_matches_outcomes(self, config):
        scenario = streaming_session(config)
        result = scenario.play()
        assert len(result.outcomes) == len(scenario.phases)
