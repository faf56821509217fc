"""The timeline builder: sequential phase scheduling with C-state
transition accounting.

Pipeline schemes describe a window as a sequence of *phases* ("3 ms of
orchestration in C0", "72 us fetching a chunk in C2", ...).  The builder
turns phases into segments and inserts the entry/exit excursions between
differing states — the ``P_en * Lat_en + P_ex * Lat_ex`` terms of the
paper's analytical power model (Sec. 5.2) — conserving total time by
carving each excursion out of the head of the incoming phase.

Excursion conventions (DESIGN.md, modelling decision 4):

* moving deeper (A -> B, B deeper) costs B's entry latency; moving
  shallower costs A's exit latency;
* the excursion segment is *attributed to the shallower* of the two
  states, matching how hardware residency counters behave (the deep
  state's counter only runs once the state is actually reached).

The builder also implements the PMU's demotion heuristic
(:meth:`TimelineBuilder.idle`): an idle period only enters a deep state
if the round-trip excursion cost stays below a bounded fraction of the
period — the reason a short idle gap parks in C8 while BurstLink's long
post-burst gap is worth taking all the way to C9.

Every oscillation a scheme plans (the C2/C8 fetch-drain, the burst
body, the C7/C7' decode interleave) iterates
:meth:`TimelineBuilder.cycles`.  Once the second cycle ends in the
state it entered from, the rest repeat it exactly, so they are stored
as one train of the timeline instead of being built, with the same
floats (:meth:`TimelineBuilder.record` / :meth:`TimelineBuilder.repeat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import SimulationError
from ..soc.cstates import PackageCState, transition_cost
from .timeline import PanelMode, Segment, Timeline

#: An idle period refuses a state whose round-trip excursion would eat
#: more than this fraction of it.
DEFAULT_MAX_EXCURSION_FRACTION = 0.2


#: ``(current, target)`` -> latency of switching ``current`` ->
#: ``target``: the target's entry latency when moving deeper, the
#: current state's exit latency when moving shallower, zero when equal.
_EXCURSION_LATENCY: dict[tuple[PackageCState, PackageCState], float] = {
    (current, target): (
        0.0 if current is target
        else transition_cost(target).entry_latency
        if target.depth > current.depth
        else transition_cost(current).exit_latency
    )
    for current in PackageCState
    for target in PackageCState
}

#: ``(current, target)`` -> ``(attributed state, label)`` of the
#: excursion segment: the shallower of the two states, and the
#: ``"C8->C2"`` transition label.
_EXCURSION: dict[
    tuple[PackageCState, PackageCState], tuple[PackageCState, str]
] = {
    (current, target): (
        current if current.depth <= target.depth else target,
        f"{current.label}->{target.label}",
    )
    for current in PackageCState
    for target in PackageCState
}

#: Exit latency per state (the return leg of an idle round trip).
_EXIT_LATENCY: dict[PackageCState, float] = {
    state: transition_cost(state).exit_latency for state in PackageCState
}


def excursion_latency(current: PackageCState,
                      target: PackageCState) -> float:
    """Latency of switching ``current`` -> ``target`` (zero if equal)."""
    return _EXCURSION_LATENCY[current, target]


@dataclass
class TimelineBuilder:
    """Builds one contiguous timeline phase by phase."""

    start: float = 0.0
    initial_state: PackageCState = PackageCState.C0
    timeline: Timeline = field(default_factory=Timeline)
    #: Count of phases whose duration was entirely consumed by the
    #: excursion into them (a sign the schedule is too fine-grained for
    #: the transition latencies involved).
    squeezed_phases: int = 0

    def __post_init__(self) -> None:
        self._now = self.start
        self._state = self.initial_state
        #: While recording (:meth:`record`): the entry state and squeezed
        #: count at the mark, and the time increments added since.
        self._mark: tuple[PackageCState, int] | None = None
        self._steps: list[float] | None = None

    @property
    def now(self) -> float:
        """Current end of the built timeline."""
        return self._now

    @property
    def state(self) -> PackageCState:
        """C-state the builder is currently in."""
        return self._state

    def add(self, duration: float, state: PackageCState,
            label: str = "", **attrs: object) -> int | None:
        """Append a phase of ``duration`` seconds in ``state``.

        If the builder is currently in a different state, the excursion
        latency is carved out of ``duration`` and emitted as a transition
        segment attributed to the shallower state.  ``attrs`` are passed
        through to :class:`Segment` (bandwidths, activity flags, ...).
        Returns the index of the phase's segment in the timeline, or
        ``None`` when the phase emitted none (zero duration, or the
        excursion consumed all of it).
        """
        if duration < 0:
            if duration > -1e-9:
                duration = 0.0  # float dust from budget arithmetic
            else:
                raise SimulationError(
                    f"phase {label!r} has negative duration {duration}"
                )
        if duration == 0:
            return None
        requested = duration
        steps = self._steps
        latency = _EXCURSION_LATENCY[self._state, state]
        if latency > 0:
            excursion = min(latency, duration)
            if excursion >= duration:
                self.squeezed_phases += 1
            panel = attrs.get("panel_mode", PanelMode.SELF_REFRESH)
            shallower, transition_label = _EXCURSION[self._state, state]
            self.timeline.append(
                Segment(
                    start=self._now,
                    end=self._now + excursion,
                    state=shallower,
                    label=transition_label,
                    transition=True,
                    panel_mode=panel,  # type: ignore[arg-type]
                )
            )
            self._now += excursion
            if steps is not None:
                steps.append(excursion)
            duration -= excursion
        self._state = state
        if duration > 0:
            # The excursion carved time out of the phase; the traffic the
            # caller described still moves, so rates scale up to conserve
            # total bytes over the shortened segment.
            if duration < requested:
                scale = requested / duration
                for key in ("dram_read_bw", "dram_write_bw", "edp_rate"):
                    if key in attrs:
                        attrs[key] = attrs[key] * scale  # type: ignore
            self.timeline.append(
                Segment(
                    start=self._now,
                    end=self._now + duration,
                    state=state,
                    label=label,
                    **attrs,  # type: ignore[arg-type]
                )
            )
            self._now += duration
            if steps is not None:
                steps.append(duration)
            return len(self.timeline) - 1
        return None

    def record(self) -> None:
        """Mark the start of a cycle of phases for :meth:`repeat`."""
        self._mark = (self._state, self.squeezed_phases)
        self._steps = []

    def repeat(self, times: int) -> bool:
        """Add the phases since :meth:`record` ``times`` more times, as
        one train of the timeline (:meth:`Timeline.repeat`).

        Equal to adding them again phase by phase whenever the cycle
        left the builder in the state it entered from: each pass then
        starts alike, carves the same excursions and adds the same
        increments, and the train is advanced by those increments with
        the same float sums.  Returns False, and adds nothing, when it
        did not (or nothing was recorded); the caller then adds the
        phases itself.  Recording ends either way.
        """
        if self._mark is None:
            raise SimulationError("repeat() needs a record() before it")
        state, squeezed = self._mark
        steps = self._steps
        self._mark = self._steps = None
        if times < 1 or self._state is not state or not steps:
            return False
        self._now = self.timeline.repeat(tuple(steps), times)
        self.squeezed_phases += (self.squeezed_phases - squeezed) * times
        return True

    def cycles(self, count: int) -> Iterator[int]:
        """Yield the indices of ``count`` cycles for the caller to add.

        Every cycle after the first starts where the one before it
        ended, so when the second ends in its own entry state the rest
        repeat it exactly: they go in as one train (:meth:`repeat`) and
        the iteration stops after index 1.  Otherwise every cycle is
        yielded and added phase by phase.
        """
        for cycle in range(count):
            if cycle == 1 and count > 2:
                self.record()
            elif cycle == 2 and self.repeat(count - 2):
                return
            yield cycle

    def idle(
        self,
        duration: float,
        candidates: list[PackageCState],
        label: str = "idle",
        max_excursion_fraction: float = DEFAULT_MAX_EXCURSION_FRACTION,
        **attrs: object,
    ) -> PackageCState:
        """Fill an idle period with the deepest *worthwhile* state.

        ``candidates`` lists the states the platform permits right now,
        any order.  The deepest one whose round-trip excursion cost is at
        most ``max_excursion_fraction`` of ``duration`` wins; if none
        qualifies, the shallowest candidate is used unconditionally.
        Returns the chosen state.
        """
        if not candidates:
            raise SimulationError("idle() needs at least one candidate")
        if duration < 0:
            if duration > -1e-9:
                duration = 0.0  # float dust from budget arithmetic
            else:
                raise SimulationError("idle duration must be >= 0")
        ordered = sorted(candidates, key=lambda s: s.depth)
        chosen = ordered[0]
        for state in ordered:
            cost = (
                _EXCURSION_LATENCY[self._state, state] + _EXIT_LATENCY[state]
            )
            if cost <= duration * max_excursion_fraction:
                chosen = state
        self.add(duration, chosen, label=label, **attrs)
        return chosen

    def fill_to(self, time: float, state: PackageCState,
                label: str = "fill", **attrs: object) -> None:
        """Pad with ``state`` until the absolute time ``time`` (no-op if
        already there; raises if ``time`` is in the past)."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"cannot fill to {time}: builder is already at {self._now}"
            )
        self.add(max(0.0, time - self._now), state, label=label, **attrs)

    def build(self) -> Timeline:
        """The finished timeline."""
        return self.timeline
