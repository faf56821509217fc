"""Package C-states of the modeled Intel Skylake mobile SoC.

This module encodes the paper's Table 1: every package C-state, the
conditions under which the PMU may enter it, and (for the power model of
Sec. 5.2) the entry/exit latencies the analytical formula charges via its
``P_en * Lat_en + P_ex * Lat_ex`` terms.

``C7_PRIME`` models the C7' state of Sec. 4.1 — C7 with the video decoder
clock-gated while the display controller drains its buffer to the panel.
It is a sub-state of C7 for reporting purposes (Table 2 folds it into C7),
but the simulator tracks it separately because the VD halt/wake oscillation
between C7 and C7' is where Frame Buffer Bypass spends most of its time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from ..errors import PowerStateError
from ..units import us


class PackageCState(enum.Enum):
    """Package-level idle power states, shallowest (C0) to deepest (C10)."""

    C0 = 0
    C2 = 2
    C3 = 3
    C6 = 6
    C7 = 7
    #: C7 with the video decoder clock-gated (Sec. 4.1's C7').
    C7_PRIME = 7.5
    C8 = 8
    C9 = 9
    C10 = 10

    #: Members compare by identity, so they hash by identity too: the
    #: inherited ``Enum.__hash__`` runs Python code on every dict lookup
    #: (the summary fold and plan-group keys do millions per run).  No
    #: output can depend on the old hash: it hashed the member's name,
    #: and string hashes are randomized per process.
    __hash__ = object.__hash__

    def __init__(self, value: float) -> None:
        # Plain attributes, not properties: the builder and every new
        # segment's validation read them.
        #: Numeric depth for ordering; deeper states save more power.
        self.depth: float = value
        #: Whether DRAM sits in self-refresh in this state (Table 1: DRAM
        #: is active only in C0 and C2).
        self.dram_in_self_refresh: bool = value not in (0, 2)

    @property
    def reporting_state(self) -> "PackageCState":
        """The state Table 2-style reports fold this state into (C7' is
        reported as C7; everything else reports as itself)."""
        if self is PackageCState.C7_PRIME:
            return PackageCState.C7
        return self

    @property
    def display_path_may_be_on(self) -> bool:
        """Whether the DC and display IO may still be powered (Table 1:
        they are forced off from C9 onward)."""
        return self.depth < PackageCState.C9.depth

    @property
    def label(self) -> str:
        """Human-readable label ("C7'" for the prime sub-state)."""
        if self is PackageCState.C7_PRIME:
            return "C7'"
        return self.name

    def __str__(self) -> str:
        return self.label


#: One-line summary of each state's entry conditions, from the paper's
#: Table 1 (kept as data so reports can print the reference table).
ENTRY_CONDITIONS: dict[PackageCState, str] = {
    PackageCState.C0: (
        "One or more cores or graphics engine executing instructions"
    ),
    PackageCState.C2: (
        "All cores in CC3+ and graphics in RC6 (power-gated); DRAM active"
    ),
    PackageCState.C3: (
        "Cores CC3+, graphics RC6; LLC may be off; DRAM in self-refresh; "
        "most IO/memory clocks gated; some IPs may stay active (DC, "
        "display IO)"
    ),
    PackageCState.C6: (
        "Cores CC6+ (power-gated); DRAM in self-refresh; IO and memory "
        "clock generators off; some IPs may stay active (VD, DC)"
    ),
    PackageCState.C7: (
        "Package C6 plus power-gating of some IO and memory domains"
    ),
    PackageCState.C7_PRIME: (
        "Package C7 with the video decoder clock-gated (BurstLink Sec. 4.1)"
    ),
    PackageCState.C8: (
        "Package C7 plus additional IO/memory power-gating; only DC and "
        "display IO remain on"
    ),
    PackageCState.C9: (
        "Package C8 with all IPs off and most VR voltages reduced; the "
        "display panel may be in PSR"
    ),
    PackageCState.C10: (
        "Package C9 with all SoC voltage regulators off except the "
        "always-on rail; the display panel is off"
    ),
}


@dataclass(frozen=True)
class TransitionCost:
    """Entry/exit latency of a package C-state.

    Entering a deep state flushes caches, parks voltage regulators and
    drains in-flight traffic; exiting re-trains links and restores
    voltages.  The analytical power model charges both phases at a power
    between the origin and destination state powers.
    """

    entry_latency: float
    exit_latency: float

    def __post_init__(self) -> None:
        if self.entry_latency < 0 or self.exit_latency < 0:
            raise PowerStateError("transition latencies must be >= 0")

    @property
    def round_trip(self) -> float:
        """Total latency of one enter-then-exit excursion."""
        return self.entry_latency + self.exit_latency


#: Entry/exit latencies per state.  C0 has none (it is the active state);
#: the deeper the state, the longer the excursion, following the wake-up
#: latency measurements of Schoene et al. that the paper cites for its
#: methodology (Sec. 5.2) scaled to package-level excursions.
CSTATE_TRANSITIONS: dict[PackageCState, TransitionCost] = {
    PackageCState.C0: TransitionCost(0.0, 0.0),
    PackageCState.C2: TransitionCost(us(40.0), us(40.0)),
    PackageCState.C3: TransitionCost(us(60.0), us(60.0)),
    PackageCState.C6: TransitionCost(us(80.0), us(80.0)),
    PackageCState.C7: TransitionCost(us(100.0), us(90.0)),
    # C7 <-> C7' is a bare clock gate of the VD: near-free.
    PackageCState.C7_PRIME: TransitionCost(us(2.0), us(2.0)),
    PackageCState.C8: TransitionCost(us(150.0), us(60.0)),
    PackageCState.C9: TransitionCost(us(250.0), us(200.0)),
    PackageCState.C10: TransitionCost(us(400.0), us(2500.0)),
}


def transition_cost(state: PackageCState) -> TransitionCost:
    """The entry/exit cost of ``state``.

    Raises :class:`PowerStateError` for a state without a registered cost
    (should be impossible for members of :class:`PackageCState`).
    """
    try:
        return CSTATE_TRANSITIONS[state]
    except KeyError as exc:  # pragma: no cover - defensive
        raise PowerStateError(f"no transition cost for {state}") from exc


def deepest_allowed(candidates: Iterable[PackageCState]) -> PackageCState:
    """The deepest state among ``candidates``.

    The PMU computes the package C-state as the deepest state *allowed by
    every component*; each component contributes the deepest state it can
    tolerate and the package resolves to the shallowest of those.  This
    helper is the complementary reduction used when assembling per-window
    schedules: given the states each idle interval could use, pick the
    deepest.
    """
    states = list(candidates)
    if not states:
        raise PowerStateError("deepest_allowed() needs at least one state")
    return max(states, key=lambda s: s.depth)


def shallowest_required(candidates: Iterable[PackageCState]) -> PackageCState:
    """The shallowest state among ``candidates`` — the PMU's resolution
    rule: the package can only be as deep as its busiest component
    allows."""
    states = list(candidates)
    if not states:
        raise PowerStateError("shallowest_required() needs at least one state")
    return min(states, key=lambda s: s.depth)
