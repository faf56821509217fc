"""The cross-run plan cache's record.

Nearly every window in a long run replays an earlier plan with a time
shift.  The walker in :mod:`repro.pipeline.sim` groups windows by
``(scheme plan_key, window kind, frame, entry state)`` and prices each
distinct plan **once**, replaying it per group member as a count.
:class:`CachedPlan` is one such plan as the cross-run plan cache stores
it (see ``repro.analysis.runner.SimulationCache``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..soc.cstates import PackageCState
from .timeline import TimelineSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sim import WindowResult


@dataclass
class CachedPlan:
    """One memoized window plan, as the cross-run plan cache stores it.

    ``start`` anchors the plan's absolute timeline; replays shift every
    segment by ``window_start - start``.  ``final_state`` is the
    C-state the window hands to its successor.
    """

    start: float
    result: "WindowResult"
    digest: TimelineSummary
    final_state: PackageCState
