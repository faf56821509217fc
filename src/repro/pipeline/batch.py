"""Vectorized plan-group machinery for the cadence walker.

Nearly every window in a long run replays an earlier plan with a time
shift.  The walker in :mod:`repro.pipeline.sim` groups windows by
``(scheme plan_key, window kind, frame, entry state)`` and prices each
distinct plan **once**, replaying it per group member as a count.

This module holds the pieces that are independent of the simulator
loop:

* :class:`PlanMatrix` — one plan's segments materialized as numpy
  arrays (start offsets, durations, segment-class indices, byte
  totals), the unit :meth:`PowerModel.price_plan_matrix
  <repro.power.model.PowerModel.price_plan_matrix>` consumes and the
  vectorized source of the plan's one-window digest;
* :class:`CachedPlan` — the serializable record the cross-run plan
  cache stores (see ``repro.analysis.runner.SimulationCache``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..soc.cstates import PackageCState
from .timeline import ClassTotals, SegmentClass, Timeline, TimelineSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sim import WindowResult


@dataclass
class PlanMatrix:
    """One window plan's segments as column arrays.

    ``classes`` lists the distinct :class:`SegmentClass` keys in first-
    appearance order; ``class_index`` maps each segment row to its
    class.  All byte columns are the segments' exact time-integrated
    totals, so :meth:`quantities` feeds
    :meth:`~repro.power.model.PowerModel.price_plan_matrix` without
    loss.
    """

    classes: list[SegmentClass]
    class_index: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    dram_read_bytes: np.ndarray
    dram_write_bytes: np.ndarray
    edp_bytes: np.ndarray
    apl_seconds: np.ndarray
    #: The exact seconds the source timeline spans (its ``duration``,
    #: kept verbatim so digests replay the scalar path bit for bit).
    covered: float = 0.0

    @classmethod
    def from_timeline(
        cls, timeline: Timeline, window_kind: str
    ) -> "PlanMatrix":
        """Materialize ``timeline`` (one planned window) as arrays."""
        segments = timeline.segments
        if not segments:
            raise SimulationError("cannot matrix an empty timeline")
        index_of: dict[SegmentClass, int] = {}
        classes: list[SegmentClass] = []
        class_index = np.empty(len(segments), dtype=np.int64)
        for row, segment in enumerate(segments):
            cls_key = SegmentClass.of(segment, window_kind)
            slot = index_of.get(cls_key)
            if slot is None:
                slot = index_of[cls_key] = len(classes)
                classes.append(cls_key)
            class_index[row] = slot
        starts = np.array([s.start for s in segments])
        durations = np.array([s.duration for s in segments])
        return cls(
            classes=classes,
            class_index=class_index,
            starts=starts,
            durations=durations,
            dram_read_bytes=np.array(
                [s.dram_read_bytes for s in segments]
            ),
            dram_write_bytes=np.array(
                [s.dram_write_bytes for s in segments]
            ),
            edp_bytes=np.array([s.edp_bytes for s in segments]),
            apl_seconds=np.array([s.apl_seconds for s in segments]),
            covered=timeline.duration,
        )

    def quantities(self) -> np.ndarray:
        """Per-class ``(seconds, read bytes, write bytes, eDP bytes,
        APL-seconds)`` as a ``(classes, 5)`` array — the quantity matrix
        :meth:`~repro.power.model.PowerModel.price_plan_matrix` prices.

        ``np.bincount`` folds same-class segments in row order, so the
        sums match a sequential scalar accumulation bit for bit.
        """
        k = len(self.classes)
        return np.stack(
            [
                np.bincount(
                    self.class_index, weights=column, minlength=k
                )
                for column in (
                    self.durations,
                    self.dram_read_bytes,
                    self.dram_write_bytes,
                    self.edp_bytes,
                    self.apl_seconds,
                )
            ],
            axis=1,
        )

    def digest(self, kind: str, duration: float) -> TimelineSummary:
        """The plan's one-window digest, equal to
        :meth:`TimelineSummary.window_digest` on the source timeline.
        """
        quantities = self.quantities()
        segment_counts = np.bincount(
            self.class_index, minlength=len(self.classes)
        )
        digest = TimelineSummary()
        for slot, cls_key in enumerate(self.classes):
            digest.buckets[cls_key] = ClassTotals(
                seconds=float(quantities[slot, 0]),
                segments=int(segment_counts[slot]),
                dram_read_bytes=float(quantities[slot, 1]),
                dram_write_bytes=float(quantities[slot, 2]),
                edp_bytes=float(quantities[slot, 3]),
                apl_seconds=float(quantities[slot, 4]),
            )
        digest.close_window(kind, duration, self.covered)
        return digest


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
