"""Package C-state timelines.

A :class:`Timeline` is a contiguous sequence of :class:`Segment` records:
each carries the package C-state the system occupied, what the datapath
was doing (DRAM bandwidths, eDP rate, which IPs were working), and whether
the segment is a state *transition* (entry/exit excursion).  Residency
accounting over timelines is the quantity the paper reads from VTune
(Sec. 5.3) and reports in Table 2 and Figs. 3/4/6/7.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from ..errors import SimulationError
from ..soc.cstates import PackageCState

#: Tolerance for floating-point contiguity checks (seconds).
_EPSILON = 1e-12


class VdMode(enum.Enum):
    """What the video decoder is doing during a segment."""

    #: Identity hashing (see :class:`PackageCState`).
    __hash__ = object.__hash__

    OFF = "off"
    #: Racing at the maximum DVFS point (conventional; package C0).
    ACTIVE = "active"
    #: Decoding at the latency-tolerant point inside package C7.
    LOW_POWER = "low_power"
    #: Clock-gated while the DC drains (the C7' half of the oscillation).
    HALTED = "halted"


class PanelMode(enum.Enum):
    """What the panel is doing during a segment."""

    #: Identity hashing (see :class:`PackageCState`).
    __hash__ = object.__hash__

    #: Scanning pixels arriving live over the eDP link.
    LIVE = "live"
    #: Self-refreshing from its remote buffer (PSR).
    SELF_REFRESH = "self_refresh"
    OFF = "off"


@dataclass(frozen=True, slots=True)
class Segment:
    """One homogeneous stretch of a run.

    Slotted: a fresh plan creates one per phase and excursion, and a
    slotted record is both cheaper to build and smaller than a
    dict-backed one.
    """

    start: float
    end: float
    state: PackageCState
    label: str = ""
    #: True for C-state entry/exit excursions (charged at transition
    #: power; attributed to the shallower of the two states).
    transition: bool = False
    # -- datapath activity ---------------------------------------------------
    dram_read_bw: float = 0.0
    dram_write_bw: float = 0.0
    #: Payload rate on the eDP link (bytes/s); zero when the link idles.
    edp_rate: float = 0.0
    cpu_active: bool = False
    gpu_active: bool = False
    vd_mode: VdMode = VdMode.OFF
    dc_active: bool = False
    panel_mode: PanelMode = PanelMode.SELF_REFRESH
    #: The DRFB is being written (its +58 mW overhead applies).
    drfb_active: bool = False
    #: Average picture level of the displayed content during this
    #: segment (0..1; 0 means "content-agnostic", the historical
    #: behavior).  Content-aware power terms (the OLED emission part of
    #: the ``panel`` term) are linear in its time integral.
    apl: float = 0.0

    def __post_init__(self) -> None:
        if self.end < self.start - _EPSILON:
            raise SimulationError(
                f"segment ends ({self.end}) before it starts ({self.start})"
            )
        if self.dram_read_bw < 0 or self.dram_write_bw < 0:
            raise SimulationError("segment bandwidths must be >= 0")
        if self.edp_rate < 0:
            raise SimulationError("segment eDP rate must be >= 0")
        if not 0.0 <= self.apl <= 1.0:
            raise SimulationError("segment APL must be within [0, 1]")
        if (
            (self.dram_read_bw > 0 or self.dram_write_bw > 0)
            and self.state.dram_in_self_refresh
        ):
            raise SimulationError(
                f"segment {self.label!r} moves DRAM traffic in "
                f"{self.state}, where DRAM is in self-refresh"
            )

    @property
    def duration(self) -> float:
        """Length of the segment in seconds."""
        return self.end - self.start

    @property
    def dram_read_bytes(self) -> float:
        """Bytes read from DRAM during this segment."""
        return self.dram_read_bw * self.duration

    @property
    def dram_write_bytes(self) -> float:
        """Bytes written to DRAM during this segment."""
        return self.dram_write_bw * self.duration

    @property
    def edp_bytes(self) -> float:
        """Bytes moved over the eDP link during this segment."""
        return self.edp_rate * self.duration

    @property
    def apl_seconds(self) -> float:
        """Time integral of the content APL over this segment."""
        return self.apl * self.duration

    def shifted(self, offset: float) -> "Segment":
        """This segment translated in time by ``offset``."""
        return replace(
            self, start=self.start + offset, end=self.end + offset
        )


@dataclass(frozen=True, slots=True)
class _Train:
    """``times`` more copies of the ``len(steps)`` stored segments that
    end at stored index ``position``, laid end to end after them: copy
    ``j`` of the template ``i`` spans ``steps[i]`` seconds from where
    the previous copy ends.  ``end`` is where the last copy ends."""

    position: int
    steps: tuple[float, ...]
    times: int
    end: float


class Timeline:
    """A contiguous, ordered sequence of segments.

    A timeline may hold one *train* (:meth:`repeat`): copies of a run
    of segments it records without building them.  :attr:`segments`,
    iteration and equality see every copy; the summary fold
    (:meth:`TimelineSummary.add_timeline`), :attr:`end`,
    :attr:`final_state` and ``len`` read the train as it is stored.
    """

    def __init__(self, segments: list[Segment] | None = None) -> None:
        #: The segments built one by one (a train's templates among
        #: them); the list is taken, not copied.
        self._stored = segments if segments is not None else []
        self._train: _Train | None = None
        self._validate()

    def _validate(self) -> None:
        for earlier, later in zip(self._stored, self._stored[1:]):
            if abs(later.start - earlier.end) > 1e-9:
                raise SimulationError(
                    f"timeline gap/overlap between {earlier.label!r} "
                    f"(ends {earlier.end}) and {later.label!r} "
                    f"(starts {later.start})"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return self.segments == other.segments

    def __repr__(self) -> str:
        return f"Timeline(segments={self.segments!r})"

    # -- structure ------------------------------------------------------------

    @property
    def segments(self) -> list[Segment]:
        """Every segment in order; a timeline holding a train builds
        its copies into a new list on each read."""
        if self._train is None:
            return self._stored
        return list(self._expand())

    def _expand(self) -> Iterator[Segment]:
        stored = self._stored
        train = self._train
        position = train.position
        yield from stored[:position]
        templates = stored[position - len(train.steps):position]
        now = templates[-1].end
        for _ in range(train.times):
            for template, step in zip(templates, train.steps):
                end = now + step
                yield replace(template, start=now, end=end)
                now = end
        yield from stored[position:]

    @property
    def start(self) -> float:
        """Start time (0.0 for an empty timeline)."""
        return self._stored[0].start if self._stored else 0.0

    @property
    def end(self) -> float:
        """End time (0.0 for an empty timeline)."""
        train = self._train
        if train is not None and train.position == len(self._stored):
            return train.end
        return self._stored[-1].end if self._stored else 0.0

    @property
    def duration(self) -> float:
        """Total covered time."""
        return self.end - self.start

    @property
    def final_state(self) -> PackageCState:
        """The state of the last segment (a train's last copy shares
        its template's)."""
        if not self._stored:
            raise SimulationError("an empty timeline has no final state")
        return self._stored[-1].state

    def __iter__(self) -> Iterator[Segment]:
        if self._train is None:
            return iter(self._stored)
        return self._expand()

    def __len__(self) -> int:
        train = self._train
        if train is None:
            return len(self._stored)
        return len(self._stored) + len(train.steps) * train.times

    def __getitem__(self, index: int) -> Segment:
        """The segment at ``index``; one ahead of the train is read
        without building any copy."""
        train = self._train
        if train is None or 0 <= index < train.position:
            return self._stored[index]
        return self.segments[index]

    def append(self, segment: Segment) -> None:
        """Append a segment; it must start where the timeline ends."""
        if self._stored and abs(segment.start - self.end) > 1e-9:
            raise SimulationError(
                f"appended segment starts at {segment.start}, timeline "
                f"ends at {self.end}"
            )
        self._stored.append(segment)

    def repeat(self, steps: tuple[float, ...], times: int) -> float:
        """Append ``times`` copies of the last ``len(steps)`` segments
        as a train, and return the new end.

        The copies run end to end from the current end; copy ``j`` of
        segment ``i`` spans ``steps[i]`` seconds (the increment its
        builder added, which ``end - start`` need not equal).  The end
        is advanced with the same running sums a segment-by-segment
        build would make, so every boundary is that build's float.
        A timeline holds one train.  The copies differ from their
        templates only in time, so the checks :class:`Segment` and
        :meth:`append` make of them come down to each step being
        non-negative, checked once here.
        """
        length = len(steps)
        position = len(self._stored)
        if self._train is not None:
            raise SimulationError("a timeline holds one train")
        if times < 1 or not 0 < length <= position:
            raise SimulationError(
                f"cannot repeat the last {length} of {position} "
                f"segments {times} times"
            )
        if min(steps) < 0:
            raise SimulationError(f"train steps must be >= 0: {steps}")
        now = self._stored[-1].end
        for _ in range(times):
            for step in steps:
                now += step
        self._train = _Train(position, tuple(steps), times, now)
        return now

    def map_segments(
        self, fn: Callable[[Segment], Segment]
    ) -> "Timeline":
        """This timeline with ``fn`` applied to every segment.  ``fn``
        must keep each segment's start and end and read nothing else
        of its time: the result is contiguous as this one is, and a
        train's copies are copies of the mapped templates."""
        mapped = Timeline.__new__(Timeline)
        mapped._stored = [fn(segment) for segment in self._stored]
        mapped._train = self._train
        return mapped

    # -- residency accounting ---------------------------------------------------

    def residencies(
        self, fold_prime: bool = True
    ) -> dict[PackageCState, float]:
        """Seconds spent per package C-state (transitions attributed to
        the state recorded on their segment).  ``fold_prime`` merges C7'
        into C7, matching how Table 2 reports."""
        seconds: dict[PackageCState, float] = {}
        for segment in self.segments:
            state = (
                segment.state.reporting_state if fold_prime
                else segment.state
            )
            seconds[state] = seconds.get(state, 0.0) + segment.duration
        return seconds

    def residency_fractions(
        self, fold_prime: bool = True
    ) -> dict[PackageCState, float]:
        """Fraction of total time per package C-state."""
        total = self.duration
        if total <= 0:
            raise SimulationError(
                "residency fractions need a non-empty timeline"
            )
        return {
            state: seconds / total
            for state, seconds in self.residencies(fold_prime).items()
        }

    def transition_time(self) -> float:
        """Total time spent inside entry/exit excursions."""
        return sum(s.duration for s in self.segments if s.transition)

    def transition_count(self) -> int:
        """Number of entry/exit excursions."""
        return sum(1 for s in self.segments if s.transition)

    # -- traffic ---------------------------------------------------------------

    @property
    def dram_read_bytes(self) -> float:
        """Total bytes read from DRAM."""
        return sum(s.dram_read_bytes for s in self.segments)

    @property
    def dram_write_bytes(self) -> float:
        """Total bytes written to DRAM."""
        return sum(s.dram_write_bytes for s in self.segments)

    @property
    def dram_total_bytes(self) -> float:
        """Total DRAM traffic both directions."""
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def edp_bytes(self) -> float:
        """Total bytes moved over the eDP link."""
        return sum(s.edp_bytes for s in self.segments)

    # -- reporting ---------------------------------------------------------------

    def pattern(self, collapse: bool = True) -> str:
        """A compact state pattern string like ``"C0 C2 C8 C2 C8"``
        (transitions skipped; ``collapse`` merges adjacent repeats)."""
        states = [
            s.state.label for s in self.segments if not s.transition
        ]
        if collapse:
            collapsed: list[str] = []
            for state in states:
                if not collapsed or collapsed[-1] != state:
                    collapsed.append(state)
            states = collapsed
        return " ".join(states)

    def dominant_state(self) -> PackageCState:
        """The state with the largest residency."""
        residencies = self.residencies()
        if not residencies:
            raise SimulationError("empty timeline has no dominant state")
        return max(residencies, key=lambda s: residencies[s])


# ---------------------------------------------------------------------------
# Online aggregation: the streaming alternative to a materialized timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentClass:
    """The equivalence class of a segment for power purposes.

    Two segments in the same class draw identical constant component
    powers; everything else the power model charges is linear in the
    class's accumulated seconds and byte totals.  ``edp_active`` captures
    the ``edp_rate > 0`` discontinuity (link base power and panel receive
    power apply only while the link carries payload).  ``window_kind``
    keeps new-frame and repeat-window time separable for the profiler.
    """

    state: PackageCState
    transition: bool
    cpu_active: bool
    gpu_active: bool
    vd_mode: VdMode
    dc_active: bool
    panel_mode: PanelMode
    drfb_active: bool
    edp_active: bool
    label: str = ""
    window_kind: str = ""

    def __post_init__(self) -> None:
        # Every bucket and coefficient lookup hashes the class, so the
        # hash of its fields is taken once; equality stays field-wise.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (
            self.state, self.transition, self.cpu_active, self.gpu_active,
            self.vd_mode, self.dc_active, self.panel_mode, self.drfb_active,
            self.edp_active, self.label, self.window_kind,
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuilt through ``__init__``: the hash is the receiving
        # process's own (enum members hash by identity).
        return type(self), self._fields()

    @classmethod
    def of(cls, segment: Segment, window_kind: str = "") -> "SegmentClass":
        """The class of ``segment``."""
        return cls(
            state=segment.state,
            transition=segment.transition,
            cpu_active=segment.cpu_active,
            gpu_active=segment.gpu_active,
            vd_mode=segment.vd_mode,
            dc_active=segment.dc_active,
            panel_mode=segment.panel_mode,
            drfb_active=segment.drfb_active,
            edp_active=segment.edp_rate > 0,
            label=segment.label,
            window_kind=window_kind,
        )

    def key_string(self) -> str:
        """A canonical text key for this class (JSON payload keys).

        Field order is fixed and every field renders exactly one way
        (enum names, ``0``/``1`` flags), so two equal classes always
        produce byte-identical keys — the serve plane's summary
        artifacts compare as strings.
        """
        flags = "".join(
            "1" if flag else "0"
            for flag in (
                self.transition,
                self.cpu_active,
                self.gpu_active,
                self.dc_active,
                self.drfb_active,
                self.edp_active,
            )
        )
        return "|".join(
            (
                self.state.name,
                flags,
                self.vd_mode.value,
                self.panel_mode.value,
                self.label,
                self.window_kind,
            )
        )


#: Segment attribute tuple (the :class:`SegmentClass` fields in order)
#: -> its one shared class record.  A cache of equal immutable values,
#: never stale; it stays small because segment labels and window kinds
#: come from a fixed set in the schemes' code.
_INTERNED_CLASSES: dict[tuple, SegmentClass] = {}


@dataclass
class ClassTotals:
    """Accumulated quantities for one segment class."""

    seconds: float = 0.0
    segments: int = 0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    edp_bytes: float = 0.0
    #: Time integral of the content APL (content-agnostic runs leave
    #: this 0.0, and every pricing term is linear through the origin in
    #: it — so legacy quantities are unchanged byte for byte).
    apl_seconds: float = 0.0

    def add(self, other: "ClassTotals") -> None:
        """Fold another totals record into this one."""
        self.seconds += other.seconds
        self.segments += other.segments
        self.dram_read_bytes += other.dram_read_bytes
        self.dram_write_bytes += other.dram_write_bytes
        self.edp_bytes += other.edp_bytes
        self.apl_seconds += other.apl_seconds

    def copy(self) -> "ClassTotals":
        return ClassTotals(
            seconds=self.seconds,
            segments=self.segments,
            dram_read_bytes=self.dram_read_bytes,
            dram_write_bytes=self.dram_write_bytes,
            edp_bytes=self.edp_bytes,
            apl_seconds=self.apl_seconds,
        )


@dataclass
class TimelineSummary:
    """Online aggregation of a run: everything the power model and the
    analysis layer read from a timeline, in O(classes) memory.

    The simulator folds each window into a summary as it is planned, so
    hours-long traces never materialize their segments.  Quantities
    mirror :class:`Timeline`: residencies, transition count/time, DRAM
    and eDP byte totals, plus a window-duration histogram.
    """

    start: float = 0.0
    end: float = 0.0
    windows: int = 0
    #: window kind ("new_frame"/"repeat") -> count.
    window_counts: dict[str, int] = field(default_factory=dict)
    #: planned window duration (s) -> count.
    window_durations: dict[float, int] = field(default_factory=dict)
    buckets: dict[SegmentClass, ClassTotals] = field(default_factory=dict)

    # -- accumulation ---------------------------------------------------------

    def add_segment(self, segment: Segment, window_kind: str = "") -> None:
        """Fold one segment into the totals (does not advance ``end``;
        pair with :meth:`close_window` / :meth:`from_timeline`).

        Equivalent to keying by :meth:`SegmentClass.of` and adding the
        segment's ``duration`` and byte properties, with the same float
        operations in the same order — just without building a class
        record per segment.
        """
        totals = self._totals(segment, window_kind)
        duration = segment.end - segment.start
        totals.seconds += duration
        totals.segments += 1
        totals.dram_read_bytes += segment.dram_read_bw * duration
        totals.dram_write_bytes += segment.dram_write_bw * duration
        totals.edp_bytes += segment.edp_rate * duration
        totals.apl_seconds += segment.apl * duration

    def _totals(self, segment: Segment, window_kind: str) -> ClassTotals:
        """The bucket of ``segment``'s class, opened if new."""
        attrs = (
            segment.state,
            segment.transition,
            segment.cpu_active,
            segment.gpu_active,
            segment.vd_mode,
            segment.dc_active,
            segment.panel_mode,
            segment.drfb_active,
            segment.edp_rate > 0,
            segment.label,
            window_kind,
        )
        cls_key = _INTERNED_CLASSES.get(attrs)
        if cls_key is None:
            cls_key = _INTERNED_CLASSES[attrs] = SegmentClass(*attrs)
        totals = self.buckets.get(cls_key)
        if totals is None:
            totals = self.buckets[cls_key] = ClassTotals()
        return totals

    def add_timeline(self, timeline: Timeline,
                     window_kind: str = "") -> None:
        """Fold every segment of ``timeline``, in order (does not
        advance ``end``).

        Stored segments go through :meth:`add_segment`.  A train's
        copies are folded without being built, with the float
        operations :meth:`add_segment` would make on them in the same
        order: a copy's duration is ``(now + step) - now``, its built
        ``end - start``.  The sums are therefore the same bits either
        way.
        """
        stored = timeline._stored
        train = timeline._train
        position = len(stored) if train is None else train.position
        for segment in stored[:position]:
            self.add_segment(segment, window_kind)
        if train is not None:
            self._add_train(
                stored[position - len(train.steps):position], train,
                window_kind,
            )
            for segment in stored[position:]:
                self.add_segment(segment, window_kind)

    def _add_train(self, templates: list[Segment], train: _Train,
                   window_kind: str) -> None:
        """Fold a train's copies of ``templates`` (see
        :meth:`add_timeline`)."""
        rows = []
        for template, step in zip(templates, train.steps):
            totals = self._totals(template, window_kind)
            totals.segments += train.times
            rows.append((
                totals, step, template.dram_read_bw,
                template.dram_write_bw, template.edp_rate, template.apl,
            ))
        now = templates[-1].end
        for _ in range(train.times):
            for totals, step, read_bw, write_bw, edp_rate, apl in rows:
                end = now + step
                duration = end - now
                now = end
                totals.seconds += duration
                totals.dram_read_bytes += read_bw * duration
                totals.dram_write_bytes += write_bw * duration
                totals.edp_bytes += edp_rate * duration
                totals.apl_seconds += apl * duration

    def add_staged_bytes(self, segment: Segment, window_kind: str,
                         nbytes: float) -> None:
        """Add ``nbytes`` to both the DRAM read and write totals of
        ``segment``'s class, which must already hold it: the encoded
        stream a replayed window stages beyond its plan's (see
        ``WindowResult.staged_segment``)."""
        totals = self.buckets[SegmentClass.of(segment, window_kind)]
        totals.dram_read_bytes += nbytes
        totals.dram_write_bytes += nbytes

    def close_window(self, kind: str, duration: float,
                     covered: float) -> None:
        """Record one completed window: its kind, its planned duration
        (histogram), and the ``covered`` seconds its timeline spanned
        (advances ``end``)."""
        self.windows += 1
        self.window_counts[kind] = self.window_counts.get(kind, 0) + 1
        self.window_durations[duration] = (
            self.window_durations.get(duration, 0) + 1
        )
        self.end += covered

    def absorb(self, other: "TimelineSummary") -> None:
        """Fold another summary (e.g. a one-window digest) into
        this one; ``other``'s time extent is appended after ``end``."""
        for cls_key, totals in other.buckets.items():
            mine = self.buckets.setdefault(cls_key, ClassTotals())
            mine.add(totals)
        self.windows += other.windows
        for kind, count in other.window_counts.items():
            self.window_counts[kind] = (
                self.window_counts.get(kind, 0) + count
            )
        for duration, count in other.window_durations.items():
            self.window_durations[duration] = (
                self.window_durations.get(duration, 0) + count
            )
        self.end += other.end - other.start

    def absorb_scaled(self, other: "TimelineSummary",
                      count: int) -> None:
        """Fold ``count`` back-to-back copies of ``other`` in at once.

        The cadence walker replays one window digest for
        an entire plan-group in O(classes) work instead of ``count``
        :meth:`absorb` passes.  Totals scale linearly, so the result
        matches repeated absorption up to float re-association.
        """
        if count < 0:
            raise SimulationError("absorb count must be >= 0")
        if count == 0:
            return
        for cls_key, totals in other.buckets.items():
            mine = self.buckets.setdefault(cls_key, ClassTotals())
            mine.seconds += totals.seconds * count
            mine.segments += totals.segments * count
            mine.dram_read_bytes += totals.dram_read_bytes * count
            mine.dram_write_bytes += totals.dram_write_bytes * count
            mine.edp_bytes += totals.edp_bytes * count
            mine.apl_seconds += totals.apl_seconds * count
        self.windows += other.windows * count
        for kind, kind_count in other.window_counts.items():
            self.window_counts[kind] = (
                self.window_counts.get(kind, 0) + kind_count * count
            )
        for duration, dur_count in other.window_durations.items():
            self.window_durations[duration] = (
                self.window_durations.get(duration, 0)
                + dur_count * count
            )
        self.end += (other.end - other.start) * count

    @classmethod
    def from_timeline(
        cls, timeline: Timeline, window_kind: str = ""
    ) -> "TimelineSummary":
        """Summarise a materialized timeline exactly (same start/end)."""
        summary = cls(start=timeline.start, end=timeline.start)
        summary.add_timeline(timeline, window_kind)
        summary.end = timeline.end
        return summary

    @classmethod
    def window_digest(
        cls, timeline: Timeline, kind: str, duration: float
    ) -> "TimelineSummary":
        """A one-window digest suitable for :meth:`absorb` replay."""
        digest = cls()
        digest.add_timeline(timeline, kind)
        digest.close_window(kind, duration, timeline.duration)
        return digest

    def to_payload(self) -> dict:
        """The summary as a JSON-safe dictionary.

        Class buckets key by :meth:`SegmentClass.key_string` and window
        durations by ``repr(float)`` (shortest round-trip form), both
        sorted — two equal summaries serialize byte-identically, which
        is what lets ``repro obs diff`` compare a live-served run
        against its offline reference as artifacts.
        """
        return {
            "start": self.start,
            "end": self.end,
            "windows": self.windows,
            "window_counts": {
                kind: self.window_counts[kind]
                for kind in sorted(self.window_counts)
            },
            "window_durations": {
                repr(duration): self.window_durations[duration]
                for duration in sorted(self.window_durations)
            },
            "buckets": {
                key: {
                    "seconds": totals.seconds,
                    "segments": totals.segments,
                    "dram_read_bytes": totals.dram_read_bytes,
                    "dram_write_bytes": totals.dram_write_bytes,
                    "edp_bytes": totals.edp_bytes,
                    # Emitted only for content-aware runs so legacy
                    # artifacts stay byte-identical.
                    **(
                        {"apl_seconds": totals.apl_seconds}
                        if totals.apl_seconds else {}
                    ),
                }
                for key, totals in sorted(
                    (
                        (cls_key.key_string(), totals)
                        for cls_key, totals in self.buckets.items()
                    ),
                    key=lambda item: item[0],
                )
            },
        }

    def copy(self) -> "TimelineSummary":
        """An independent deep copy."""
        return TimelineSummary(
            start=self.start,
            end=self.end,
            windows=self.windows,
            window_counts=dict(self.window_counts),
            window_durations=dict(self.window_durations),
            buckets={
                cls_key: totals.copy()
                for cls_key, totals in self.buckets.items()
            },
        )

    # -- structure ------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Total covered time."""
        return self.end - self.start

    @property
    def segment_count(self) -> int:
        """Number of segments folded in."""
        return sum(t.segments for t in self.buckets.values())

    # -- residency accounting --------------------------------------------------

    def residencies(
        self, fold_prime: bool = True
    ) -> dict[PackageCState, float]:
        """Seconds per package C-state, mirroring
        :meth:`Timeline.residencies`."""
        seconds: dict[PackageCState, float] = {}
        for cls_key, totals in self.buckets.items():
            state = (
                cls_key.state.reporting_state if fold_prime
                else cls_key.state
            )
            seconds[state] = seconds.get(state, 0.0) + totals.seconds
        return seconds

    def residency_fractions(
        self, fold_prime: bool = True
    ) -> dict[PackageCState, float]:
        """Fraction of total time per package C-state."""
        total = self.duration
        if total <= 0:
            raise SimulationError(
                "residency fractions need a non-empty summary"
            )
        return {
            state: seconds / total
            for state, seconds in self.residencies(fold_prime).items()
        }

    def transition_time(self) -> float:
        """Total time spent inside entry/exit excursions."""
        return sum(
            totals.seconds
            for cls_key, totals in self.buckets.items()
            if cls_key.transition
        )

    def transition_count(self) -> int:
        """Number of entry/exit excursions."""
        return sum(
            totals.segments
            for cls_key, totals in self.buckets.items()
            if cls_key.transition
        )

    # -- traffic ---------------------------------------------------------------

    @property
    def dram_read_bytes(self) -> float:
        """Total bytes read from DRAM."""
        return sum(t.dram_read_bytes for t in self.buckets.values())

    @property
    def dram_write_bytes(self) -> float:
        """Total bytes written to DRAM."""
        return sum(t.dram_write_bytes for t in self.buckets.values())

    @property
    def dram_total_bytes(self) -> float:
        """Total DRAM traffic both directions."""
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def edp_bytes(self) -> float:
        """Total bytes moved over the eDP link."""
        return sum(t.edp_bytes for t in self.buckets.values())
