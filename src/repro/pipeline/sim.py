"""The frame-window simulator.

A :class:`DisplayScheme` plans one refresh window at a time: given the
window kind (new frame vs repeat), the frame's sizes, and any VR
projection work, it produces that window's package C-state timeline with
full datapath annotations.  The simulator walks the refresh cadence,
validates every window, and stitches the results into a run-level
timeline plus statistics — the input to the analytical power model.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import operator
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol, Sequence

import numpy as np

from ..config import SystemConfig
from ..display.timing import RefreshTiming, WindowKind, WindowPlan
from ..errors import ConfigurationError, DeadlineMissError, SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..soc.cstates import PackageCState
from ..video.source import FrameDescriptor, FrameSource, as_frame_source
from .timeline import PanelMode, Segment, Timeline, TimelineSummary

#: What a run keeps: the full per-segment timeline, or only the online
#: summary (O(1) memory for hours-long traces).
RETAIN_MODES = ("full", "summary")


def _stamp_content(
    result: "WindowResult", frame: "FrameDescriptor | None"
) -> "WindowResult":
    """Stamp the presented frame's content attributes onto a planned
    window.

    Schemes plan from frame sizes/type alone (see
    :class:`DisplayScheme`), so displayed-content attributes ride on
    the frame and are applied *after* planning: every displaying
    segment inherits the frame's APL, which content-aware power terms
    integrate through the summary's ``apl_seconds``.  Content-agnostic
    frames (no attributes, or APL 0) return the result unchanged —
    byte-identical to the historical pipeline.
    """
    attributes = frame.attributes if frame is not None else None
    if attributes is None or attributes.apl == 0.0:
        return result
    apl = attributes.apl

    def stamp(segment: Segment) -> Segment:
        if segment.panel_mode is not PanelMode.OFF and segment.apl != apl:
            return dataclasses.replace(segment, apl=apl)
        return segment

    return dataclasses.replace(
        result, timeline=result.timeline.map_segments(stamp)
    )


@dataclass(frozen=True)
class VrWork:
    """Per-frame VR projection work (paper Sec. 2.4, "Projection").

    The decoded 360-degree source frame (``source_bytes``) is larger than
    the panel frame; the GPU spends ``projection_s`` mapping the viewport
    onto the ``projected_bytes`` panel frame.
    """

    source_bytes: float
    projection_s: float
    projected_bytes: float

    def __post_init__(self) -> None:
        if self.source_bytes <= 0 or self.projected_bytes <= 0:
            raise SimulationError("VR frame sizes must be positive")
        if self.projection_s < 0:
            raise SimulationError("VR projection time must be >= 0")


@dataclass(frozen=True)
class WindowContext:
    """Everything a scheme needs to plan one refresh window."""

    config: SystemConfig
    window: WindowPlan
    #: The frame presented in this window (decoded/encoded sizes).
    frame: FrameDescriptor
    #: VR projection work, or None for planar video.
    vr: VrWork | None = None
    #: C-state the system is in when the window opens.
    initial_state: PackageCState = PackageCState.C0
    #: Override for the bytes shipped to the panel (used by schemes that
    #: decouple decode volume from display volume, e.g. batch decoding).
    display_bytes_override: float | None = None

    @property
    def display_bytes(self) -> float:
        """Bytes the DC must deliver to the panel this window: the
        projected frame for VR, the decoded frame for planar (capped at
        the panel's own frame size — a smaller video is upscaled by the
        DC at no extra DRAM cost in this model)."""
        if self.display_bytes_override is not None:
            return self.display_bytes_override
        if self.vr is not None:
            return self.vr.projected_bytes
        return min(
            self.frame.decoded_bytes, float(self.config.panel.frame_bytes)
        )


@dataclass
class WindowResult:
    """One planned window."""

    timeline: Timeline
    deadline_missed: bool = False
    vd_wakes: int = 0
    used_psr: bool = False
    bypassed_dram: bool = False
    burst: bool = False
    #: Index of the one segment that stages the frame's encoded stream:
    #: ``encoded_bytes`` enters it as equal DRAM reads and writes, and
    #: enters nothing else of the plan.  ``None`` when no segment does.
    staged_segment: int | None = None


def frame_content(frame: FrameDescriptor) -> tuple:
    """Everything a plan may read from ``frame``: its type, sizes and
    content attributes (never its stream index)."""
    return (frame.frame_type, frame.encoded_bytes, frame.decoded_bytes,
            frame.attributes)


def _content_reads(frame: FrameDescriptor) -> tuple[tuple, tuple]:
    """The ``plan_reads`` of a scheme that declares none: both keys are
    the whole :func:`frame_content`."""
    content = frame_content(frame)
    return content, content


def staged_stream_reads(frame: FrameDescriptor) -> tuple[tuple, object]:
    """The ``plan_reads`` of a scheme whose plans stage the encoded
    stream (see :class:`DisplayScheme`): new-frame windows read the
    decoded size and content attributes, and ``encoded_bytes`` only
    through the staged segment; repeat windows read the attributes
    alone (``_stamp_content`` stamps their APL)."""
    attributes = frame.attributes
    return (frame.decoded_bytes, attributes), attributes


class DisplayScheme(Protocol):
    """The strategy interface every display scheme implements.

    Contract relied on by the cadence walker's plan groups: a scheme
    plans from the frame's *content* (``frame_type``, byte sizes and
    attributes) and the window's kind/duration/entry state — never from
    the frame's stream position.  A scheme whose plan legitimately
    depends on position (e.g. Zhang's batch cadence) declares exactly
    which function of the index matters via ``frame_phase(frame_index)``;
    a phase of ``None`` says the index never matters.  A plan never sees
    absolute time either: the walker hands every window over starting
    at ``0.0``, so one plan is the same segment list wherever in the
    stream it is made.

    A scheme may narrow what of the frame its plan-group key holds with
    ``plan_reads(frame) -> (new-frame key, repeat key)``.  Without it
    both keys are the whole :func:`frame_content`.  A key may leave out
    ``encoded_bytes`` only if the new-frame plan reads it solely as
    equal DRAM reads and writes on the segment it names in
    :attr:`WindowResult.staged_segment`: windows then share one plan
    per decoded size, and the fold adds each window's own encoded bytes
    to that segment's class (:func:`staged_stream_reads`).
    """

    name: str

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window; the returned timeline must span
        exactly ``0`` to ``ctx.window.duration``."""
        ...  # pragma: no cover - protocol


@dataclass
class RunStats:
    """Aggregate statistics over a simulated run."""

    windows: int = 0
    new_frame_windows: int = 0
    repeat_windows: int = 0
    deadline_misses: int = 0
    vd_wakes: int = 0
    psr_windows: int = 0
    bypassed_windows: int = 0
    burst_windows: int = 0


@dataclass
class RunResult:
    """A complete simulated run: timeline and/or summary, stats, and
    identity.

    ``timeline`` is ``None`` for ``retain="summary"`` runs; ``summary``
    is always populated by the simulator, and it is what
    :meth:`repro.power.model.PowerModel.report` prices in either mode.
    Aggregate accessors (duration, residencies, byte totals) read
    whichever representation is present, so downstream consumers need
    not care about the retain mode.
    """

    scheme: str
    config: SystemConfig
    timeline: Timeline | None
    stats: RunStats
    video_fps: float
    #: Online aggregation of the run (always built by the simulator).
    summary: TimelineSummary | None = None
    #: Content hash of the run's full input descriptor (config, scheme
    #: identity + state, frames, cadence); ``None`` when the inputs were
    #: not fingerprintable.  Set by the simulator; memo layers key on it.
    cache_key: str | None = field(default=None, compare=False)

    @property
    def aggregate(self) -> "Timeline | TimelineSummary":
        """Whichever run-level aggregate is retained (the full timeline
        when present, else the online summary)."""
        if self.timeline is not None:
            return self.timeline
        if self.summary is not None:
            return self.summary
        raise SimulationError(
            "run retains neither a timeline nor a summary"
        )

    @property
    def duration(self) -> float:
        """Simulated wall-clock seconds."""
        return self.aggregate.duration

    @property
    def effective_fps(self) -> float:
        """Frames presented *on time* per second: new-frame windows
        minus deadline misses, over the run duration — the jank-aware
        quality-of-service figure."""
        if self.duration <= 0:
            raise SimulationError("run covers no time")
        on_time = max(
            0, self.stats.new_frame_windows - self.stats.deadline_misses
        )
        return on_time / self.duration

    def residency_fractions(self) -> dict[PackageCState, float]:
        """Package C-state residency over the whole run."""
        return self.aggregate.residency_fractions()

    @property
    def dram_read_bytes(self) -> float:
        """Total bytes read from DRAM."""
        return self.aggregate.dram_read_bytes

    @property
    def dram_write_bytes(self) -> float:
        """Total bytes written to DRAM."""
        return self.aggregate.dram_write_bytes

    @property
    def dram_total_bytes(self) -> float:
        """Total DRAM traffic both directions."""
        return self.aggregate.dram_total_bytes

    @property
    def edp_bytes(self) -> float:
        """Total bytes moved over the eDP link."""
        return self.aggregate.edp_bytes


# ---------------------------------------------------------------------------
# Run fingerprints and the memoization hook
# ---------------------------------------------------------------------------


#: Fixed-width parts of the fingerprint encoding.
_LENGTH = struct.Struct("<Q")
_DOUBLE = struct.Struct("<d")


@functools.lru_cache(maxsize=4096)
def _text(text: str) -> bytes:
    """A length-prefixed UTF-8 string (cached: names and small values
    repeat across every descriptor)."""
    data = text.encode("utf-8", "surrogatepass")
    return _LENGTH.pack(len(data)) + data


@functools.lru_cache(maxsize=1024)
def _header(tag: bytes, qualname: str, names: tuple[str, ...]) -> bytes:
    """The tag, qualname and sorted attribute names that open an
    object or a column group (cached: one per class in practice)."""
    return (
        tag + _text(qualname) + _LENGTH.pack(len(names))
        + b"".join(map(_text, names))
    )


def _digest(value: Any) -> bytes:
    """The SHA-256 digest of ``value``'s encoding (orders set items and
    dict keys independently of hash seeds)."""
    digest = hashlib.sha256()
    _feed(value, digest.update)
    return digest.digest()


def _feed(value: Any, update: Callable[[bytes], Any]) -> None:
    """Stream a canonical, type-tagged, length-prefixed encoding of
    ``value`` into ``update``.

    Covers everything a run descriptor contains: ``None``, bools, ints,
    floats (their 8 IEEE-754 bytes, exact), strings, enums (qualname
    and member name), lists and tuples (one kind, see
    :func:`_feed_sequence`), dicts (items in key-digest order), sets
    (sorted item digests), numpy scalars (through ``.item()``), and
    dataclasses and plain objects (qualname, then each attribute by
    sorted name).  Raises ``TypeError`` for anything else, which
    callers treat as "not cacheable".
    """
    if value is None:
        update(b"N")
    elif isinstance(value, enum.Enum):
        update(b"e" + _text(type(value).__qualname__) + _text(value.name))
    elif isinstance(value, bool):
        update(b"T" if value else b"F")
    elif isinstance(value, int):
        update(b"i" + _text(str(value)))
    elif isinstance(value, float):
        update(b"f" + _DOUBLE.pack(value))
    elif isinstance(value, str):
        update(b"s" + _text(value))
    elif isinstance(value, (list, tuple)):
        _feed_sequence(value, update)
    elif isinstance(value, dict):
        update(b"m" + _LENGTH.pack(len(value)))
        for key in sorted(value, key=_digest):
            _feed(key, update)
            _feed(value[key], update)
    elif isinstance(value, (set, frozenset)):
        update(
            b"S" + _LENGTH.pack(len(value))
            + b"".join(sorted(map(_digest, value)))
        )
    elif isinstance(value, np.generic):
        _feed(value.item(), update)
    elif (
        dataclasses.is_dataclass(value) and not isinstance(value, type)
    ) or (hasattr(value, "__dict__") and not callable(value)):
        attrs = (
            vars(value) if hasattr(value, "__dict__")
            # A slotted dataclass (e.g. Segment) holds exactly its fields.
            else {
                f.name: getattr(value, f.name)
                for f in dataclasses.fields(value)
            }
        )
        names = tuple(sorted(attrs))
        update(_header(b"o", type(value).__qualname__, names))
        for name in names:
            _feed(attrs[name], update)
    else:
        raise TypeError(f"cannot fingerprint {type(value).__qualname__}")


def _feed_sequence(
    items: "list[Any] | tuple[Any, ...]", update: Callable[[bytes], Any]
) -> None:
    """Stream a list or tuple: its length, then one of several tagged
    forms chosen from the items' exact type.

    Items of one exact type take a packed form: floats, int64-range
    ints and bools as one ``struct`` buffer, enum members as their
    joined names, all-``None`` as one tag.  Dataclass instances of one
    type and field set go column by column, each column fed as a
    sequence, so a frame list hashes at C speed.  Anything else (mixed
    types, a subclass among its base, an int beyond int64) is fed item
    by item.  Each form has its own tag, so no two inputs share an
    encoding.
    """
    count = len(items)
    update(b"l" + _LENGTH.pack(count))
    kinds = set(map(type, items))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float:
            update(b"F" + struct.pack(f"<{count}d", *items))
            return
        if kind is bool:
            update(b"B" + bytes(items))
            return
        if kind is int:
            try:
                packed = struct.pack(f"<{count}q", *items)
            except struct.error:
                pass  # beyond int64: fed item by item below
            else:
                update(b"I" + packed)
                return
        elif kind is type(None):
            update(b"n")
            return
        elif issubclass(kind, enum.Enum):
            update(
                b"E" + _text(kind.__qualname__)
                # ``_name_`` is the member name, read without the
                # ``name`` property's descriptor call.
                + _text("\0".join(map(operator.attrgetter("_name_"), items)))
            )
            return
        elif dataclasses.is_dataclass(kind):
            if hasattr(items[0], "__dict__"):
                names = items[0].__dict__.keys()
                uniform = all(vars(item).keys() == names for item in items)
            else:
                names = [f.name for f in dataclasses.fields(kind)]
                uniform = True
            if uniform:
                names = tuple(sorted(names))
                update(_header(b"c", kind.__qualname__, names))
                for name in names:
                    _feed_sequence(
                        list(map(operator.attrgetter(name), items)), update
                    )
                return
    update(b"x")
    for item in items:
        _feed(item, update)


def run_fingerprint(
    config: SystemConfig,
    scheme: DisplayScheme,
    frames: "FrameSource | Sequence[FrameDescriptor]",
    video_fps: float,
    vr_work: list[VrWork] | None = None,
    max_windows: int | None = None,
    retain: str = "summary",
) -> str | None:
    """A stable content hash identifying one simulator run, or ``None``
    when some input has no canonical encoding (such runs simply
    bypass any installed memo).

    ``frames`` may be a materialized list or any :class:`FrameSource`;
    sources are fingerprinted through their ``fingerprint_token`` (O(1)
    for generated streams).  ``retain`` is part of the key so a
    summary-only cached run never serves a full-timeline caller.
    Trace state is deliberately *not* part of the key: a traced run
    (every window planned fresh) has the same stats and summary as an
    untraced one, so both may share the memo.
    """
    if isinstance(frames, (list, tuple)):
        frames_token: Any = ("frames/list", frames)
    else:
        token = getattr(frames, "fingerprint_token", None)
        if token is None:
            return None
        try:
            frames_token = token()
        except TypeError:
            return None
    digest = hashlib.sha256()
    try:
        _feed(
            (
                "run/v3",
                config,
                type(scheme).__qualname__,
                scheme,
                frames_token,
                float(video_fps),
                vr_work,
                max_windows,
                retain,
            ),
            digest.update,
        )
    except TypeError:
        return None
    return digest.hexdigest()


class RunMemo(Protocol):
    """Anything that can memoize simulator runs by fingerprint."""

    def load(self, key: str) -> "RunResult | None":
        """A previously stored run for ``key``, or ``None``."""
        ...  # pragma: no cover - protocol

    def store(self, key: str, run: "RunResult") -> None:
        """Record a freshly simulated run under ``key``."""
        ...  # pragma: no cover - protocol


#: The process-wide run memo (installed by ``repro.analysis.runner``;
#: ``None`` means every run simulates from scratch).
_active_memo: RunMemo | None = None


def install_run_memo(memo: RunMemo | None) -> RunMemo | None:
    """Install ``memo`` as the process-wide simulator memo; returns the
    previously installed one (pass ``None`` to disable memoization)."""
    global _active_memo
    previous = _active_memo
    _active_memo = memo
    return previous


def active_run_memo() -> RunMemo | None:
    """The currently installed run memo, if any."""
    return _active_memo


@dataclass(eq=False)
class PlanGroup:
    """One distinct window plan in a run, with the windows it covers.

    The cadence walker files every window under a group keyed by
    ``(plan_key, kind, what the plan reads of the frame, VR work, entry
    state)`` (see :class:`DisplayScheme`); the end-of-run fold prices
    each group once, scaled by ``count``, and adds ``staged_delta`` to
    the staged segment's class.  Groups hash by identity, so per-group
    memos (the serve plane's pricer) key on the object itself.
    """

    result: WindowResult
    final_state: PackageCState
    #: The window kind the group files under: a clamped cadence
    #: new-frame window re-presents the last frame and is a repeat.
    effective_kind: str
    #: The frame the group's plan was made from.
    frame: FrameDescriptor
    #: False when planning mutated the scheme's ``plan_key()`` (or the
    #: scheme has none) — such plans are single-use and never replayed.
    stored: bool = False
    count: int = 0
    #: Sum over the group's new-frame windows of their frame's
    #: ``encoded_bytes`` minus ``frame.encoded_bytes`` (exactly 0.0
    #: when the key holds the encoded size); it counts only when the
    #: plan stages the stream.
    staged_delta: float = 0.0

    def staged_bytes(self, frame: FrameDescriptor) -> float:
        """The encoded bytes a window presenting ``frame`` stages on
        top of the group's plan: zero unless the plan stages the
        stream."""
        if self.result.staged_segment is None:
            return 0.0
        return frame.encoded_bytes - self.frame.encoded_bytes

    @property
    def effective_new(self) -> bool:
        """Whether the group's windows count as new-frame windows."""
        return self.effective_kind == "new_frame"


def _own_windows(step: float, limit: int) -> bool:
    """Whether every frame shown by window ``limit`` provably gets a
    window of its own at ``step`` frames per window.

    True at exactly one frame per window.  Below it, the shown frames
    of two neighbouring windows differ by ``step`` plus the rounding
    of both ``step * i + 1e-9``, at most ``(step * limit + 1) / 2**51``
    in all; while ``1 - step`` is twice that, no window skips a frame.
    A rate a hair over the refresh rate may skip frames.
    """
    return step == 1.0 or (
        step < 1.0 and (1.0 - step) * 2.0**50 > step * limit + 1.0
    )


def _block_end(
    timing: RefreshTiming,
    limit: int,
    frame_end: int,
    frame: int,
) -> tuple[int, tuple[int, int]]:
    """How far a block of steady updates reaches from the update that
    first shows ``frame``, in closed form.

    An update fits the block when its frame is below ``frame_end`` and
    the next update starts by window ``limit``.  Returns how many
    updates fit in a row and the last of them as ``(window, frame)``.
    Needs the update showing ``frame`` to fit and every frame up to
    window ``limit`` to have its own window (:func:`_own_windows`):
    update ``j`` then shows ``frame + j``, and as the shown frame is
    monotone in the window, its successor starts by ``limit`` exactly
    when ``limit`` shows frame ``frame + j + 1``.
    """
    updates = min(timing.shown(limit), frame_end) - frame
    last = frame + updates - 1
    return updates, (timing.first_window(last), last)


class _RunCursor:
    """The walker's place in a source with index access (``content_run``
    and ``__getitem__``).  Frames are pulled by index, so the walker
    skips a block of frames by moving :attr:`index`, and builds no
    descriptor for frames that share the last pulled one's content."""

    __slots__ = ("source", "index", "run_end")

    def __init__(self, source: FrameSource) -> None:
        self.source = source
        #: The next frame to pull.
        self.index = 0
        #: Frames below this index share the last pulled frame's content.
        self.run_end = 0

    def pull(self) -> FrameDescriptor | None:
        """The next frame, or ``None`` when the source has run dry."""
        found = self.source.content_run(self.index)
        if found is None:
            return None
        frame, run = found
        self.run_end = self.index + run
        self.index += 1
        return frame

    def alike_end(
        self,
        reads_fn: Callable[[FrameDescriptor], tuple],
        reads: tuple,
        stop: int,
    ) -> int:
        """The first frame from :attr:`index` on, and at most ``stop``,
        whose ``reads_fn`` differs from ``reads``, the last pulled
        frame's; frames of its content are not looked at."""
        end = self.run_end
        if end >= stop:
            return stop
        for frame_reads in map(reads_fn, self.source[end:stop]):
            if frame_reads != reads:
                break
            end += 1
        return end

    def add_staged(
        self, group: PlanGroup, last: FrameDescriptor, stop: int
    ) -> None:
        """Add to ``group.staged_delta`` what the windows showing frames
        :attr:`index` to ``stop`` stage beyond its planned frame, one
        frame at a time in frame order, as walking them would.  Frames
        of ``last``'s content add exactly ``0.0`` when ``last`` stages
        the planned bytes, and are skipped."""
        planned = group.frame.encoded_bytes
        start = self.index
        if last.encoded_bytes == planned:
            start = max(start, self.run_end)
        delta = group.staged_delta
        for frame in self.source[start:stop]:
            delta += frame.encoded_bytes - planned
        group.staged_delta = delta


class _CadenceWalker:
    """The simulator's one cadence walker.

    Walks refresh windows in order, pulling at most one frame per
    new-frame window (an exhausted stream clamps to its last frame, and
    such windows count as repeats), and files each window under its
    :class:`PlanGroup`.  It steps from one update to the next in closed
    form (:meth:`RefreshTiming.first_window`).  With the memo on —
    untraced, and the scheme exposes ``plan_key()`` — a window whose
    group already exists replays it without planning, and a repeat
    run that re-enters its own entry state is accounted in O(1).  A
    summary run of a source with index access (:class:`_RunCursor`),
    without VR work or a streaming observer, goes further once its updates reach a fixed
    point: when the new-frame group re-enters its own entry state and
    its frame phase is ``None``, and the repeat group at that state
    re-enters it too (or the cadence has no repeat windows), a block of
    ``K`` updates whose frames plan alike (same ``plan_reads``) ending
    at window ``first[K]`` adds ``K`` windows to the new-frame group
    and ``first[K] - first[0] - K`` to the repeat group, where
    ``first`` is the window at which each update shows.  The block's
    end is found in closed form (:func:`_block_end`) at rates that
    give every frame its own window (:func:`_own_windows`); other
    rates walk update by update.  All but the block's last update are
    accounted that way, and each adds its own frame's staged bytes to
    the new-frame group one at a time, in frame order, as walking it
    would; frames that share the last pulled frame's content add
    exactly nothing and are not built.  The last update is walked as
    usual, so the walk ends on a real descriptor.  A run then costs per
    change of plan, not per update.  With the memo off every
    window is planned fresh, in window order, and an active tracer sees
    a ``sim.window`` span per window; accounting still goes through the
    same groups, so the run's stats and summary do not depend on the
    memo.  Every window is planned from time zero; a window's place in
    time is added only where a timeline leaves the walker (a full
    run's retained segments and trace events).  A full-retention run replays a
    timeline only for windows presenting the very frame content it was
    planned from, and plans the others fresh, so its segments do not
    depend on how widely ``plan_reads`` lets windows share a group, and
    its summary counts the same segments as a summary run's.

    :meth:`walk` advances to a window bound and may be called again
    with a larger one (the streaming front end does); :meth:`finish`
    folds the groups into the run's stats and summary.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: DisplayScheme,
        video_fps: float,
        pull: Callable[[], FrameDescriptor | None],
        *,
        vr_work: Iterator[VrWork] | None = None,
        max_windows: int | None = None,
        retain_full: bool = False,
        records: list | None = None,
        runs: _RunCursor | None = None,
    ) -> None:
        if max_windows is not None and max_windows < 1:
            raise ConfigurationError(
                f"max_windows must be >= 1, got {max_windows!r}"
            )
        self.config = config
        self.scheme = scheme
        self.video_fps = video_fps
        self.timing = RefreshTiming(config.panel.refresh_hz, video_fps)
        self.duration = self.timing.frame_window
        #: The next frame of the stream, or ``None`` when it has run dry.
        self.pull = pull
        #: The cursor behind ``pull`` when the source has index access,
        #: which lets :meth:`walk` account blocks.
        self.runs = runs
        self.vr_iter = vr_work
        self.retain_full = retain_full
        #: When set, every accounted run of windows is appended as
        #: ``(first index, count, frame index, frame, group, replayed)``.
        self.records = records
        self.tracer = obs_trace.active()
        self.keyed = getattr(scheme, "plan_key", None) is not None
        self.memo = self.tracer is None and self.keyed
        self.plan_key = scheme.plan_key() if self.keyed else None
        self.phase_fn = getattr(scheme, "frame_phase", None)
        self.reads_fn = getattr(scheme, "plan_reads", None) or _content_reads

        #: Next window to walk.
        self.index = 0
        #: Where :meth:`walk` resumes: entry state, next new-frame
        #: window and its frame index, current frame and VR work, frames
        #: pulled, current frame index, repeat windows' frame key.
        self._cursor: tuple = (
            PackageCState.C0, 0, 0, None, None, 0, 0, None,
        )
        self.groups: dict[tuple, PlanGroup] = {}
        #: Full retention: ``(group, frame content)`` -> the timeline
        #: first planned for that content.
        self.timeline_plans: dict[tuple, Timeline] = {}
        #: Groups awaiting the end-of-run fold, in first-use order.
        self.order: list[PlanGroup] = []
        #: Full retention: every window's segments, placed at its start.
        self.segments: list[Segment] = []
        self.stats = RunStats()
        self.summary = TimelineSummary()
        self.fresh_plans = 0
        self.group_sizes = obs_metrics.registry().histogram(
            "sim.batch.group_windows",
            "windows per plan group",
        )

    # -- walking ------------------------------------------------------------

    def walk(self, limit: int) -> None:
        """Advance the cadence up to (not including) window ``limit``.

        Each pass of the loop accounts one window to its group — or, on
        a steady repeat run with the memo on, every window up to the
        next new-frame window at once.  Where the source has index
        access (:class:`_RunCursor`) and the run's windows would all
        replay, updates at their fixed point whose frames plan alike
        are accounted as one block (see :class:`_CadenceWalker`).  The
        walk's state lives in locals and is saved in ``_cursor`` on the
        way out.
        """
        runs = self.runs
        timing = self.timing
        step = timing.video_fps / timing.refresh_hz
        blocks = (
            runs is not None and self.memo and self.records is None
            and not self.retain_full and self.vr_iter is None
            and _own_windows(step, limit)
        )
        # At one frame per window a block holds no repeat window.
        every_window_new = step == 1.0
        # The frame window ``limit`` shows: an update's successor starts
        # by ``limit`` exactly when its frame is below this one.
        limit_frame = timing.shown(limit)
        # The new-frame group of the last update when it is at its
        # fixed point: replayable, re-entering its own entry state and
        # index-free.
        steady: PlanGroup | None = None
        groups = self.groups
        timeline_plans = self.timeline_plans
        order = self.order
        records = self.records
        replay = self.memo
        retain_full = self.retain_full
        duration = self.duration
        pull = self.pull
        vr_iter = self.vr_iter
        phase_fn = self.phase_fn
        reads_fn = self.reads_fn
        plan_key = self.plan_key
        index = self.index
        (state, next_new, next_frame, frame, vr, pulled, frame_index,
         repeat_reads) = self._cursor
        while index < limit:
            if index == next_new:
                frame_index = next_frame
                if (
                    steady is not None
                    and steady.final_state is state
                    and frame_index < limit_frame
                ):
                    repeat = groups.get((
                        plan_key, WindowKind.REPEAT, "repeat", None,
                        repeat_reads, None, state,
                    ))
                    if every_window_new or (
                        repeat is not None and repeat.final_state is state
                    ):
                        # The block's frames plan like the last one.
                        frame_end = runs.alike_end(
                            reads_fn, reads_fn(frame), limit_frame
                        )
                        updates, last = _block_end(
                            timing, limit, frame_end, frame_index
                        )
                        if updates > 1:
                            # Every update but the last replays the
                            # same two groups: account them at once and
                            # walk the last one as usual.
                            skipped = updates - 1
                            runs.add_staged(
                                steady, frame, frame_index + skipped
                            )
                            steady.count += skipped
                            if repeat is not None:
                                repeat.count += last[0] - index - skipped
                            index, frame_index = last
                            runs.index = pulled = frame_index
                # The next update: the first window showing a later
                # frame, and the frame it shows.
                next_new = timing.first_window(frame_index + 1)
                next_frame = timing.shown(next_new)
                while pulled <= frame_index:
                    pulled_frame = pull()
                    if pulled_frame is None:
                        break  # the stream ran dry: clamp
                    frame = pulled_frame
                    if vr_iter is not None:
                        vr = next(vr_iter, None)
                        if vr is None:
                            raise SimulationError(
                                "vr_work exhausted before frames "
                                f"(frame {pulled})"
                            )
                    pulled += 1
                if frame is None:
                    raise SimulationError(
                        "cannot simulate an empty frame list"
                    )
                # Key on what the plans read of the frame's *content*:
                # sources may re-issue the same frame under fresh indices
                # (e.g. ambient redraws), and schemes plan from content
                # alone (see DisplayScheme).
                reads, repeat_reads = reads_fn(frame)
                encoded = frame.encoded_bytes
                kind = WindowKind.NEW_FRAME
                effective_kind = (
                    "new_frame" if frame_index < pulled else "repeat"
                )
                phase = (phase_fn(frame_index) if phase_fn is not None
                         else frame_index)
                stop = index + 1
            else:
                kind = WindowKind.REPEAT
                effective_kind = "repeat"
                phase = None
                reads = repeat_reads
                encoded = None
                stop = next_new if next_new < limit else limit
            wkey = (plan_key, kind, effective_kind, phase, reads, vr, state)
            group = groups.get(wkey)
            result = None
            planned = group
            if retain_full:
                # A full timeline replays only a plan of the very content
                # it presents, so its segments are the same however
                # widely ``plan_reads`` lets windows share a group.
                content = frame_content(frame)
                if group is not None:
                    planned = timeline_plans.get((group, content))
            if planned is None or not replay:
                result, group = self._plan(
                    index, frame_index, frame, pulled - 1, wkey, group
                )
                plan_key = self.plan_key
                if not group.stored:
                    # The plan moved the scheme's key: later updates
                    # file under other groups.
                    steady = None
                if retain_full and group.stored:
                    timeline_plans[group, content] = result.timeline
            if encoded is not None:
                group.staged_delta += encoded - group.frame.encoded_bytes
                if blocks:
                    steady = group if (
                        group.stored
                        and group.final_state is state
                        and phase is None
                        and effective_kind == "new_frame"
                    ) else None
            count = 1
            if result is not None:
                state = result.timeline.final_state
            else:
                if not retain_full and group.final_state is state:
                    # Steady state: the window re-enters its own entry
                    # state, so every window up to ``stop`` is this same
                    # plan — account them all at once.
                    count = stop - index
                state = group.final_state
            if retain_full:
                # Plans span their window from time zero; the retained
                # segments are placed at the window's start.
                offset = index * duration
                self.segments.extend(
                    segment.shifted(offset)
                    for segment in (planned if result is None
                                    else result.timeline)
                )
            group.count += count
            if records is not None:
                records.append(
                    (index, count, frame_index, frame, group,
                     result is None)
                )
            index += count
            if not group.stored and len(order) == 1:
                # A single-use group ahead of every replayable one folds
                # now, in the order the end-of-run fold would take — runs
                # that never replay stay O(1) in memory.
                self._fold(order.pop())
        self.index = index
        self._cursor = (state, next_new, next_frame, frame, vr, pulled,
                        frame_index, repeat_reads)

    def _plan(
        self,
        index: int,
        frame_index: int,
        frame: FrameDescriptor,
        frame_label: int,
        wkey: tuple,
        group: PlanGroup | None,
    ) -> tuple[WindowResult, PlanGroup]:
        """Plan window ``index``, opening ``wkey``'s group when
        ``group`` is None.  Returns the fresh result and the window's
        group."""
        scheme = self.scheme
        strict = self.config.strict_deadlines
        _, kind, effective_kind, _, _, vr, state = wkey
        plan = WindowPlan(
            index=index,
            start=0.0,
            duration=self.duration,
            kind=kind,
            frame_index=frame_index,
        )
        result = _stamp_content(
            scheme.plan_window(
                WindowContext(
                    config=self.config,
                    window=plan,
                    frame=frame,
                    vr=vr,
                    initial_state=state,
                )
            ),
            frame,
        )
        timeline = result.timeline
        if not timeline:
            raise SimulationError(f"{scheme.name}: window {index} is empty")
        if abs(timeline.duration - plan.duration) > 1e-7:
            raise SimulationError(
                f"{scheme.name}: window {index} covers "
                f"{timeline.duration:.6f}s, expected {plan.duration:.6f}s"
            )
        if result.deadline_missed and strict:
            raise DeadlineMissError(
                f"{scheme.name}: window {index} missed its deadline"
            )
        self.fresh_plans += 1
        final_state = timeline.final_state
        tracer = self.tracer
        if tracer is not None:
            # Planning emits no events, so opening the span once the
            # plan has passed its checks leaves no span open on error.
            # Events carry absolute time: the window's start plus the
            # plan's own time.
            start = index * self.duration
            span = tracer.begin_span(
                "sim.window",
                t=start,
                index=index,
                kind=kind.value,
                frame=frame_label,
                initial_state=state,
            )
            for segment in timeline:
                tracer.event(
                    "sim.segment",
                    t=start + segment.start,
                    state=segment.state,
                    duration=segment.duration,
                    label=segment.label,
                    transition=segment.transition,
                )
            tracer.end_span(
                span,
                t=start + plan.end,
                deadline_missed=result.deadline_missed,
                vd_wakes=result.vd_wakes,
                used_psr=result.used_psr,
                bypassed_dram=result.bypassed_dram,
                burst=result.burst,
                final_state=final_state,
            )
        if group is None:
            group = PlanGroup(
                result=result,
                final_state=final_state,
                effective_kind=effective_kind,
                frame=frame,
            )
            self.order.append(group)
            post_key = scheme.plan_key() if self.keyed else None
            if self.keyed and post_key == self.plan_key:
                # Planning left the scheme's state untouched, so the
                # plan is safe to replay anywhere in the run.
                group.stored = True
                self.groups[wkey] = group
            else:
                self.plan_key = post_key
        return result, group

    # -- finishing ----------------------------------------------------------

    def _fold(self, group: PlanGroup) -> None:
        """Fold one group's windows into the run's stats and summary."""
        count = group.count
        result = group.result
        stats = self.stats
        stats.windows += count
        if group.effective_new:
            stats.new_frame_windows += count
        else:
            stats.repeat_windows += count
        stats.deadline_misses += count * int(result.deadline_missed)
        stats.vd_wakes += count * result.vd_wakes
        stats.psr_windows += count * int(result.used_psr)
        stats.bypassed_windows += count * int(result.bypassed_dram)
        stats.burst_windows += count * int(result.burst)
        summary = self.summary
        if count == 1:
            # Unique window: fold its segments straight into the run
            # summary — one pass, no digest.
            timeline = result.timeline
            kind = group.effective_kind
            summary.add_timeline(timeline, kind)
            summary.close_window(kind, self.duration, timeline.duration)
        else:
            # Replayed plan: one digest scaled by the count.  Folding
            # count == 1 this way too would re-associate the sums.
            summary.absorb_scaled(
                TimelineSummary.window_digest(
                    result.timeline, group.effective_kind, self.duration
                ),
                count,
            )
            if group.staged_delta and result.staged_segment is not None:
                # The windows staged their own frames' encoded bytes,
                # not the planned frame's.
                summary.add_staged_bytes(
                    result.timeline[result.staged_segment],
                    group.effective_kind,
                    group.staged_delta,
                )
        self.group_sizes.observe(count)

    def finish(self, cache_key: str | None = None) -> RunResult:
        """Fold every group and publish the run-level counters."""
        for group in self.order:
            self._fold(group)
        timeline = None
        if self.retain_full:
            # Every plan spans its window from time zero, so a plan is
            # the same segment list whichever window made it, and the
            # summary already counts exactly these segments.
            timeline = Timeline(self.segments)
        stats = self.stats
        run = RunResult(
            scheme=self.scheme.name,
            config=self.config,
            timeline=timeline,
            stats=stats,
            video_fps=self.video_fps,
            summary=self.summary,
            cache_key=cache_key,
        )
        registry = obs_metrics.registry()
        registry.histogram(
            "sim.window_s", "planned refresh-window durations (s)",
            buckets=obs_metrics.LATENCY_BUCKETS,
        ).observe_many(self.duration, stats.windows)
        registry.counter(
            "sim.runs", "simulator runs completed (cache misses only)"
        ).inc()
        registry.counter(
            "sim.windows", "refresh windows planned"
        ).inc(stats.windows)
        registry.counter(
            "sim.deadline_misses", "windows that missed their deadline"
        ).inc(stats.deadline_misses)
        registry.counter(
            "sim.collapse.hit",
            "windows replayed from an earlier plan of the run",
        ).inc(stats.windows - self.fresh_plans)
        registry.counter(
            "sim.collapse.miss", "windows planned fresh"
        ).inc(self.fresh_plans)
        return run


@dataclass
class FrameWindowSimulator:
    """Walks the refresh cadence and applies a scheme window by window."""

    config: SystemConfig
    scheme: DisplayScheme

    def run(
        self,
        frames: "FrameSource | Sequence[FrameDescriptor]",
        video_fps: float,
        vr_work: list[VrWork] | None = None,
        max_windows: int | None = None,
        retain: str = "summary",
    ) -> RunResult:
        """Simulate displaying ``frames`` at ``video_fps``.

        ``frames`` may be a materialized list or any
        :class:`~repro.video.source.FrameSource`; the simulator pulls at
        most one frame per new-frame window, so streaming sources run in
        O(1) frame memory.  ``vr_work`` (parallel to ``frames``) marks a
        VR run.  The run covers every window needed to present all
        frames, or ``max_windows`` (at least 1) if given — mandatory for
        length-less sources.

        ``retain`` selects what the result keeps: ``"summary"`` (only
        the online :class:`TimelineSummary`, which every report prices)
        or ``"full"`` (the per-segment timeline as well, for callers
        that draw or export individual segments).

        Windows are grouped by ``(plan_key, kind, what the plan reads of
        the frame, VR work, entry state)`` and each distinct plan is
        priced once (see :class:`_CadenceWalker`).  A scheme that
        stages the encoded stream (``plan_reads``, see
        :class:`DisplayScheme`) plans a unique-frame clip as a handful
        of groups, one per decoded size and entry state, and each
        window's own encoded bytes are added to its group's staged
        segment.  While a tracer is active every window is planned
        fresh and traced; the stats and summary are the same either
        way.  ``"full"`` timelines replay a plan only for windows of
        the frame content it was made from, so they do not depend on
        ``plan_reads``.
        """
        if retain not in RETAIN_MODES:
            raise SimulationError(f"unknown retain mode {retain!r}")
        source = as_frame_source(frames)
        try:
            frame_count: int | None = len(source)  # type: ignore[arg-type]
        except TypeError:
            frame_count = None
        if frame_count == 0:
            raise SimulationError("cannot simulate an empty frame list")
        if (
            vr_work is not None
            and frame_count is not None
            and len(vr_work) != frame_count
        ):
            raise SimulationError(
                "vr_work must parallel frames "
                f"({len(vr_work)} vs {frame_count})"
            )
        memo = _active_memo
        key = None
        if memo is not None:
            key = run_fingerprint(
                self.config, self.scheme, source, video_fps,
                vr_work=vr_work, max_windows=max_windows,
                retain=retain,
            )
            if key is not None:
                cached = memo.load(key)
                if cached is not None:
                    return cached
        if getattr(source, "content_run", None) is not None:
            runs = _RunCursor(source)
            pull = runs.pull
        else:
            runs = None
            pull = functools.partial(next, iter(source), None)
        walker = _CadenceWalker(
            self.config, self.scheme, video_fps, pull,
            vr_work=iter(vr_work) if vr_work is not None else None,
            max_windows=max_windows,
            retain_full=retain == "full",
            runs=runs,
        )
        if max_windows is not None:
            window_count = max_windows
        elif frame_count is not None:
            window_count = int(
                round(frame_count * walker.timing.windows_per_frame)
            )
        else:
            raise SimulationError(
                "a frame source without a length needs max_windows"
            )
        tracer = walker.tracer
        if tracer is not None:
            run_span = tracer.begin_span(
                "sim.run",
                t=0.0,
                scheme=self.scheme.name,
                video_fps=float(video_fps),
                frames=frame_count if frame_count is not None else -1,
                windows=window_count,
                vr=vr_work is not None,
            )
        try:
            walker.walk(window_count)
            run = walker.finish(cache_key=key)
        except Exception as error:
            # Close the span so a caught run error can't poison the
            # tracer's nesting for every span that follows.
            if tracer is not None:
                tracer.end_span(run_span, error=type(error).__name__)
            raise
        if tracer is not None:
            stats = run.stats
            tracer.end_span(
                run_span,
                t=run.aggregate.end,
                windows=stats.windows,
                new_frame_windows=stats.new_frame_windows,
                repeat_windows=stats.repeat_windows,
                deadline_misses=stats.deadline_misses,
                vd_wakes=stats.vd_wakes,
                psr_windows=stats.psr_windows,
                bypassed_windows=stats.bypassed_windows,
                burst_windows=stats.burst_windows,
            )
        if memo is not None and key is not None:
            memo.store(key, run)
        return run


# ---------------------------------------------------------------------------
# Incremental simulation: the push-driven front end for the serve plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamingWindow:
    """One refresh window advanced by :class:`StreamingSimulator`.

    Carries what a live observer prices per window: its position, the
    frame it presents, and the :class:`PlanGroup` the walker filed it
    under (the group's plan *is* the window's plan, time-shifted, with
    ``group.staged_bytes(frame)`` more encoded bytes staged).
    ``replayed`` marks windows served from an earlier plan of the run
    instead of planned fresh.
    """

    index: int
    frame_index: int
    duration: float
    group: PlanGroup
    replayed: bool
    frame: FrameDescriptor


class StreamingSimulator:
    """The cadence walker with frames *pushed* in: windows come out as
    the cadence allows.

    ``repro serve`` sessions feed frames as they arrive over the wire
    into a buffer the walker pulls from (an empty buffer reads as a dry
    stream until the next push) — the same walker
    :meth:`FrameWindowSimulator.run` drives, so the final summary is
    byte-identical to the offline ``retain="summary"`` run of the same
    stream.  Live observation must not perturb the simulation; this is
    the invariant the serve acceptance test pins.

    While the stream is open the walker only advances windows whose
    frames are certain to exist in any completed stream (``index <
    round(frames_seen * windows_per_frame)``); a caller that cannot
    advance is *stalled* (backpressure).  :meth:`end` declares the
    stream complete, fixing the total window count the way ``run()``
    computes it, drains the remaining windows (re-presenting the last
    frame, clamped, exactly like an exhausted offline source) and
    finishes the run.  VR work is not supported.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: DisplayScheme,
        video_fps: float,
        max_windows: int | None = None,
    ) -> None:
        self.max_windows = max_windows
        self._buffer: "deque[FrameDescriptor]" = deque()
        self._records: list = []
        self._walker = _CadenceWalker(
            config, scheme, video_fps,
            lambda: self._buffer.popleft() if self._buffer else None,
            max_windows=max_windows, records=self._records,
        )
        self.frames_seen = 0
        self._ended = False
        self._result: RunResult | None = None

    def push(self, frame: FrameDescriptor) -> list[StreamingWindow]:
        """Append one frame and advance every window it unblocks."""
        if self._ended:
            raise SimulationError(
                "cannot push frames after the stream ended"
            )
        self._buffer.append(frame)
        self.frames_seen += 1
        return self.advance()

    def end(self) -> list[StreamingWindow]:
        """Declare the stream complete, drain remaining windows and
        finish the run."""
        if self.frames_seen == 0:
            raise SimulationError("cannot simulate an empty frame list")
        self._ended = True
        return self.advance()

    @property
    def _horizon(self) -> int:
        """How far the walker may advance right now.

        Open streams stop at the conservative frame-backed horizon (a
        larger ``max_windows`` must wait for frames that may still
        arrive); ended streams stop at exactly the window count
        ``run()`` would compute for the same inputs.
        """
        natural = int(
            round(self.frames_seen * self._walker.timing.windows_per_frame)
        )
        if self.max_windows is None:
            return natural
        if self._ended:
            return self.max_windows
        return min(natural, self.max_windows)

    def advance(self) -> list[StreamingWindow]:
        """Advance every window currently allowed to run (possibly none
        — the *stalled* case for an open stream)."""
        walker = self._walker
        if self._result is None:
            walker.walk(self._horizon)
            if self._ended:
                self._result = walker.finish()
        windows = [
            StreamingWindow(
                index + offset, frame_index, walker.duration, group,
                replayed, frame,
            )
            for index, count, frame_index, frame, group, replayed
            in self._records
            for offset in range(count)
        ]
        self._records.clear()
        return windows

    @property
    def stalled(self) -> bool:
        """An open stream that cannot advance until frames arrive."""
        return not self._ended and self._walker.index >= self._horizon

    @property
    def windows_simulated(self) -> int:
        return self._walker.index

    @property
    def simulated_s(self) -> float:
        """Simulated seconds advanced so far."""
        return self._walker.index * self._walker.duration

    @property
    def finished(self) -> bool:
        return self._result is not None

    def result(self) -> RunResult:
        """The completed run (summary retention)."""
        if self._result is None:
            raise SimulationError(
                "streaming run still has windows pending "
                "(call end() first)"
            )
        return self._result
