"""The event tracer: spans and counters over *simulated* time.

A :class:`Tracer` records a flat, strictly ordered stream of events —
span starts/ends, point events, counter bumps — each stamped with an
ordinal sequence number and, where the emitting site has one, a
*simulated* timestamp.  Wall-clock never enters an event, so a trace of
a deterministic run is itself deterministic: regenerating it produces
byte-identical JSONL, which is what lets traces serve as golden
regression artifacts (see ``tests/golden/``).

Tracing is opt-in and off by default.  Instrumentation sites follow the
pattern::

    tracer = trace.active()
    ...
    if tracer is not None:
        span = tracer.begin_span("sim.window", t=plan.start, index=3)

so the disabled cost is one module-global read and a ``None`` check —
tier-1 runtime is unaffected.

Profiling hooks:

* ``REPRO_TRACE=out.jsonl`` in the environment installs a process-wide
  tracer at import and writes the trace on interpreter exit;
* ``repro trace <exhibit>`` renders a per-window span tree from a
  canonical run (see :mod:`repro.obs.golden`);
* ``repro figures --trace out.jsonl`` traces a figure regeneration.
"""

from __future__ import annotations

import enum
import json
from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import ConfigurationError

#: Event kinds, in the order they may appear for one span.
SPAN_START = "B"
SPAN_END = "E"
EVENT = "I"
COUNTER = "C"


def _sanitize(value: Any) -> Any:
    """``value`` reduced to a deterministic, JSON-safe form."""
    if isinstance(value, bool) or value is None or isinstance(
        value, (int, str, float)
    ):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    return str(value)


class Tracer:
    """Collects one run's trace events in memory."""

    __slots__ = ("events", "_seq", "_stack")

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self._seq = 0
        self._stack: list[int] = []

    # -- emission -----------------------------------------------------------

    def _emit(
        self,
        kind: str,
        name: str,
        t: float | None,
        attrs: dict[str, Any],
        span: int | None = None,
    ) -> int:
        seq = self._seq
        self._seq += 1
        event: dict[str, Any] = {"seq": seq, "kind": kind, "name": name}
        if span is not None:
            event["span"] = span
        if self._stack:
            event["parent"] = self._stack[-1]
        if t is not None:
            event["t"] = float(t)
        if attrs:
            event["attrs"] = {
                key: _sanitize(value) for key, value in attrs.items()
            }
        self.events.append(event)
        return seq

    def begin_span(
        self, name: str, t: float | None = None, **attrs: Any
    ) -> int:
        """Open a span; returns its id (the start event's sequence
        number), to be passed to :meth:`end_span`."""
        span_id = self._emit(SPAN_START, name, t, attrs)
        self._stack.append(span_id)
        return span_id

    def end_span(
        self, span_id: int, t: float | None = None, **attrs: Any
    ) -> None:
        """Close the innermost open span (which must be ``span_id`` —
        spans are strictly nested)."""
        if not self._stack or self._stack[-1] != span_id:
            raise ConfigurationError(
                f"span {span_id} is not the innermost open span"
            )
        self._stack.pop()
        self._emit(SPAN_END, "", t, attrs, span=span_id)

    @contextmanager
    def span(
        self, name: str, t: float | None = None, **attrs: Any
    ) -> Iterator[int]:
        """Context-manager form of :meth:`begin_span`/:meth:`end_span`."""
        span_id = self.begin_span(name, t=t, **attrs)
        try:
            yield span_id
        finally:
            self.end_span(span_id)

    def event(
        self, name: str, t: float | None = None, **attrs: Any
    ) -> None:
        """A point event inside the currently open span (if any)."""
        self._emit(EVENT, name, t, attrs)

    def counter(self, name: str, value: float = 1, **attrs: Any) -> None:
        """A counter bump (``value`` is the delta, not the total)."""
        attrs["value"] = value
        self._emit(COUNTER, name, None, attrs)

    # -- inspection ---------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Number of spans begun but not yet ended."""
        return len(self._stack)

    @property
    def next_seq(self) -> int:
        """The sequence number the next emitted event will get — the
        base :func:`repro.obs.dist.absorb_trace` renumbers worker
        events against."""
        return self._seq

    @property
    def innermost_open_span(self) -> int | None:
        """The id of the innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def ingest(self, events: list[dict[str, Any]]) -> None:
        """Append pre-renumbered events (merged worker task events).

        Every event's ``seq`` must continue this tracer's own
        numbering — the fan-out merger renumbers against
        :attr:`next_seq` before calling this, so the combined stream
        stays one strictly ordered sequence.
        """
        for event in events:
            if event.get("seq") != self._seq:
                raise ConfigurationError(
                    f"ingested event seq {event.get('seq')!r} does not "
                    f"continue the stream at {self._seq}"
                )
            self.events.append(event)
            self._seq += 1

    def to_jsonl(self) -> str:
        """The trace as JSON Lines (one event per line, keys sorted —
        the canonical byte-stable golden format)."""
        return "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n"
            for event in self.events
        )

    def write(self, path: str) -> None:
        """Write the JSONL trace to ``path`` atomically.

        The payload lands in a temp file (same directory, so the rename
        stays on one filesystem), is fsynced, then published with
        ``os.replace`` — a reader (or a golden-trace diff) never sees a
        half-written trace, and a crash mid-write leaves the previous
        file intact.
        """
        import os
        import tempfile

        directory = os.path.dirname(os.path.abspath(path))
        handle = tempfile.NamedTemporaryFile(
            "w",
            dir=directory,
            prefix=f".{os.path.basename(path)}-",
            suffix=".tmp",
            delete=False,
            encoding="utf-8",
        )
        tmp_name = handle.name
        try:
            with handle:
                handle.write(self.to_jsonl())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# The process-wide tracer slot
# ---------------------------------------------------------------------------

_active: Tracer | None = None


def active() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is off (the
    default — instrumentation sites must treat ``None`` as a no-op)."""
    return _active


def enabled() -> bool:
    """Whether a tracer is currently installed."""
    return _active is not None


def install(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previous one (pass
    ``None`` to disable tracing)."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Run a block with ``tracer`` (or a fresh one) installed."""
    installed = tracer if tracer is not None else Tracer()
    previous = install(installed)
    try:
        yield installed
    finally:
        install(previous)


# ---------------------------------------------------------------------------
# Span-tree rendering (the `repro trace` output)
# ---------------------------------------------------------------------------


def _format_attrs(attrs: dict[str, Any]) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        elif isinstance(value, dict):
            continue  # nested payloads don't fit a tree line
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_span_tree(tracer: Tracer, events_inline: bool = True) -> str:
    """The trace as an indented span tree, one line per event.

    Spans show ``name [t0 -> t1]`` with their start and end attributes;
    point events and counters render inline at their nesting depth when
    ``events_inline`` is set.
    """
    lines: list[str] = []
    ends: dict[int, dict[str, Any]] = {
        event["span"]: event
        for event in tracer.events
        if event["kind"] == SPAN_END
    }
    depth = 0
    for event in tracer.events:
        kind = event["kind"]
        if kind == SPAN_END:
            depth = max(0, depth - 1)
            continue
        indent = "  " * depth
        attrs = _format_attrs(event.get("attrs", {}))
        if kind == SPAN_START:
            end = ends.get(event["seq"], {})
            t0, t1 = event.get("t"), end.get("t")
            window = (
                f" [{t0:.6f}s -> {t1:.6f}s]"
                if t0 is not None and t1 is not None
                else ""
            )
            closing = _format_attrs(end.get("attrs", {}))
            tail = " | ".join(part for part in (attrs, closing) if part)
            lines.append(
                f"{indent}{event['name']}{window}"
                + (f"  {tail}" if tail else "")
            )
            depth += 1
        elif events_inline and kind == EVENT:
            stamp = (
                f" @{event['t']:.6f}s" if event.get("t") is not None
                else ""
            )
            lines.append(
                f"{indent}. {event['name']}{stamp}"
                + (f"  {attrs}" if attrs else "")
            )
        elif events_inline and kind == COUNTER:
            lines.append(f"{indent}+ {event['name']}  {attrs}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The REPRO_TRACE environment hook
# ---------------------------------------------------------------------------

_env_hook_registered = False


def install_env_tracer() -> Tracer | None:
    """If ``REPRO_TRACE`` names a file, install a process-wide tracer
    that writes there at interpreter exit (idempotent)."""
    global _env_hook_registered
    import atexit
    import os

    path = os.environ.get("REPRO_TRACE")
    if not path or _env_hook_registered:
        return active()
    tracer = Tracer()
    install(tracer)
    _env_hook_registered = True

    @atexit.register
    def _flush() -> None:  # pragma: no cover - interpreter teardown
        # Interpreter teardown can fail in ways beyond plain I/O errors
        # (modules partially unloaded, cwd gone); a best-effort flush
        # must never turn a clean exit into a traceback.  The write
        # itself is atomic, so a failed flush cannot corrupt an
        # existing trace either.
        try:
            tracer.write(path)
        except Exception:
            pass

    return tracer
