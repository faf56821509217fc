"""The live telemetry plane: ``repro serve``.

Every other observability surface in this repo is post-mortem — trace,
profile, and ``repro metrics --prom`` all print after a batch run ends.
This module turns the streaming substrate into a long-lived *power
advisor* service:

* **Sessions** connect over a local TCP socket speaking
  newline-delimited JSON, open a (scheme, resolution, fps) stream, and
  push frames (explicit descriptors or analytic stream chunks).  Each
  session advances a :class:`~repro.pipeline.sim.StreamingSimulator`
  incrementally — the same cadence walker an offline
  ``retain="summary"`` run takes, so the final cumulative summary is
  byte-identical to the same stream simulated offline.  Live
  observation never perturbs the simulation.
* **Rolling metrics** — each window's plan is priced through the
  analytical power model and fed into
  :class:`~repro.obs.metrics.RollingGauge` series windowed over the
  last N *simulated* seconds: panel/DRAM/eDP/total mW, deep C-state
  residency, effective fps, plan-reuse rate — one labelled series
  per session in the process registry.
* **An embedded HTTP endpoint** serves ``GET /metrics`` (live
  Prometheus text exposition, correct ``text/plain; version=0.0.4``
  content type), ``GET /healthz``, and ``GET /sessions``.
* **A leveled JSONL event log** records the service's lifecycle
  (``session.open``/``session.close``, ``source.exhausted``,
  ``backpressure.stall``) with the tracer's append/flush/fsync write
  discipline and no wall-clock values — ordering is a sequence
  ordinal, timestamps are simulated.

The service core (:class:`PowerAdvisorService`) is synchronous and
socket-free; the asyncio TCP/HTTP servers are thin shells around it,
which is what keeps the whole plane unit-testable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigurationError, ReproError
from ..pipeline.sim import PlanGroup, StreamingSimulator, StreamingWindow
from ..pipeline.timeline import SegmentClass, TimelineSummary
from ..power.model import COMPONENT_KEYS, QUANTITY_COLUMNS, PowerModel
from ..video.source import (
    AnalyticContentModel,
    ContentClass,
    descriptor_from_payload,
)
from . import metrics as obs_metrics
from .export import prometheus_text
from .metrics import labelled

#: Event-log severity levels, least to most severe.
LOG_LEVELS = ("debug", "info", "warn", "error")

#: Default rolling-window width in simulated seconds.
DEFAULT_WINDOW_S = 10.0

#: Prometheus text exposition content type (format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ---------------------------------------------------------------------------
# The structured event log
# ---------------------------------------------------------------------------


def _append_line(path: Path, line: str) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


class EventLog:
    """A leveled, structured JSONL event log.

    Each record is appended, flushed and fsynced as one whole line,
    so a concurrent line reader never sees a torn record.  No
    wall-clock value enters an event: ordering is the ``seq`` ordinal
    and any timestamp fields callers attach are simulated seconds —
    the same determinism contract the tracer keeps.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        level: str = "info",
    ) -> None:
        if level not in LOG_LEVELS:
            raise ConfigurationError(
                f"unknown log level {level!r} (choose from {LOG_LEVELS})"
            )
        self.path = Path(path) if path is not None else None
        self.level = level
        self.seq = 0
        #: Recent records kept in memory (tests and /sessions debugging
        #: read these; bounded so the service never grows unboundedly).
        self.recent: list[dict[str, Any]] = []
        self._recent_cap = 256

    def _passes(self, level: str) -> bool:
        return LOG_LEVELS.index(level) >= LOG_LEVELS.index(self.level)

    def emit(
        self, event: str, level: str = "info", **fields: Any
    ) -> dict[str, Any] | None:
        """Record one event; returns the record (or ``None`` when the
        level filtered it out)."""
        if level not in LOG_LEVELS:
            raise ConfigurationError(f"unknown log level {level!r}")
        if not self._passes(level):
            return None
        record = {
            "seq": self.seq,
            "level": level,
            "event": event,
            **fields,
        }
        self.seq += 1
        self.recent.append(record)
        if len(self.recent) > self._recent_cap:
            del self.recent[: -self._recent_cap]
        if self.path is not None:
            try:
                _append_line(
                    self.path, json.dumps(record, sort_keys=True)
                )
            except OSError:
                # The log is advisory; a full disk must not kill serve.
                pass
        return record


# ---------------------------------------------------------------------------
# Per-window pricing for the rolling series
# ---------------------------------------------------------------------------


class _DigestPricer:
    """Prices one window of a plan group into (panel, dram, edp, total)
    mJ plus its deep-C-state fraction, through
    :meth:`PowerModel.price_summary` (the path every report takes).

    Pricing is a pure read of the group's plan — it never touches the
    simulator.  The one-window digest is built on the first window
    of each group, and the price is memoized per group (groups
    hash by identity), so a long run of replayed windows prices once.
    A window that stages a different encoded frame than its group's
    plan (see ``PlanGroup.staged_bytes``) adds that difference priced
    on the staged segment's class: prices are linear in the bytes.
    """

    def __init__(self, model: PowerModel, panel: Any) -> None:
        self.model = model
        self.panel = panel
        self._cache: dict[PlanGroup, tuple] = {}

    def price(
        self, window: StreamingWindow
    ) -> tuple[float, float, float, float, float]:
        group = window.group
        price = self._group_price(group, window.duration)
        staged = group.staged_bytes(window.frame)
        if not staged:
            return price
        result = group.result
        cls_key = SegmentClass.of(
            result.timeline[result.staged_segment],
            group.effective_kind,
        )
        quantities = [[
            staged if column in ("dram_read_bytes", "dram_write_bytes")
            else 0.0
            for column in QUANTITY_COLUMNS
        ]]
        extra = _component_price(
            self.model.price_plan_matrix([cls_key], quantities, self.panel)
        )
        return (*(a + b for a, b in zip(price, extra)), price[4])

    def _group_price(self, group: PlanGroup, duration: float) -> tuple:
        cached = self._cache.get(group)
        if cached is not None:
            return cached
        digest = TimelineSummary.window_digest(
            group.result.timeline, group.effective_kind, duration
        )
        _, _, matrix = self.model.price_summary(digest, self.panel)
        price = (*_component_price(matrix), _deep_fraction(digest))
        self._cache[group] = price
        return price


def _component_price(matrix: Any) -> tuple[float, float, float, float]:
    """(panel, dram, edp, total) mJ of a priced energy matrix."""
    energies = dict(zip(COMPONENT_KEYS, matrix.sum(axis=0).tolist()))
    return (
        energies["panel"],
        energies["dram_background"] + energies["dram_traffic"],
        energies["edp"],
        sum(energies.values()),
    )


def _deep_fraction(digest: TimelineSummary) -> float:
    """Fraction of the digest's time below package C0 (deep states)."""
    total = 0.0
    deep = 0.0
    for cls_key, totals in digest.buckets.items():
        total += totals.seconds
        if cls_key.state.name != "C0":
            deep += totals.seconds
    return deep / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


@dataclass
class Session:
    """One connected stream being simulated and observed live."""

    sid: str
    scheme_label: str
    resolution_label: str
    fps: float
    sim: StreamingSimulator
    pricer: _DigestPricer
    window_s: float = DEFAULT_WINDOW_S
    frames_pushed: int = 0
    ended: bool = False
    closed: bool = False

    #: Labelled rolling gauges, created on first window.
    _gauges: dict[str, obs_metrics.RollingGauge] = field(
        default_factory=dict, repr=False
    )

    def _gauge(self, name: str, help_text: str) -> obs_metrics.RollingGauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = obs_metrics.registry().rolling_gauge(
                labelled(name, {"sid": self.sid}),
                help_text,
                window_s=self.window_s,
            )
            self._gauges[name] = gauge
        return gauge

    def observe_windows(self, windows: list[StreamingWindow]) -> None:
        """Fold freshly advanced windows into the rolling series."""
        for window in windows:
            duration = window.duration
            if duration <= 0:
                continue
            t = window.index * duration
            panel_mj, dram_mj, edp_mj, total_mj, deep = self.pricer.price(
                window
            )
            # mJ over one window / window seconds = mW.
            self._gauge(
                "serve.win.panel_mw",
                "rolling panel power over the session window (mW)",
            ).observe(t, panel_mj / duration)
            self._gauge(
                "serve.win.dram_mw",
                "rolling DRAM power over the session window (mW)",
            ).observe(t, dram_mj / duration)
            self._gauge(
                "serve.win.edp_mw",
                "rolling eDP link power over the session window (mW)",
            ).observe(t, edp_mj / duration)
            self._gauge(
                "serve.win.total_mw",
                "rolling total platform power over the session "
                "window (mW)",
            ).observe(t, total_mj / duration)
            self._gauge(
                "serve.win.deep_residency",
                "rolling fraction of time below package C0",
            ).observe(t, deep)
            self._gauge(
                "serve.win.fps",
                "rolling effective frames per second",
            ).observe(
                t,
                (1.0 / duration) if window.group.effective_new else 0.0,
            )
            self._gauge(
                "serve.win.collapse_hit",
                "rolling share of windows replayed from an earlier "
                "plan of the run",
            ).observe(t, 1.0 if window.replayed else 0.0)

    def rolling_values(self) -> dict[str, float]:
        return {
            name.rsplit(".", 1)[-1]: gauge.value
            for name, gauge in sorted(self._gauges.items())
        }

    def status(self) -> dict[str, Any]:
        """The per-session JSON ``GET /sessions`` serves."""
        return {
            "session": self.sid,
            "scheme": self.scheme_label,
            "resolution": self.resolution_label,
            "fps": self.fps,
            "frames": self.frames_pushed,
            "windows": self.sim.windows_simulated,
            "simulated_s": self.sim.simulated_s,
            "ended": self.ended,
            "finished": self.sim.finished,
            "stalled": self.sim.stalled,
            "rolling": self.rolling_values(),
        }

    def retire_metrics(self) -> int:
        """Drop this session's labelled series from the registry."""
        registry = obs_metrics.registry()
        removed = 0
        for name in list(self._gauges):
            removed += int(
                registry.remove(labelled(name, {"sid": self.sid}))
            )
        self._gauges.clear()
        return removed


# ---------------------------------------------------------------------------
# The service core (synchronous, socket-free)
# ---------------------------------------------------------------------------


def _stats_payload(stats: Any) -> dict[str, Any]:
    return dataclasses.asdict(stats)


def _field(
    payload: dict[str, Any], key: str, kind: type, default: Any
) -> Any:
    """``payload[key]`` converted by ``kind`` (``default`` when absent
    or null); a value that does not convert is a configuration error
    naming the field, not an exception that drops the connection."""
    value = payload.get(key)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(
            f"{key} must be {expected}, got {value!r}"
        ) from None


def _window_s(window_s: float) -> float:
    """A rolling-window width, rejected unless positive (a session with
    no window could advance but never be observed)."""
    if not window_s > 0:
        raise ConfigurationError(f"window_s must be > 0, got {window_s}")
    return window_s


class PowerAdvisorService:
    """Session bookkeeping and op dispatch for the serve plane.

    One instance per server process.  Every wire op is a JSON object
    with an ``"op"`` key; :meth:`handle` returns the JSON-safe response
    object (``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``).
    """

    def __init__(
        self,
        events: EventLog | None = None,
        window_s: float = DEFAULT_WINDOW_S,
    ) -> None:
        self.events = events if events is not None else EventLog()
        self.window_s = _window_s(window_s)
        self.sessions: dict[str, Session] = {}
        self._session_counter = 0
        self.shutting_down = False

    # -- op dispatch --------------------------------------------------------

    def handle(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one wire op; errors come back as ``ok: false``."""
        if not isinstance(payload, dict):
            return {"ok": False, "error": "request must be an object"}
        op = payload.get("op")
        handlers: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
            "ping": self._op_ping,
            "open": self._op_open,
            "frames": self._op_frames,
            "stream": self._op_stream,
            "end": self._op_end,
            "report": self._op_report,
            "close": self._op_close,
            "shutdown": self._op_shutdown,
        }
        handler = handlers.get(op)  # type: ignore[arg-type]
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(payload)
        except ReproError as error:
            return {"ok": False, "error": str(error)}

    # -- individual ops -----------------------------------------------------

    def _op_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "pong": True, "sessions": len(self.sessions)}

    def _op_open(self, payload: dict[str, Any]) -> dict[str, Any]:
        # Imported lazily: cli imports serve for cmd_serve, so serve
        # importing cli at module level would be a cycle.
        from ..cli._helpers import _RESOLUTIONS, _SCHEMES, _config_for

        scheme_label = str(payload.get("scheme", "burstlink"))
        if scheme_label not in _SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {scheme_label!r} "
                f"(choose from {sorted(_SCHEMES)})"
            )
        resolution_label = str(payload.get("resolution", "FHD"))
        if resolution_label not in _RESOLUTIONS:
            raise ConfigurationError(
                f"unknown resolution {resolution_label!r} "
                f"(choose from {sorted(_RESOLUTIONS)})"
            )
        fps = _field(payload, "fps", float, 30.0)
        if not fps > 0:
            raise ConfigurationError("fps must be > 0")
        window_s = _window_s(
            _field(payload, "window_s", float, self.window_s)
        )
        max_windows = _field(payload, "max_windows", int, None)
        sid = str(payload.get("session", "")) or self._mint_sid()
        if sid in self.sessions:
            raise ConfigurationError(f"session {sid!r} already open")
        factory, needs_drfb = _SCHEMES[scheme_label]
        config = _config_for(
            _RESOLUTIONS[resolution_label], needs_drfb
        )
        sim = StreamingSimulator(
            config, factory(), fps, max_windows=max_windows
        )
        session = Session(
            sid=sid,
            scheme_label=scheme_label,
            resolution_label=resolution_label,
            fps=fps,
            sim=sim,
            pricer=_DigestPricer(PowerModel(), config.panel),
            window_s=window_s,
        )
        self.sessions[sid] = session
        self.events.emit(
            "session.open",
            session=sid,
            scheme=scheme_label,
            resolution=resolution_label,
            fps=fps,
        )
        return {"ok": True, "session": sid}

    def _op_frames(self, payload: dict[str, Any]) -> dict[str, Any]:
        session = self._session(payload)
        frames = payload.get("frames")
        if not isinstance(frames, list) or not frames:
            raise ConfigurationError(
                "frames op needs a non-empty frames list"
            )
        windows: list[StreamingWindow] = []
        for frame_payload in frames:
            windows.extend(
                session.sim.push(descriptor_from_payload(frame_payload))
            )
        session.frames_pushed += len(frames)
        return self._advanced(session, windows)

    def _op_stream(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Push a chunk of analytically generated frames.

        ``seed``/``start`` let a session extend its stream in chunks
        while staying byte-identical to one offline generation: the
        model re-generates ``start + count`` frames and pushes the last
        ``count`` (one RNG draw per frame in index order, so a re-walk
        is exact).
        """
        session = self._session(payload)
        from ..cli._helpers import _RESOLUTIONS

        count = _field(payload, "count", int, 0)
        if count <= 0:
            raise ConfigurationError("stream op needs count > 0")
        start = _field(payload, "start", int, session.frames_pushed)
        content_label = str(payload.get("content", "natural")).upper()
        try:
            content = ContentClass[content_label]
        except KeyError:
            raise ConfigurationError(
                f"unknown content class {content_label!r}"
            ) from None
        model = AnalyticContentModel(
            content=content,
            variability=_field(payload, "variability", float, 0.18),
        )
        resolution = _RESOLUTIONS[session.resolution_label]
        seed = _field(payload, "seed", int, 0)
        windows: list[StreamingWindow] = []
        pushed = 0
        for frame in model.iter_frames(
            resolution, start + count, seed=seed
        ):
            if frame.index < start:
                continue
            windows.extend(session.sim.push(frame))
            pushed += 1
        session.frames_pushed += pushed
        return self._advanced(session, windows, pushed=pushed)

    def _op_end(self, payload: dict[str, Any]) -> dict[str, Any]:
        session = self._session(payload)
        if session.ended:
            raise ConfigurationError(
                f"session {session.sid!r} already ended"
            )
        windows = session.sim.end()
        session.ended = True
        self.events.emit(
            "source.exhausted",
            session=session.sid,
            frames=session.frames_pushed,
            t=session.sim.result().summary.end,
        )
        return self._advanced(session, windows)

    def _op_report(self, payload: dict[str, Any]) -> dict[str, Any]:
        session = self._session(payload)
        return {"ok": True, **session.status()}

    def _op_close(self, payload: dict[str, Any]) -> dict[str, Any]:
        session = self._session(payload)
        if not session.ended:
            session.sim.end()
            session.ended = True
        run = session.sim.result()
        artifact = {
            "summary": run.summary.to_payload(),
            "stats": _stats_payload(run.stats),
            "scheme": session.scheme_label,
            "resolution": session.resolution_label,
            "fps": session.fps,
        }
        self.events.emit(
            "session.close",
            session=session.sid,
            windows=run.stats.windows,
            frames=session.frames_pushed,
            t=run.summary.end,
        )
        if payload.get("retire"):
            session.retire_metrics()
        session.closed = True
        del self.sessions[session.sid]
        return {"ok": True, "session": session.sid, "final": artifact}

    def _op_shutdown(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.shutting_down = True
        return {"ok": True, "shutting_down": True}

    # -- shared helpers -----------------------------------------------------

    def _mint_sid(self) -> str:
        self._session_counter += 1
        return f"s{self._session_counter}"

    def _session(self, payload: dict[str, Any]) -> Session:
        sid = str(payload.get("session", ""))
        session = self.sessions.get(sid)
        if session is None:
            raise ConfigurationError(f"no open session {sid!r}")
        return session

    def _advanced(
        self,
        session: Session,
        windows: list[StreamingWindow],
        **extra: Any,
    ) -> dict[str, Any]:
        session.observe_windows(windows)
        if not windows and session.sim.stalled:
            self.events.emit(
                "backpressure.stall",
                level="debug",
                session=session.sid,
                frames=session.frames_pushed,
                windows=session.sim.windows_simulated,
            )
        return {
            "ok": True,
            "session": session.sid,
            "advanced": len(windows),
            "windows": session.sim.windows_simulated,
            "stalled": session.sim.stalled,
            "finished": session.sim.finished,
            **extra,
        }

    # -- the read-only HTTP surface ----------------------------------------

    def healthz(self) -> dict[str, Any]:
        return {
            "ok": True,
            "sessions": len(self.sessions),
            "events": self.events.seq,
        }

    def sessions_payload(self) -> dict[str, Any]:
        return {
            "sessions": [
                self.sessions[sid].status()
                for sid in sorted(self.sessions)
            ]
        }

    def metrics_text(self) -> str:
        return prometheus_text(obs_metrics.registry())


# ---------------------------------------------------------------------------
# The asyncio shells: NDJSON session server + HTTP scrape endpoint
# ---------------------------------------------------------------------------


async def _handle_session_conn(
    service: PowerAdvisorService,
    stop: asyncio.Event,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.strip()
            if not text:
                continue
            try:
                payload = json.loads(text.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                response: dict[str, Any] = {
                    "ok": False,
                    "error": "request is not valid JSON",
                }
            else:
                response = service.handle(payload)
            writer.write(
                (json.dumps(response, sort_keys=True) + "\n").encode(
                    "utf-8"
                )
            )
            await writer.drain()
            if service.shutting_down:
                stop.set()
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _http_response(
    status: str, content_type: str, body: bytes
) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("utf-8") + body


async def _handle_http_conn(
    service: PowerAdvisorService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        request_line = await reader.readline()
        # Drain headers; the endpoints are all GET with no body.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        parts = request_line.decode("latin-1").split()
        method = parts[0] if parts else ""
        target = parts[1] if len(parts) > 1 else "/"
        path = target.split("?", 1)[0]
        if method != "GET":
            payload = _http_response(
                "405 Method Not Allowed",
                "application/json",
                b'{"ok": false, "error": "GET only"}',
            )
        elif path == "/metrics":
            payload = _http_response(
                "200 OK",
                PROMETHEUS_CONTENT_TYPE,
                service.metrics_text().encode("utf-8"),
            )
        elif path == "/healthz":
            payload = _http_response(
                "200 OK",
                "application/json",
                json.dumps(
                    service.healthz(), sort_keys=True
                ).encode("utf-8"),
            )
        elif path == "/sessions":
            payload = _http_response(
                "200 OK",
                "application/json",
                json.dumps(
                    service.sessions_payload(), sort_keys=True
                ).encode("utf-8"),
            )
        else:
            payload = _http_response(
                "404 Not Found",
                "application/json",
                b'{"ok": false, "error": "unknown endpoint"}',
            )
        writer.write(payload)
        await writer.drain()
    except (ConnectionError, OSError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_async(
    service: PowerAdvisorService,
    host: str = "127.0.0.1",
    port: int = 7070,
    http_port: int = 7071,
    ready: Callable[[dict[str, Any]], None] | None = None,
) -> None:
    """Run the session and HTTP servers until a ``shutdown`` op.

    ``port``/``http_port`` of 0 bind ephemeral ports; ``ready`` (when
    given) receives ``{"port": ..., "http_port": ...}`` once both
    listeners are up — tests and the CI smoke use it to rendezvous.
    """
    stop = asyncio.Event()

    async def session_conn(reader, writer):
        await _handle_session_conn(service, stop, reader, writer)

    async def http_conn(reader, writer):
        await _handle_http_conn(service, reader, writer)

    session_server = await asyncio.start_server(
        session_conn, host=host, port=port
    )
    http_server = await asyncio.start_server(
        http_conn, host=host, port=http_port
    )
    bound = {
        "port": session_server.sockets[0].getsockname()[1],
        "http_port": http_server.sockets[0].getsockname()[1],
    }
    if ready is not None:
        ready(bound)
    service.events.emit("serve.start", **bound)
    try:
        await stop.wait()
    finally:
        service.events.emit("serve.stop", sessions=len(service.sessions))
        session_server.close()
        http_server.close()
        await session_server.wait_closed()
        await http_server.wait_closed()


def run_server(
    host: str = "127.0.0.1",
    port: int = 7070,
    http_port: int = 7071,
    events_path: str | Path | None = None,
    window_s: float = DEFAULT_WINDOW_S,
    log_level: str = "info",
    ready: Callable[[dict[str, Any]], None] | None = None,
) -> PowerAdvisorService:
    """Blocking entry point (what ``repro serve`` calls).

    Returns the service after shutdown, so callers can inspect final
    state (tests assert on the event log).
    """
    service = PowerAdvisorService(
        events=EventLog(events_path, level=log_level),
        window_s=window_s,
    )
    asyncio.run(
        serve_async(
            service,
            host=host,
            port=port,
            http_port=http_port,
            ready=ready,
        )
    )
    return service


# ---------------------------------------------------------------------------
# A minimal synchronous client (tests, CI smoke, scripting)
# ---------------------------------------------------------------------------


class SessionClient:
    """Blocking NDJSON client for the session socket."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        import socket

        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._file = self._sock.makefile("rwb")

    def call(self, **payload: Any) -> dict[str, Any]:
        """Send one op and wait for its response line."""
        self._file.write(
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        )
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConfigurationError(
                "serve connection closed mid-call"
            )
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "DEFAULT_WINDOW_S",
    "EventLog",
    "LOG_LEVELS",
    "PROMETHEUS_CONTENT_TYPE",
    "PowerAdvisorService",
    "Session",
    "SessionClient",
    "run_server",
    "serve_async",
]
