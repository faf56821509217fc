"""The live telemetry plane: sessions, rolling metrics, HTTP scrape."""

import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs import serve
from repro.obs.serve import (
    PROMETHEUS_CONTENT_TYPE,
    EventLog,
    PowerAdvisorService,
    SessionClient,
)
from repro.display.timing import RefreshTiming
from repro.pipeline import ConventionalScheme
from repro.pipeline.timeline import TimelineSummary
from repro.power import PowerModel
from repro.power.model import COMPONENT_KEYS
from repro.video.source import AnalyticContentModel

from ..plan_oracle import fresh_windows


def _read_log(path):
    """Every record of a JSONL event log."""
    return [
        json.loads(line) for line in Path(path).read_text().splitlines()
    ]


def _frames(count, seed=7):
    return AnalyticContentModel().frames(FHD, count, seed=seed)


def _open(service, sid, scheme="burstlink", **extra):
    response = service.handle(
        {
            "op": "open",
            "scheme": scheme,
            "resolution": "FHD",
            "fps": 30.0,
            "session": sid,
            **extra,
        }
    )
    assert response["ok"], response
    return response


class TestEventLog:
    def test_sequenced_and_leveled(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, level="info")
        assert log.emit("noise", level="debug") is None
        first = log.emit("session.open", session="s1")
        second = log.emit("backpressure.stall", level="warn")
        assert (first["seq"], second["seq"]) == (0, 1)
        records = _read_log(path)
        assert [r["event"] for r in records] == [
            "session.open",
            "backpressure.stall",
        ]

    def test_no_wall_clock_fields(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        record = log.emit("session.open", session="s1", t=1.25)
        assert set(record) == {"seq", "level", "event", "session", "t"}

    def test_rejects_unknown_level(self):
        with pytest.raises(ConfigurationError):
            EventLog(level="verbose")
        with pytest.raises(ConfigurationError):
            EventLog().emit("x", level="verbose")

    def test_memory_only_log_needs_no_path(self):
        log = EventLog()
        log.emit("session.open")
        assert [r["event"] for r in log.recent] == ["session.open"]


class TestServiceOps:
    def test_open_rejects_unknown_scheme_and_resolution(self):
        service = PowerAdvisorService()
        bad = service.handle({"op": "open", "scheme": "nope"})
        assert not bad["ok"] and "nope" in bad["error"]
        bad = service.handle({"op": "open", "resolution": "8K"})
        assert not bad["ok"] and "8K" in bad["error"]

    def test_unknown_op_is_an_error_not_a_crash(self):
        service = PowerAdvisorService()
        response = service.handle({"op": "explode"})
        assert response == {"ok": False, "error": "unknown op 'explode'"}

    @pytest.mark.parametrize("window_s", [0, -1.0])
    def test_open_rejects_nonpositive_window(self, window_s):
        service = PowerAdvisorService()
        response = service.handle(
            {"op": "open", "session": "flat", "window_s": window_s}
        )
        assert not response["ok"]
        assert "window_s must be > 0" in response["error"]
        assert "flat" not in service.sessions

    def test_service_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError, match="window_s"):
            PowerAdvisorService(window_s=0.0)

    def test_duplicate_session_rejected(self):
        service = PowerAdvisorService()
        _open(service, "dup")
        response = service.handle(
            {"op": "open", "session": "dup", "scheme": "burstlink"}
        )
        assert not response["ok"]

    def test_frames_reject_non_finite_sizes(self):
        service = PowerAdvisorService()
        _open(service, "nan")
        frame = _frames(1)[0].to_payload()
        frame["encoded_bytes"] = float("nan")
        response = service.handle(
            {"op": "frames", "session": "nan", "frames": [frame]}
        )
        assert not response["ok"] and "finite" in response["error"]

    def test_frames_advance_and_stall(self):
        service = PowerAdvisorService()
        _open(service, "adv")
        frames = [f.to_payload() for f in _frames(6)]
        response = service.handle(
            {"op": "frames", "session": "adv", "frames": frames}
        )
        assert response["ok"]
        assert response["windows"] == response["advanced"] > 0
        assert response["stalled"] is True
        assert not response["finished"]

    def test_stream_chunks_equal_one_shot(self):
        service = PowerAdvisorService()
        _open(service, "chunked", window_s=4.0)
        _open(service, "oneshot", window_s=4.0)
        for _ in range(3):
            assert service.handle(
                {
                    "op": "stream",
                    "session": "chunked",
                    "count": 8,
                    "seed": 3,
                }
            )["ok"]
        assert service.handle(
            {"op": "stream", "session": "oneshot", "count": 24, "seed": 3}
        )["ok"]
        chunked = service.handle({"op": "close", "session": "chunked"})
        oneshot = service.handle({"op": "close", "session": "oneshot"})
        assert json.dumps(
            chunked["final"]["summary"], sort_keys=True
        ) == json.dumps(oneshot["final"]["summary"], sort_keys=True)

    def test_rolling_series_appear_labelled(self):
        service = PowerAdvisorService()
        _open(service, "metrics-sid", window_s=2.0)
        service.handle(
            {"op": "stream", "session": "metrics-sid", "count": 12}
        )
        report = service.handle({"op": "report", "session": "metrics-sid"})
        rolling = report["rolling"]
        assert rolling["total_mw"] > rolling["panel_mw"] > 0
        assert 0.0 <= rolling["deep_residency"] <= 1.0
        assert rolling["fps"] == pytest.approx(30.0)
        key = 'serve.win.total_mw{sid="metrics-sid"}'
        assert key in obs_metrics.registry().names()
        service.handle(
            {"op": "close", "session": "metrics-sid", "retire": True}
        )
        assert key not in obs_metrics.registry().names()

    def test_window_price_equals_report_of_its_digest(self):
        service = PowerAdvisorService()
        _open(service, "priced", window_s=2.0)
        pricer = service.sessions["priced"].pricer
        model = pricer.model
        digests = []

        def recording(summary, panel):
            digests.append(summary)
            return type(model).price_summary(model, summary, panel)

        model.price_summary = recording
        service.handle({"op": "stream", "session": "priced", "count": 12})
        del model.price_summary
        prices = list(pricer._cache.values())
        assert digests and len(digests) == len(prices)
        for digest, price in zip(digests, prices):
            report = model.report_summary(digest, pricer.panel)
            by = report.by_component_mj
            assert price[:4] == (
                by["panel"],
                by["dram_background"] + by["dram_traffic"],
                by["edp"],
                report.total_energy_mj,
            )

    def test_backpressure_stall_logged_when_starved(self):
        service = PowerAdvisorService(
            events=EventLog(level="debug")
        )
        # max_windows far beyond what one frame unlocks: the walker
        # stays conservative and reports a stall.
        _open(service, "starved", max_windows=1000)
        frame = _frames(1)[0].to_payload()
        response = service.handle(
            {"op": "frames", "session": "starved", "frames": [frame]}
        )
        assert response["stalled"]
        # A single frame can't unlock its own windows (the horizon is
        # round(1 * wpf) but the first window needs the frame pulled
        # before planning) — progress may be zero until more arrive.
        events = [r["event"] for r in service.events.recent]
        if response["advanced"] == 0:
            assert "backpressure.stall" in events

    def test_close_is_end_exhaustive(self):
        service = PowerAdvisorService()
        _open(service, "short")
        service.handle(
            {
                "op": "frames",
                "session": "short",
                "frames": [f.to_payload() for f in _frames(4)],
            }
        )
        ended = service.handle({"op": "end", "session": "short"})
        assert ended["finished"]
        again = service.handle({"op": "end", "session": "short"})
        assert not again["ok"]
        final = service.handle({"op": "close", "session": "short"})
        assert final["ok"]
        assert final["final"]["stats"]["windows"] == ended["windows"]
        assert "short" not in service.sessions
        events = [r["event"] for r in service.events.recent]
        assert events == [
            "session.open",
            "source.exhausted",
            "session.close",
        ]

    def test_session_status_payload(self):
        service = PowerAdvisorService()
        _open(service, "status")
        service.handle(
            {"op": "stream", "session": "status", "count": 6}
        )
        payload = service.sessions_payload()
        (status,) = payload["sessions"]
        assert status["session"] == "status"
        assert status["scheme"] == "burstlink"
        assert status["windows"] > 0
        assert status["simulated_s"] > 0

    def test_window_dram_is_its_own_frames(self):
        """Windows that share a plan group are priced at their own
        encoded bytes: each window's ``serve.win.dram_mw`` is its plan
        made fresh and priced through ``price_summary``."""
        service = PowerAdvisorService()
        _open(service, "own-bytes", window_s=1000.0)
        frames = _frames(12)
        service.handle(
            {
                "op": "frames",
                "session": "own-bytes",
                "frames": [frame.to_payload() for frame in frames],
            }
        )
        service.handle({"op": "end", "session": "own-bytes"})
        session = service.sessions["own-bytes"]
        samples = session._gauges["serve.win.dram_mw"].samples
        config = skylake_tablet(FHD).with_drfb()
        duration = RefreshTiming(config.panel.refresh_hz, 30.0).frame_window
        fresh = fresh_windows(config, BurstLinkScheme(), frames, 30.0)
        assert len(samples) == len(fresh)
        assert len(session.pricer._cache) < len(fresh)
        model = PowerModel()
        for (_, dram_mw), (kind, result) in zip(samples, fresh):
            digest = TimelineSummary.window_digest(
                result.timeline, kind, duration
            )
            _, _, matrix = model.price_summary(digest, config.panel)
            energies = dict(zip(COMPONENT_KEYS, matrix.sum(axis=0)))
            expected = (
                energies["dram_background"] + energies["dram_traffic"]
            ) / duration
            assert dram_mw == pytest.approx(expected, rel=1e-12, abs=0.0)
        new_frame = {mw for (_, mw), (kind, _) in zip(samples, fresh)
                     if kind == "new_frame"}
        assert len(new_frame) == len(frames)


class TestOfflineParity:
    """The acceptance invariant: live observation never perturbs the
    simulation — a served session's final summary is byte-identical to
    the same stream through ``compare_schemes`` at ``retain="summary"``.
    """

    def test_served_summary_matches_compare_schemes(self, tmp_path):
        from repro.analysis.energy import compare_schemes

        frames = _frames(40, seed=11)
        service = PowerAdvisorService()
        _open(service, "parity", window_s=2.0)
        # Push in raggedy chunks, polling rolling metrics between
        # pushes — observation must not perturb the stream.
        for lo, hi in ((0, 3), (3, 4), (4, 21), (21, 40)):
            service.handle(
                {
                    "op": "frames",
                    "session": "parity",
                    "frames": [f.to_payload() for f in frames[lo:hi]],
                }
            )
            service.handle({"op": "report", "session": "parity"})
        final = service.handle({"op": "close", "session": "parity"})

        comparison = compare_schemes(
            skylake_tablet(FHD),
            frames,
            30.0,
            schemes={"burstlink": (BurstLinkScheme(), True)},
            baseline=ConventionalScheme(),
            retain="summary",
        )
        offline = comparison.runs["burstlink"]
        assert json.dumps(
            final["final"]["summary"], sort_keys=True
        ) == json.dumps(offline.summary.to_payload(), sort_keys=True)

        # And `repro obs diff` agrees the artifacts are identical.
        live_path = tmp_path / "live.json"
        offline_path = tmp_path / "offline.json"
        live_path.write_text(
            json.dumps({"summary": final["final"]["summary"]})
        )
        offline_path.write_text(
            json.dumps({"summary": offline.summary.to_payload()})
        )
        assert (
            main(["obs", "diff", str(live_path), str(offline_path)])
            == 0
        )


class TestHttpPlane:
    """One real server exercises the socket + HTTP surface end to end."""

    @pytest.fixture
    def server(self, tmp_path):
        ports = {}
        up = threading.Event()

        def ready(bound):
            ports.update(bound)
            up.set()

        thread = threading.Thread(
            target=serve.run_server,
            kwargs={
                "port": 0,
                "http_port": 0,
                "events_path": tmp_path / "events.jsonl",
                "window_s": 2.0,
                "ready": ready,
            },
            daemon=True,
        )
        thread.start()
        assert up.wait(10), "serve never came up"
        yield {**ports, "events": tmp_path / "events.jsonl"}
        with SessionClient("127.0.0.1", ports["port"]) as client:
            client.call(op="shutdown")
        thread.join(10)
        assert not thread.is_alive()

    def _get(self, server, path):
        response = urllib.request.urlopen(
            f"http://127.0.0.1:{server['http_port']}{path}", timeout=10
        )
        return response.headers.get("Content-Type"), response.read()

    def test_full_session_over_the_wire(self, server):
        with SessionClient("127.0.0.1", server["port"]) as client:
            assert client.call(op="ping")["pong"]
            client.call(
                op="open",
                scheme="burstlink",
                resolution="FHD",
                fps=30.0,
                session="wire",
            )
            pushed = client.call(
                op="stream", session="wire", count=24, seed=5
            )
            assert pushed["windows"] > 0

            ctype, body = self._get(server, "/metrics")
            assert ctype == PROMETHEUS_CONTENT_TYPE
            text = body.decode()
            assert 'repro_serve_win_total_mw{sid="wire"}' in text

            ctype, body = self._get(server, "/healthz")
            assert ctype == "application/json"
            health = json.loads(body)
            assert health["ok"] and health["sessions"] == 1

            _, body = self._get(server, "/sessions")
            (status,) = json.loads(body)["sessions"]
            assert status["session"] == "wire"
            assert status["rolling"]["total_mw"] > 0

            final = client.call(op="close", session="wire", retire=True)
            assert final["final"]["stats"]["windows"] == pushed["windows"]

        records = _read_log(server["events"])
        events = [r["event"] for r in records]
        assert "session.open" in events and "session.close" in events

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_malformed_json_reported_per_line(self, server):
        import socket

        with socket.create_connection(
            ("127.0.0.1", server["port"]), timeout=10
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            response = json.loads(handle.readline())
            assert not response["ok"]
            assert "JSON" in response["error"]

            def call(**payload):
                handle.write((json.dumps(payload) + "\n").encode())
                handle.flush()
                return json.loads(handle.readline())

            # A numeric field that does not convert is reported by
            # name, and the connection stays up for the next op.
            assert call(op="open", session="bad-fields")["ok"]
            for op, field_name in (
                ("open", "fps"),
                ("open", "max_windows"),
                ("open", "window_s"),
                ("stream", "count"),
                ("stream", "start"),
                ("stream", "seed"),
                ("stream", "variability"),
            ):
                fields = {"count": 4, field_name: "fast"}
                if op == "stream":
                    fields["session"] = "bad-fields"
                response = call(op=op, **fields)
                assert not response["ok"], (op, field_name)
                assert response["error"].startswith(field_name)
                assert call(op="ping")["pong"]


class TestCliSurface:
    def test_list_mentions_serve(self, capsys):
        assert main(["list"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_zero_window_exits_with_error(self, capsys, monkeypatch):
        async def never_bind(service, **kwargs):
            raise AssertionError("serve bound ports with window 0")

        monkeypatch.setattr(serve, "serve_async", never_bind)
        assert main(["serve", "--window", "0"]) == 1
        assert "error: window_s must be > 0" in capsys.readouterr().out

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 7070
        assert args.http_port == 7071
        assert args.window == 10.0
        assert args.log_level == "info"
