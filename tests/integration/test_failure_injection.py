"""Failure injection: the system's behaviour at and beyond its limits.

These tests deliberately configure infeasible platforms and degraded
inputs and check that failures are *detected and reported* — deadline
misses recorded or raised, underruns counted, fallbacks engaged — never
silently absorbed.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import (
    EdpConfig,
    FHD,
    OrchestrationConfig,
    Resolution,
    SystemConfig,
    UHD_5K,
    VideoDecoderConfig,
    skylake_tablet,
)
from repro.core import BurstLinkScheme
from repro.core.fallback import select_scheme
from repro.errors import ConfigurationError, DeadlineMissError
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.soc.registers import RegisterFile
from repro.units import gbps, mbps
from repro.video.source import AnalyticContentModel, StreamSource


def _pool_workers(parent_pid):
    """PIDs of the children ``parent_pid`` forked with its own command
    line, i.e. its process-pool workers (empty where there is no
    ``/proc``)."""
    proc = Path("/proc")
    try:
        command = (proc / str(parent_pid) / "cmdline").read_bytes()
    except OSError:
        return []
    workers = []
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == parent_pid and cmdline == command:
            workers.append(int(entry.name))
    return workers


def _exited(pid):
    """Whether ``pid`` has exited: gone, or a zombie left for init to
    reap."""
    try:
        stat = (Path("/proc") / str(pid) / "stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestInfeasibleConfigurations:
    def test_link_too_slow_is_rejected_at_construction(self):
        """A link that cannot feed the panel is a config error, not a
        runtime surprise."""
        with pytest.raises(ConfigurationError):
            SystemConfig(edp=EdpConfig(max_bandwidth=gbps(1.0)))

    def test_slow_decoder_misses_recorded(self):
        """A decoder too slow for the content records a miss on every
        new-frame window."""
        config = replace(
            skylake_tablet(UHD_5K),
            decoder=VideoDecoderConfig(max_output_rate=1e9),
        )
        frames = AnalyticContentModel().frames(UHD_5K, 6)
        run = FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 60.0
        )
        assert run.stats.deadline_misses == (
            run.stats.new_frame_windows
        )

    def test_slow_decoder_raises_in_strict_mode(self):
        config = replace(
            skylake_tablet(UHD_5K),
            decoder=VideoDecoderConfig(max_output_rate=1e9),
            strict_deadlines=True,
        )
        frames = AnalyticContentModel().frames(UHD_5K, 6)
        with pytest.raises(DeadlineMissError):
            FrameWindowSimulator(config, ConventionalScheme()).run(
                frames, 60.0
            )

    def test_enormous_orchestration_misses(self):
        config = replace(
            skylake_tablet(FHD),
            orchestration=OrchestrationConfig(
                baseline_per_frame=0.020  # longer than the window
            ),
        )
        frames = AnalyticContentModel().frames(FHD, 4)
        run = FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 60.0
        )
        assert run.stats.deadline_misses > 0

    def test_timeline_stays_valid_under_misses(self):
        """Even a missing window must produce a full, contiguous
        timeline (the panel still refreshes; the frame is just late)."""
        config = replace(
            skylake_tablet(UHD_5K),
            decoder=VideoDecoderConfig(max_output_rate=1e9),
        )
        frames = AnalyticContentModel().frames(UHD_5K, 6)
        run = FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 60.0
        )
        assert run.duration == pytest.approx(
            run.stats.windows / 60.0
        )
        assert sum(run.residency_fractions().values()) == (
            pytest.approx(1.0)
        )

    def test_burstlink_degrades_not_crashes_on_slow_decoder(self):
        config = replace(
            skylake_tablet(UHD_5K),
            decoder=VideoDecoderConfig(max_output_rate=1.5e9),
        ).with_drfb()
        frames = AnalyticContentModel().frames(UHD_5K, 6)
        run = FrameWindowSimulator(config, BurstLinkScheme()).run(
            frames, 60.0
        )
        # It may or may not miss depending on the stretch policy, but
        # the run must complete and account for all time.
        assert run.duration > 0


class TestNetworkDegradation:
    def test_starved_stream_counts_underruns(self):
        frames = AnalyticContentModel().frames(FHD, 20)
        source = StreamSource(
            frames=frames, bandwidth=mbps(0.5), prebuffer_frames=1
        )
        for index in range(20):
            source.pop_frame(index / 30.0)
        assert source.underruns > 10

    def test_ample_bandwidth_has_no_underruns(self):
        frames = AnalyticContentModel().frames(FHD, 20)
        source = StreamSource(
            frames=frames, bandwidth=mbps(200), prebuffer_frames=2
        )
        start = source.startup_delay
        for index in range(20):
            source.pop_frame(start + (index + 1) / 30.0)
        assert source.underruns == 0


class TestRuntimeFallbacks:
    def test_user_input_mid_session_forces_conventional(self):
        """A PSR2 exit (touch) must flip the selector to the
        conventional scheme on the next selection."""
        registers = RegisterFile.windowed_video()
        assert select_scheme(registers).name == "windowed-video"
        registers.psr2_exited = True
        assert select_scheme(registers).name == "conventional"
        registers.psr2_exited = False
        assert select_scheme(registers).name == "windowed-video"

    def test_new_plane_mid_session_forces_conventional(self):
        registers = RegisterFile.full_screen_video()
        assert select_scheme(registers).name == "burstlink"
        registers.graphics_interrupt = True
        assert select_scheme(registers).name == "conventional"

    def test_second_app_breaks_bypass(self):
        registers = RegisterFile.full_screen_video()
        registers.open_video_session()
        assert select_scheme(registers).name != "burstlink"


class TestExtremeGeometry:
    def test_tiny_panel_still_simulates(self):
        config = SystemConfig(
            panel=replace(
                skylake_tablet(FHD).panel,
                resolution=Resolution(160, 96),
            )
        )
        frames = AnalyticContentModel().frames(
            Resolution(160, 96), 4
        )
        run = FrameWindowSimulator(config, ConventionalScheme()).run(
            frames, 30.0
        )
        assert run.stats.deadline_misses == 0

    def test_low_fps_on_high_refresh(self):
        config = skylake_tablet(FHD, refresh_hz=120.0)
        frames = AnalyticContentModel().frames(FHD, 4)
        run = FrameWindowSimulator(
            config.with_drfb(), BurstLinkScheme()
        ).run(frames, 12.0)
        # 12 FPS on 120 Hz: nine repeat windows per new frame.
        assert run.stats.repeat_windows == (
            9 * run.stats.new_frame_windows
        )


class TestFleetCrashRecovery:
    """Kill a checkpointed fleet run mid-flight with SIGKILL and prove
    ``--resume`` reconstructs the exact report the uninterrupted run
    produces — without re-simulating any completed device."""

    SPEC = {
        "fleet": {
            "devices": 48,
            "seed": 7,
            "shard_size": 4,
            "schemes": ["burstlink"],
            "content_seeds": 2,
        },
        "axes": {
            "resolution": {"values": ["FHD", "QHD"]},
            "fps": {"values": [30.0, 60.0]},
        },
        "workloads": [{"name": "stream", "kind": "video", "frames": 8}],
    }

    @staticmethod
    def _spec_file(tmp_path, devices=48):
        path = tmp_path / "fleet.toml"
        path.write_text(
            "[fleet]\n"
            f"devices = {devices}\nseed = 7\nshard_size = 4\n"
            'schemes = ["burstlink"]\ncontent_seeds = 2\n'
            "[axes.resolution]\nvalues = [\"FHD\", \"QHD\"]\n"
            "[axes.fps]\nvalues = [30.0, 60.0]\n"
            "[[workloads]]\n"
            'name = "stream"\nkind = "video"\nframes = 8\n',
            encoding="utf-8",
        )
        return path

    @staticmethod
    def _run_cli(argv, timeout_s=None):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        env["PYTHONPATH"] = src
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout_s,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        import signal
        import subprocess
        import sys
        import os
        import time

        # Enough shards that the run is still going a few shards in: a
        # 48-device fleet can finish between two polls.
        spec_file = self._spec_file(tmp_path, devices=768)
        reference = tmp_path / "reference.json"
        result = self._run_cli(
            [
                "fleet", "run", str(spec_file),
                "--jobs", "2", "--out", str(reference),
            ],
            timeout_s=600,
        )
        assert result.returncode == 0, result.stderr

        checkpoint = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "fleet", "run", str(spec_file),
                "--jobs", "2",
                "--checkpoint", str(checkpoint),
                "--progress",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        # Wait for a few shards to be checkpointed, then
        # SIGKILL — no cleanup, no atexit, mid-write is fair game.
        shards = checkpoint / "shards"
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                pytest.fail(
                    "victim finished before it could be killed; "
                    "enlarge the fleet"
                )
            if shards.is_dir() and len(list(shards.glob("*.json"))) >= 6:
                break
            time.sleep(0.05)
        else:
            pytest.fail("no shards checkpointed within the deadline")
        workers = _pool_workers(victim.pid)
        if sys.platform.startswith("linux"):
            assert len(workers) == 2, workers
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        # The orphaned pool workers notice their parent is gone and
        # exit instead of idling under init forever.
        deadline = time.monotonic() + 30
        while not all(_exited(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"pool workers outlived their killed parent: {workers}"
            )
            time.sleep(0.1)

        survivors = set(shards.glob("*.json"))
        assert survivors, "checkpoint lost its shards after SIGKILL"
        before = {
            path.name: path.stat().st_mtime_ns for path in survivors
        }

        resumed = tmp_path / "resumed.json"
        result = self._run_cli(
            [
                "fleet", "run", str(spec_file),
                "--jobs", "2",
                "--checkpoint", str(checkpoint),
                "--resume", "--out", str(resumed),
            ],
            timeout_s=600,
        )
        assert result.returncode == 0, result.stderr
        assert resumed.read_bytes() == reference.read_bytes()

        # No completed device ran twice: surviving shard files were
        # reused verbatim, not rewritten.
        for path in survivors:
            assert (
                path.stat().st_mtime_ns == before[path.name]
            ), f"{path.name} was re-simulated on resume"

    def test_report_command_reads_the_checkpoint(self, tmp_path):
        spec_file = self._spec_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        out = tmp_path / "run.json"
        result = self._run_cli(
            [
                "fleet", "run", str(spec_file),
                "--jobs", "2",
                "--checkpoint", str(checkpoint),
                "--out", str(out),
            ],
            timeout_s=600,
        )
        assert result.returncode == 0, result.stderr
        report = self._run_cli(
            ["fleet", "report", str(checkpoint), "--json"],
            timeout_s=600,
        )
        assert report.returncode == 0, report.stderr
        assert report.stdout.encode("utf-8") == out.read_bytes()

    def test_partial_checkpoint_report_exits_nonzero(self, tmp_path):
        from repro.fleet import spec_from_dict
        from repro.fleet.checkpoint import FleetCheckpoint
        from repro.fleet.pool import _simulate_range

        spec = spec_from_dict(self.SPEC)
        checkpoint = tmp_path / "ckpt"
        store = FleetCheckpoint(checkpoint)
        store.initialize(spec, resume=False)
        store.write_shard(0, 0, 4, _simulate_range(spec, 0, 4))
        report = self._run_cli(
            ["fleet", "report", str(checkpoint)], timeout_s=600
        )
        assert report.returncode == 1
        assert "incomplete" in (report.stdout + report.stderr)
