"""The fleet engine: fan-out, checkpointing, resume, telemetry."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet import run_fleet
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.pool import _simulate_range
from repro.fleet.spec import spec_from_dict
from repro.obs import metrics as obs_metrics
from repro.obs.export import prometheus_text


def small_spec(devices=12, shard_size=4, **overrides):
    return spec_from_dict(
        {
            "fleet": {
                "devices": devices,
                "seed": 5,
                "shard_size": shard_size,
                "schemes": ["burstlink"],
                "content_seeds": 2,
                **overrides,
            },
            "axes": {
                "resolution": {"values": ["FHD", "QHD"]},
                "fps": {"values": [30.0, 60.0]},
            },
            "workloads": [
                {"name": "stream", "kind": "video", "frames": 8}
            ],
        }
    )


class TestEngine:
    def test_parallel_report_matches_sequential_bytes(self):
        spec = small_spec()
        sequential = run_fleet(spec, jobs=1)
        parallel = run_fleet(spec, jobs=3)
        assert (
            parallel.aggregate.report_json()
            == sequential.aggregate.report_json()
        )
        assert parallel.workers == 3

    def test_covers_every_device(self):
        spec = small_spec(devices=10, shard_size=3)
        outcome = run_fleet(spec, jobs=1)
        assert outcome.aggregate.devices == 10
        assert outcome.devices_simulated == 10
        assert outcome.shards_simulated == 4
        assert outcome.aggregate.report()["fleet"]["complete"]

    def test_jobs_validation(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_fleet(small_spec(), jobs=0)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ConfigurationError, match="--checkpoint"):
            run_fleet(small_spec(), resume=True)

    def test_fleet_metrics_flow_to_prometheus(self):
        registry = obs_metrics.registry()
        registry.reset()
        run_fleet(small_spec(devices=4, shard_size=2), jobs=1)
        snapshot = registry.snapshot()
        assert snapshot["fleet.devices_simulated"]["value"] == 4
        assert snapshot["fleet.shards_completed"]["value"] == 2
        text = prometheus_text(registry)
        assert "repro_fleet_devices_simulated_total 4" in text
        assert "repro_fleet_shard_wall_s_count 2" in text

    def test_worker_metrics_merge_into_parent(self):
        registry = obs_metrics.registry()
        registry.reset()
        run_fleet(small_spec(devices=8, shard_size=2), jobs=2)
        snapshot = registry.snapshot()
        assert snapshot["fleet.devices_simulated"]["value"] == 8
        assert snapshot["fleet.shards_completed"]["value"] == 4


class TestCheckpoint:
    def test_fresh_run_populates_the_directory(self, tmp_path):
        spec = small_spec()
        run_fleet(spec, jobs=1, checkpoint=tmp_path)
        store = FleetCheckpoint(tmp_path)
        assert store.load_spec() == spec
        assert store.completed_shards() == {0, 1, 2}
        cursor = store.read_cursor()
        assert cursor["devices_done"] == 12
        assert cursor["shards_done"] == 3

    def test_resume_skips_checkpointed_shards(self, tmp_path):
        spec = small_spec()
        baseline = run_fleet(spec, jobs=1).aggregate.report_json()
        store = FleetCheckpoint(tmp_path)
        store.initialize(spec, resume=False)
        store.write_shard(0, 0, 4, _simulate_range(spec, 0, 4))
        outcome = run_fleet(
            spec, jobs=2, checkpoint=tmp_path, resume=True
        )
        assert outcome.devices_resumed == 4
        assert outcome.devices_simulated == 8
        assert outcome.shards_resumed == 1
        assert outcome.aggregate.report_json() == baseline

    def test_resume_counts_nothing_twice(self, tmp_path):
        registry = obs_metrics.registry()
        spec = small_spec()
        run_fleet(spec, jobs=1, checkpoint=tmp_path)
        registry.reset()
        outcome = run_fleet(
            spec, jobs=1, checkpoint=tmp_path, resume=True
        )
        assert outcome.devices_simulated == 0
        assert outcome.devices_resumed == 12
        snapshot = registry.snapshot()
        assert "fleet.devices_simulated" not in snapshot
        assert snapshot["fleet.devices_resumed"]["value"] == 12

    def test_existing_checkpoint_needs_resume_flag(self, tmp_path):
        spec = small_spec()
        run_fleet(spec, jobs=1, checkpoint=tmp_path)
        with pytest.raises(ConfigurationError, match="--resume"):
            run_fleet(spec, jobs=1, checkpoint=tmp_path)

    def test_foreign_spec_rejected(self, tmp_path):
        run_fleet(small_spec(), jobs=1, checkpoint=tmp_path)
        with pytest.raises(
            ConfigurationError, match="different fleet spec"
        ):
            run_fleet(
                small_spec(seed=99),
                jobs=1,
                checkpoint=tmp_path,
                resume=True,
            )

    def test_changed_shard_size_detected(self, tmp_path):
        spec = small_spec(shard_size=4)
        run_fleet(spec, jobs=1, checkpoint=tmp_path)
        resized = small_spec(shard_size=6)
        with pytest.raises(
            ConfigurationError, match="different fleet spec"
        ):
            run_fleet(
                resized, jobs=1, checkpoint=tmp_path, resume=True
            )

    def test_growing_the_fleet_extends_the_checkpoint(
        self, tmp_path
    ):
        spec = small_spec(devices=8)
        run_fleet(spec, jobs=1, checkpoint=tmp_path)
        grown = spec.with_devices(12)
        outcome = run_fleet(
            grown, jobs=1, checkpoint=tmp_path, resume=True
        )
        assert outcome.devices_resumed == 8
        assert outcome.devices_simulated == 4
        assert (
            outcome.aggregate.report_json()
            == run_fleet(grown, jobs=1).aggregate.report_json()
        )

    def test_shard_files_survive_json_round_trip(self, tmp_path):
        spec = small_spec(devices=4, shard_size=4)
        run_fleet(spec, jobs=1, checkpoint=tmp_path)
        store = FleetCheckpoint(tmp_path)
        (start, stop), shard = store.read_shard(spec, 0)
        assert (start, stop) == (0, 4)
        assert shard.devices == 4
        raw = json.loads(
            store.shard_file(0).read_text(encoding="utf-8")
        )
        assert raw["aggregate"] == shard.to_payload()


class TestProgress:
    def test_progress_lines_stream(self):
        lines = []
        run_fleet(
            small_spec(devices=8, shard_size=4),
            jobs=1,
            progress=lines.append,
        )
        started = [line for line in lines if "started" in line]
        done = [line for line in lines if "done" in line]
        assert len(started) == 2
        assert len(done) == 2
        assert "[2/2]" in done[-1]

    def test_progress_streams_under_fanout(self):
        lines = []
        run_fleet(
            small_spec(devices=8, shard_size=2),
            jobs=2,
            progress=lines.append,
        )
        assert sum("done" in line for line in lines) == 4
