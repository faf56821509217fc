"""Fleet spec loading and validation."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.fleet.spec import (
    AxisSpec,
    FleetSpec,
    WorkloadSpec,
    load_spec,
    spec_from_dict,
)

GOLDEN_SPEC = (
    Path(__file__).resolve().parent.parent
    / "golden"
    / "fleet_small.toml"
)


def small_spec(**overrides) -> FleetSpec:
    data = {
        "fleet": {
            "devices": 16,
            "seed": 3,
            "shard_size": 4,
            "schemes": ["burstlink"],
            **overrides,
        }
    }
    return spec_from_dict(data)


class TestLoading:
    def test_golden_spec_loads(self):
        spec = load_spec(GOLDEN_SPEC)
        assert spec.devices == 64
        assert spec.shard_size == 16
        assert spec.baseline == "conventional"
        assert spec.schemes == ("burstlink", "bursting")
        assert [w.name for w in spec.workloads] == [
            "stream", "animation", "ambient",
        ]
        assert spec.resolution.values == ("FHD", "QHD", "4K")
        assert spec.refresh_hz.weights == (3.0, 1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec(tmp_path / "absent.toml")

    def test_devices_required(self):
        with pytest.raises(ConfigurationError, match="devices"):
            spec_from_dict({"fleet": {"seed": 1}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fleet"):
            spec_from_dict(
                {"fleet": {"devices": 4, "divices": 9}}
            )

    def test_unknown_workload_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            spec_from_dict(
                {
                    "fleet": {"devices": 4},
                    "workloads": [
                        {"name": "w", "kind": "video", "frame": 3}
                    ],
                }
            )


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            small_spec(schemes=["warp-drive"])

    def test_baseline_repeated_in_candidates(self):
        with pytest.raises(ConfigurationError, match="repeated"):
            small_spec(schemes=["conventional"])

    def test_unknown_resolution(self):
        with pytest.raises(
            ConfigurationError, match="unknown resolution"
        ):
            spec_from_dict(
                {
                    "fleet": {"devices": 4},
                    "axes": {"resolution": {"values": ["8K"]}},
                }
            )

    def test_infeasible_panel_mode_rejected_at_load(self):
        """5K at 120 Hz exceeds the eDP link budget — the spec must
        fail eagerly, not one shard into a million-device run."""
        with pytest.raises(ConfigurationError):
            spec_from_dict(
                {
                    "fleet": {"devices": 4},
                    "axes": {
                        "resolution": {"values": ["5K"]},
                        "refresh_hz": {"values": [120.0]},
                    },
                }
            )

    def test_unknown_content(self):
        with pytest.raises(ConfigurationError, match="content"):
            WorkloadSpec("w", "video", content="vapor")

    def test_unknown_workload_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            WorkloadSpec("w", "render")

    def test_duplicate_workload_names(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            spec_from_dict(
                {
                    "fleet": {"devices": 4},
                    "workloads": [
                        {"name": "w", "kind": "video"},
                        {"name": "w", "kind": "standby"},
                    ],
                }
            )

    def test_weight_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="weights"):
            spec_from_dict(
                {
                    "fleet": {"devices": 4},
                    "axes": {
                        "resolution": {
                            "values": ["FHD", "QHD"],
                            "weights": [1.0],
                        }
                    },
                }
            )

    def test_nonpositive_weight(self):
        with pytest.raises(ConfigurationError, match="> 0"):
            AxisSpec("fps", (30.0,), (0.0,))

    def test_standby_update_fps_beyond_refresh(self):
        with pytest.raises(ConfigurationError, match="update_fps"):
            spec_from_dict(
                {
                    "fleet": {"devices": 4},
                    "axes": {"refresh_hz": {"values": [60.0]}},
                    "workloads": [
                        {
                            "name": "w",
                            "kind": "standby",
                            "update_fps": 90.0,
                        }
                    ],
                }
            )


class TestFingerprint:
    def test_device_count_is_excluded(self):
        """Growing a fleet extends a checkpoint, never invalidates."""
        a = small_spec()
        b = a.with_devices(1_000_000)
        assert a.fingerprint() == b.fingerprint()
        assert b.devices == 1_000_000

    def test_sampling_changes_move_the_fingerprint(self):
        a = small_spec()
        assert a.fingerprint() != small_spec(seed=4).fingerprint()
        assert (
            a.fingerprint()
            != small_spec(schemes=["bursting"]).fingerprint()
        )

    def test_payload_round_trips(self):
        spec = load_spec(GOLDEN_SPEC)
        again = spec_from_dict(spec.to_payload())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()


class TestShardRanges:
    def test_covers_every_device_exactly_once(self):
        spec = small_spec(devices=10, shard_size=4)
        assert spec.shard_ranges() == [(0, 4), (4, 8), (8, 10)]

    def test_single_shard(self):
        spec = small_spec(devices=3, shard_size=100)
        assert spec.shard_ranges() == [(0, 3)]
