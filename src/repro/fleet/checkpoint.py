"""Atomic fleet checkpoints: crash-safe shard state and the resume
cursor.

Layout of a checkpoint directory::

    spec.json                  # the spec payload + fingerprint
    cursor.json                # advisory progress (devices done, ...)
    shards/shard_00000042.json # one completed shard's aggregate

Each shard file holds the aggregate of one contiguous device range
``[start, stop)`` and is written with the tmp-file + ``os.replace``
dance, so a ``kill -9`` leaves either the complete previous state or
the complete new state — never a torn file.  The set of shard files
*is* the authoritative cursor: resume re-simulates exactly the shard
indexes with no file, and the final report folds shard aggregates in
shard-index order, which makes an interrupted-and-resumed run's report
byte-identical to an uninterrupted one regardless of where the crash
landed.  ``cursor.json`` is advisory denormalized progress for humans
and the ``fleet report`` command.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from .aggregate import FleetAggregate
from .spec import FleetSpec, spec_from_dict

_SPEC_FILE = "spec.json"
_CURSOR_FILE = "cursor.json"
_SHARD_DIR = "shards"


def _write_atomic(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True)
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=path.parent,
        prefix=f".{path.name}-",
        suffix=".tmp",
        delete=False,
        encoding="utf-8",
    )
    tmp_name = handle.name
    try:
        with handle:
            handle.write(blob)
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


class FleetCheckpoint:
    """One run's checkpoint directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    @property
    def spec_path(self) -> Path:
        return self.directory / _SPEC_FILE

    @property
    def cursor_path(self) -> Path:
        return self.directory / _CURSOR_FILE

    def shard_file(self, index: int) -> Path:
        return (
            self.directory / _SHARD_DIR / f"shard_{index:08d}.json"
        )

    # -- lifecycle -------------------------------------------------------

    def initialize(self, spec: FleetSpec, resume: bool) -> None:
        """Bind the directory to ``spec``.

        A fresh run writes ``spec.json``; a resumed run instead
        validates that the on-disk spec draws the same population
        (same fingerprint — the device count may differ, see
        :meth:`FleetSpec.fingerprint`) and rewrites the spec so the
        directory reflects the current device count.
        """
        existing = self.load_spec()
        if existing is not None:
            if existing.fingerprint() != spec.fingerprint():
                raise ConfigurationError(
                    f"checkpoint {self.directory} was taken under a "
                    "different fleet spec (fingerprint "
                    f"{existing.fingerprint()} != "
                    f"{spec.fingerprint()}); use a fresh "
                    "--checkpoint directory"
                )
            if not resume:
                raise ConfigurationError(
                    f"checkpoint {self.directory} already exists; "
                    "pass --resume to continue it"
                )
        _write_atomic(
            self.spec_path,
            {
                "fingerprint": spec.fingerprint(),
                "spec": spec.to_payload(),
            },
        )

    def load_spec(self) -> FleetSpec | None:
        """The spec this directory was initialized with, if any."""
        try:
            payload = json.loads(
                self.spec_path.read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"unreadable checkpoint spec {self.spec_path}: "
                f"{error}"
            ) from None
        return spec_from_dict(payload["spec"])

    # -- shards ----------------------------------------------------------

    def write_shard(
        self,
        index: int,
        start: int,
        stop: int,
        aggregate: FleetAggregate,
    ) -> None:
        """Atomically persist one completed shard's aggregate."""
        _write_atomic(
            self.shard_file(index),
            {
                "shard": index,
                "start": start,
                "stop": stop,
                "aggregate": aggregate.to_payload(),
            },
        )

    def read_shard(
        self, spec: FleetSpec, index: int
    ) -> tuple[tuple[int, int], FleetAggregate]:
        """One completed shard's device range and aggregate."""
        path = self.shard_file(index)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"unreadable checkpoint shard {path}: {error}"
            ) from None
        aggregate = FleetAggregate.from_payload(
            spec, payload["aggregate"]
        )
        return (
            (int(payload["start"]), int(payload["stop"])),
            aggregate,
        )

    def completed_shards(self) -> set[int]:
        """Indexes of every durably completed shard."""
        shard_dir = self.directory / _SHARD_DIR
        completed: set[int] = set()
        if not shard_dir.is_dir():
            return completed
        for path in shard_dir.glob("shard_*.json"):
            try:
                completed.add(int(path.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                continue
        return completed

    # -- the advisory cursor ---------------------------------------------

    def write_cursor(
        self, devices_done: int, shards_done: int, total_shards: int
    ) -> None:
        """Refresh the advisory progress cursor."""
        _write_atomic(
            self.cursor_path,
            {
                "devices_done": devices_done,
                "shards_done": shards_done,
                "total_shards": total_shards,
            },
        )

    def read_cursor(self) -> dict[str, int] | None:
        """The advisory cursor, if one was written."""
        try:
            payload = json.loads(
                self.cursor_path.read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return None
        return {key: int(value) for key, value in payload.items()}


__all__ = ["FleetCheckpoint"]
