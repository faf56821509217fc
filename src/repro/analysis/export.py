"""Result serialization: timelines, energy reports, and comparison
tables to JSON and CSV, for plotting and downstream analysis outside
Python."""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Sequence

from ..errors import SimulationError
from ..pipeline.sim import RunResult
from ..pipeline.timeline import Timeline
from ..power.model import EnergyReport


def check_finite(records: Sequence[dict[str, Any]]) -> None:
    """Reject records carrying non-finite floats.

    NaN serializes as bare ``NaN`` in JSON (invalid per RFC 8259) and
    as the string ``"nan"`` in CSV, both of which downstream tooling
    reads as silent data corruption — so exports fail loudly instead.
    """
    for index, record in enumerate(records):
        for name, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SimulationError(
                    f"non-finite value {value!r} for field {name!r} "
                    f"in record {index}; refusing to export"
                )


def records_to_csv(
    records: Sequence[dict[str, Any]],
    fieldnames: Sequence[str] | None = None,
) -> str:
    """Records as CSV text (header + one row each), finite-checked.

    ``fieldnames`` pins the column order; it defaults to the first
    record's key order.
    """
    if not records:
        raise SimulationError("cannot export zero records")
    check_finite(records)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=list(fieldnames or records[0])
    )
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue()


def timeline_to_records(timeline: Timeline) -> list[dict[str, Any]]:
    """One flat record per segment (JSON/CSV-friendly)."""
    return [
        {
            "start_s": segment.start,
            "end_s": segment.end,
            "state": segment.state.label,
            "label": segment.label,
            "transition": segment.transition,
            "dram_read_bw": segment.dram_read_bw,
            "dram_write_bw": segment.dram_write_bw,
            "edp_rate": segment.edp_rate,
            "cpu_active": segment.cpu_active,
            "gpu_active": segment.gpu_active,
            "vd_mode": segment.vd_mode.value,
            "dc_active": segment.dc_active,
            "panel_mode": segment.panel_mode.value,
            "drfb_active": segment.drfb_active,
        }
        for segment in timeline
    ]


def timeline_to_csv(timeline: Timeline) -> str:
    """The timeline as CSV text (header + one row per segment).

    Raises :class:`~repro.errors.SimulationError` on an empty timeline
    or on segments carrying non-finite floats (which would otherwise
    land in the CSV as unparseable ``nan``/``inf`` cells).
    """
    records = timeline_to_records(timeline)
    if not records:
        raise SimulationError("cannot export an empty timeline")
    return records_to_csv(records)


def report_to_dict(report: EnergyReport) -> dict[str, Any]:
    """An energy report as a JSON-ready dictionary."""
    return {
        "scheme": report.scheme,
        "duration_s": report.duration_s,
        "total_energy_mj": report.total_energy_mj,
        "average_power_mw": report.average_power_mw,
        "transition_energy_mj": report.transition_energy_mj,
        "dram_read_bytes": report.dram_read_bytes,
        "dram_write_bytes": report.dram_write_bytes,
        "by_component_mj": dict(report.by_component_mj),
        "by_state": {
            row.state.label: {
                "residency_s": row.residency_s,
                "residency_fraction": row.residency_fraction,
                "average_power_mw": row.average_power_mw,
                "energy_mj": row.energy_mj,
            }
            for row in report.table2_rows()
        },
    }


def run_to_dict(run: RunResult,
                report: EnergyReport | None = None) -> dict[str, Any]:
    """A whole simulated run as a JSON-ready dictionary (energy report
    attached when provided)."""
    payload: dict[str, Any] = {
        "scheme": run.scheme,
        "video_fps": run.video_fps,
        "duration_s": run.duration,
        "panel": {
            "resolution": str(run.config.panel.resolution),
            "refresh_hz": run.config.panel.refresh_hz,
            "drfb": run.config.panel.has_drfb,
        },
        "stats": {
            "windows": run.stats.windows,
            "new_frame_windows": run.stats.new_frame_windows,
            "repeat_windows": run.stats.repeat_windows,
            "deadline_misses": run.stats.deadline_misses,
            "vd_wakes": run.stats.vd_wakes,
            "psr_windows": run.stats.psr_windows,
            "bypassed_windows": run.stats.bypassed_windows,
            "burst_windows": run.stats.burst_windows,
        },
        "residency": {
            state.label: fraction
            for state, fraction in run.residency_fractions().items()
        },
        "dram_total_bytes": run.dram_total_bytes,
        "edp_bytes": run.edp_bytes,
    }
    if report is not None:
        payload["energy"] = report_to_dict(report)
    return payload


def to_json(payload: Any, indent: int = 2) -> str:
    """Serialize an export dictionary to JSON text.

    Non-finite floats raise :class:`~repro.errors.SimulationError`
    instead of emitting bare ``NaN``/``Infinity`` tokens, which are
    not valid JSON and break every strict parser downstream.
    """
    try:
        return json.dumps(
            payload, indent=indent, sort_keys=True, allow_nan=False
        )
    except ValueError as error:
        raise SimulationError(
            f"non-finite float in JSON export payload: {error}"
        ) from error
