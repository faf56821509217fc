"""The validation command: Sec. 5.3 accuracy + the paper-drift gate."""

from __future__ import annotations

import argparse

from ..errors import ConfigurationError


def cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    """The Sec. 5.3 accuracy table plus the paper-drift gate (exits
    non-zero when any anchor leaves its tolerance band).  With
    ``--seeds N`` every anchor is re-measured under N content seeds
    and gated on CI-vs-paper-band overlap instead of the point
    check.  The accuracy table is read from the report's Sec. 5.3
    rows, so it shows whenever the selected sections measure all of
    them (accuracy of the seed mean under ``--seeds N``)."""
    from ..obs import drift

    if args.seeds < 1:
        raise ConfigurationError(f"--seeds must be >= 1, got {args.seeds}")
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    sections = (
        tuple(args.section) if args.section else drift.DRIFT_SECTIONS
    )
    if args.seeds > 1:
        report = drift.check_drift_interval(
            sections=sections, seeds=args.seeds, jobs=args.jobs
        )
    else:
        report = drift.check_drift(sections=sections, jobs=args.jobs)
    validated = bool(report.accuracy_rows())
    code = 0 if report.ok else 1
    if args.json:
        import json as json_module

        payload: dict = {"drift": report.to_dict(), "ok": report.ok}
        if validated:
            payload["validation"] = report.accuracy_dict()
        return json_module.dumps(payload, indent=2, sort_keys=True), code
    parts = []
    if validated:
        parts.append(report.accuracy_summary())
    parts.append(report.summary())
    return "\n\n".join(parts), code


__all__ = ["cmd_validate"]
