"""The validation command: Sec. 5.3 accuracy + the paper-drift gate."""

from __future__ import annotations

import argparse

from ..errors import ConfigurationError
from ..power.validation import validate_against_paper


def cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    """The Sec. 5.3 accuracy table plus the paper-drift gate (exits
    non-zero when any anchor leaves its tolerance band).  With
    ``--seeds N`` every anchor is re-measured under N content seeds
    and gated on CI-vs-paper-band overlap instead of the point
    check."""
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
    validation = validate_against_paper() if not args.section else None
    code = 0 if report.ok else 1
    if args.json:
        import json as json_module

        payload: dict = {"drift": report.to_dict(), "ok": report.ok}
        if validation is not None:
            payload["validation"] = {
                "mean_accuracy": validation.mean_accuracy,
                "anchors": [
                    {
                        "name": anchor.name,
                        "paper": anchor.paper_value,
                        "model": anchor.model_value,
                        "unit": anchor.unit,
                        "accuracy": anchor.accuracy,
                    }
                    for anchor in validation.anchors
                ],
            }
        return json_module.dumps(payload, indent=2, sort_keys=True), code
    parts = []
    if validation is not None:
        parts.append(validation.summary())
    parts.append(report.summary())
    return "\n\n".join(parts), code


__all__ = ["cmd_validate"]
