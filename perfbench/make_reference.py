"""Regenerate ``reference.json``: the default-seed simulated outputs of
the first ops of every video and standby run, which the benchmark
checks those ops against.

Run from the repository root after an intended change to simulated
outputs, and review the diff like any other change::

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.analysis.runner import cache_disabled  # noqa: E402

import ops  # noqa: E402


def main() -> None:
    reference = {"video_unique": {}, "standby_ambient": {}}
    with cache_disabled():
        for index in range(ops.REFERENCE_OPS):
            clip = ops.video_input(ops.DEFAULT_SEED, index)
            reference["video_unique"][clip.key] = ops.video_outputs(
                ops.video_op(clip)
            )
            session = ops.standby_input(ops.DEFAULT_SEED, index)
            reference["standby_ambient"][session.key] = (
                ops.standby_outputs(ops.standby_op(session))
            )
    path = HERE / "reference.json"
    path.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
