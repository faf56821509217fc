"""The exact perf gate: per-exhibit work counts pinned in a text file.

Every exhibit does an exact, deterministic amount of simulation work:
runs, refresh windows, fresh plans (``sim.collapse.miss``), reports
priced and cache traffic.  Unlike wall-clock time these counts do not
move with host speed, so they are compared exactly against
``tests/golden/work_counts.json``.  A change that makes an exhibit do
more (or less) work fails here and names the exhibit and the counter.

Re-pinning after an intended change (say why in the commit)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_work_counts.py

Timing claims go through ``perfbench/`` alternating pairs instead.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.runner import (
    configure_cache,
    run_exhibit,
    select_exhibits,
)
from repro.core import BurstLinkScheme
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pipeline import ConventionalScheme, sim

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden" / "work_counts.json"
)


def _counters() -> dict[str, float]:
    return {
        name: state["value"]
        for name, state in obs_metrics.registry().snapshot().items()
        if state["type"] == "counter"
    }


def work_counts(names=None) -> dict[str, dict[str, int]]:
    """Each exhibit's nonzero delta of every registry counter, from a
    cold in-memory cache and no tracer, run in registry order.  The
    previous memo and tracer are restored after."""
    previous_memo = sim.active_run_memo()
    previous_tracer = obs_trace.install(None)
    configure_cache()
    counts = {}
    try:
        for name in select_exhibits(names):
            before = _counters()
            run_exhibit(name)
            deltas = {
                key: value - before.get(key, 0)
                for key, value in _counters().items()
            }
            counts[name] = {
                key: int(delta)
                for key, delta in deltas.items()
                if delta
            }
    finally:
        sim.install_run_memo(previous_memo)
        obs_trace.install(previous_tracer)
    return counts


def render(counts: dict[str, dict[str, int]]) -> str:
    return json.dumps(counts, indent=2, sort_keys=True) + "\n"


def mismatches(pinned, got) -> list[str]:
    """One ``exhibit / counter: pinned -> got`` line per difference
    (``-`` marks a count absent on one side)."""
    lines = []
    for name in sorted(set(pinned) | set(got)):
        old, new = pinned.get(name, {}), got.get(name, {})
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                lines.append(
                    f"{name} / {key}: {old.get(key, '-')} -> "
                    f"{new.get(key, '-')}"
                )
    return lines


def check_work_counts(names=None) -> None:
    """Fail, naming every drifted ``exhibit / counter``, unless the
    selected exhibits' counts equal their pins.  A subset starts from
    its own cold cache, so it matches the pins only for exhibits that
    share no runs with earlier ones (``standby`` and ``table2`` do
    not)."""
    got = work_counts(names)
    if names is None and os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(render(got), encoding="utf-8")
    assert GOLDEN.exists(), (
        f"missing {GOLDEN}; pin it with REPRO_UPDATE_GOLDEN=1"
    )
    text = GOLDEN.read_text(encoding="utf-8")
    pinned = json.loads(text)
    if names is not None:
        pinned = {name: pinned.get(name, {}) for name in got}
    drift = mismatches(pinned, got)
    assert not drift, (
        "exhibit work counts drifted from "
        f"{GOLDEN.name}:\n  " + "\n  ".join(drift) + "\nif the change "
        "is intended, re-pin with REPRO_UPDATE_GOLDEN=1 and say why"
    )
    assert names is not None or text == render(got), (
        f"{GOLDEN.name} is not in canonical form; re-pin it with "
        "REPRO_UPDATE_GOLDEN=1"
    )


def test_work_counts_match_pin():
    check_work_counts()


def test_plan_group_replay_off_is_caught(monkeypatch):
    """A seeded regression: with plan-group replay off, ``standby``
    plans thousands of windows it used to replay, which a wall-clock
    band cannot see but the pinned counts do."""
    monkeypatch.setattr(BurstLinkScheme, "plan_key", None)
    with pytest.raises(AssertionError) as failure:
        check_work_counts(["standby"])
    assert "standby / sim.collapse.miss" in str(failure.value)


def test_plan_reads_off_is_caught(monkeypatch):
    """A seeded regression: with the staged-stream keys off, table2's
    unique-frame clips plan every window fresh again, which the pinned
    fresh-plan count catches."""
    monkeypatch.setattr(ConventionalScheme, "plan_reads", None)
    monkeypatch.setattr(BurstLinkScheme, "plan_reads", None)
    with pytest.raises(AssertionError) as failure:
        check_work_counts(["table2"])
    assert "table2 / sim.collapse.miss" in str(failure.value)


def test_gate_ignores_ambient_state(tmp_path):
    """What ``REPRO_CACHE_DIR`` (a warm disk cache) and ``REPRO_TRACE``
    (an active tracer) set up does not change the counts the gate
    measures."""
    previous = sim.active_run_memo()
    try:
        configure_cache(directory=tmp_path)
        run_exhibit("table2")
        with obs_trace.tracing():
            check_work_counts(["table2"])
    finally:
        sim.install_run_memo(previous)
