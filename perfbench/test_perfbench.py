"""Tests of the host-time benchmark itself.

Run from the repository root (about two minutes; the exhibit workload
regenerates every exhibit several times)::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from repro.analysis.runner import cache_disabled

import layers
import ops
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def outputs_of(workload: str) -> dict:
    path = run.OUT_DIR / f"outputs-{workload}-s{SEED}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def first_runs() -> dict:
    """One short untraced run per workload, with its outputs."""
    runs = {}
    for workload in run.WORKLOADS:
        completed = bench(
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "0",
        )
        runs[workload] = (completed, outputs_of(workload))
    return runs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(first_runs, workload):
    completed, _ = first_runs[workload]
    result = result_line(completed)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = completed.stdout
    for name in [*expected, "regen_cold_s", "regen_warm_s", "error_rate"]:
        assert f"  {name} " in text
    assert "ops" in text.splitlines()[0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_metrics_printed_with_units(workload):
    result = result_line(
        bench(
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1",
        )
    )
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    assert abs(result["metrics"]["unaccounted.share"]["value"]) < 0.05


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_simulated_outputs_repeat_between_runs(first_runs, workload):
    _, first = first_runs[workload]
    result_line(
        bench(
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "0",
        )
    )
    second = outputs_of(workload)
    common = set(first) & set(second)
    assert common
    assert {key: first[key] for key in common} == {
        key: second[key] for key in common
    }


def test_perturbed_reference_counts_as_error(tmp_path):
    state = run.setup("video_unique", ops.DEFAULT_SEED, tmp_path)
    with cache_disabled():
        clean = run.measure_simulated(state, seconds=0.01)
        assert clean.attempted >= 1 and clean.failed == 0
        key = state.input(0).key
        state.reference[key]["burstlink"]["energy_mj"]["panel"] *= (
            1 + 1e-6
        )
        perturbed = run.measure_simulated(state, seconds=0.01)
    assert perturbed.failed / perturbed.attempted > 0
    assert any("reference" in problem for problem in perturbed.problems)


def test_inputs_are_fresh_per_op_and_repeat_per_seed():
    for make in (ops.video_input, ops.standby_input):
        first = [make(SEED, index) for index in range(20)]
        assert first == [make(SEED, index) for index in range(20)]
        assert len({item.key for item in first}) == 20
        assert make(SEED, 0) != make(SEED + 1, 0)
    clips = [ops.video_input(SEED, index) for index in range(16)]
    assert len({clip.frames for clip in clips}) == 16


def test_wrapper_cost_is_charged_to_no_layer():
    clock = layers.LayerClock((0.5, 0.25, 0.0))
    wrapped = layers._timed(clock, "callee", lambda: None)
    with clock.op(0) as frame:
        wrapped()
        assert list(layers._TimedIterator(iter([1, 2]), clock)) == [1, 2]
    assert clock.wrapper_s == 0.5 + 3 * 0.25
    total = sum(clock.self_s.values()) + clock.wrapper_s
    assert total == pytest.approx(frame.wall_s, abs=1e-9)
    call, pull, span = layers.wrapper_costs(calls=2000, rounds=3)
    assert 0.0 < call < 1e-4 and 0.0 < pull < 1e-4 and span >= 0.0


def test_share_range_brackets_the_unexplained_overhead():
    # 10 s traced, 8 s untraced, 1 s of calibrated wrapper cost: the
    # other 1 s may or may not sit in the layer's 5 s.
    low, high = run.share_range(5.0, 10.0, 8.0, 1.0)
    assert (low, high) == (0.5, 0.625)
    assert run.share_range(5.0, 10.0, 9.5, 1.0) == (5.0 / 9.0, 5.0 / 9.0)


def test_regen_checks_compare_warm_cold_and_golden():
    records = {"table2": [{"value": 1.0}]}
    golden_pass = ops.RegenPass(
        wall_s=1.0, kernel_before_s=[0.01], kernel_after_s=[0.01], run_s=1.0,
        records=records, csvs={"table2": "a\n"},
        windows=1, busy_s=1.0, reductions={}, layer_s={},
    )
    op = ops.RegenOp(cold=golden_pass, warm=golden_pass)
    assert ops.check_regen(op, {"table2": b"a\n"}, op) == []
    assert ops.check_regen(op, {"table2": b"b\n"}, None)
    drifted = ops.RegenPass(**{
        **vars(golden_pass), "records": {"table2": [{"value": 2.0}]},
    })
    assert ops.check_regen(ops.RegenOp(cold=golden_pass, warm=drifted),
                           None, None)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label == "p90.0 of 100"
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (
        3.75, "p75 of 4 (fewer than 41 ops)"
    )
    # Eleven values: the percentile with ten beyond would be the minimum.
    assert run.tail([float(i) for i in range(11)]) == (
        8.0, "p75 of 11 (fewer than 41 ops)"
    )
    value, label = run.tail([float(i) for i in range(41)])
    assert value == 30.0 and label == "p75.6 of 41"


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = bench(
        "--workload", "video_unique", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
