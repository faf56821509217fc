"""Cross-process observability: worker telemetry, merges, progress."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import dist
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.dist import (
    ProgressMonitor,
    absorb_trace,
    merge_groups,
    merge_worker_metrics,
    normalize_events,
    normalized_jsonl,
    run_worker_task,
)
from repro.obs.trace import Tracer


@pytest.fixture
def fresh_worker_state():
    """Restore the global registry after tests that run worker tasks
    in-process (each task resets it, as a pool worker's would)."""
    snapshot = obs_metrics.registry().snapshot()
    obs_metrics.registry().reset()
    yield
    obs_metrics.registry().reset()
    obs_metrics.registry().merge_snapshot(snapshot)


def _task(name="alpha", windows=2):
    """A traced unit of work: one span, one nested event, a counter."""
    tracer = obs_trace.active()
    if tracer is not None:
        with tracer.span("exhibit", exhibit=name):
            for index in range(windows):
                with tracer.span(
                    "sim.window", t=index * 0.1, index=index
                ):
                    tracer.event("sim.segment", t=index * 0.1 + 0.05)
    obs_metrics.registry().counter("sim.windows").inc(windows)
    return name


def _group(task_index, returned):
    """The task group the fan-out builds from one returned task."""
    _, worker, events, _ = returned
    return dist.TaskGroup(worker, task_index, "test", events)


class TestWorkerSide:
    def test_shard_and_metrics_written(self, fresh_worker_state):
        result, worker, events, snapshot = run_worker_task(
            lambda: _task("alpha"), collect_trace=True
        )
        assert result == "alpha"
        assert worker > 0
        names = [e["name"] for e in events if e["kind"] == "B"]
        assert names == ["exhibit", "sim.window", "sim.window"]
        assert snapshot["sim.windows"]["value"] == 2

    def test_snapshot_holds_one_task_only(self, fresh_worker_state):
        run_worker_task(lambda: _task("alpha", 2), collect_trace=False)
        *_, snapshot = run_worker_task(
            lambda: _task("beta", 3), collect_trace=False
        )
        assert snapshot["sim.windows"]["value"] == 3

    def test_worker_registry_reset_once_per_task(self):
        # Forked pool workers inherit the parent's registry and run
        # several tasks each; every task starts from an empty
        # registry, so only that task's own work merges back.
        registry = obs_metrics.registry()
        noise = registry.counter("fanout_test.noise")
        noise.inc(99)
        noise_before = noise.value
        calls = registry.counter("fanout_test.calls")
        calls_before = calls.value
        dist.fan_out("test", [1, 2, 3, 4], _square, 2)
        assert noise.value == noise_before
        assert calls.value == calls_before + 4

    def test_no_shard_without_collect_trace(self, fresh_worker_state):
        _, _, events, snapshot = run_worker_task(
            lambda: _task("alpha"), collect_trace=False
        )
        assert events == []
        # Metrics still come home — the merge path works untraced.
        assert snapshot["sim.windows"]["value"] == 2


class TestMerge:
    def _record_two_tasks(self):
        """Two tasks' groups and snapshots, in request order."""
        alpha = run_worker_task(lambda: _task("alpha", 2), True)
        beta = run_worker_task(lambda: _task("beta", 1), True)
        return (
            [_group(0, alpha), _group(1, beta)],
            [alpha[3], beta[3]],
        )

    def test_groups_ordered_by_task_index(self):
        # Tasks finish in any order; the fan-out merges their events
        # in request order.
        with obs_trace.tracing() as tracer:
            dist.fan_out("test", ["a", "b", "c", "d"], _task, 2)
        tasks = [e["task"] for e in tracer.events if "task" in e]
        assert tasks == sorted(tasks)
        assert sorted(set(tasks)) == [0, 1, 2, 3]

    def test_absorb_renumbers_into_parent(self, fresh_worker_state):
        groups, _ = self._record_two_tasks()
        parent = Tracer()
        parent.event("exhibits.fanout", workers=2)
        absorbed = absorb_trace(parent, groups)
        assert absorbed == len(parent.events) - 1
        seqs = [e["seq"] for e in parent.events]
        assert seqs == list(range(len(parent.events)))
        # Worker events carry the w tag; the parent's own do not.
        assert "w" not in parent.events[0]
        assert all("w" in e for e in parent.events[1:])
        # Span ends still reference their renumbered starts.
        for event in parent.events:
            if event["kind"] == "E":
                start = parent.events[event["span"]]
                assert start["kind"] == "B"

    def test_absorb_nests_under_open_parent_span(
        self, fresh_worker_state
    ):
        returned = run_worker_task(lambda: _task("alpha"), True)
        parent = Tracer()
        outer = parent.begin_span("suite")
        absorb_trace(parent, [_group(0, returned)])
        parent.end_span(outer)
        roots = [
            e for e in parent.events
            if e["kind"] == "B" and e["name"] == "exhibit"
        ]
        assert all(e["parent"] == outer for e in roots)

    def test_merge_groups_assigns_stable_worker_indexes(self):
        def group(worker, task):
            tracer = Tracer()
            with tracer.span("exhibit", exhibit=f"t{task}"):
                pass
            return dist.TaskGroup(worker, task, "test", tracer.events)

        merged = merge_groups(
            [group(4242, 0), group(1111, 1)]
        )
        by_task = {e["task"]: e["w"] for e in merged}
        # Worker ids sort (1111 < 4242) into 1-based indexes.
        assert by_task == {0: 2, 1: 1}

    def test_metrics_merge_sums_workers(self, fresh_worker_state):
        _, snapshots = self._record_two_tasks()
        registry = obs_metrics.MetricsRegistry()
        merged = merge_worker_metrics(registry, snapshots)
        assert merged == 2
        assert registry.counter("sim.windows").value == 3


class TestNormalization:
    def test_strips_worker_tags_and_renumbers(self):
        tracer = Tracer()
        with tracer.span("exhibit", exhibit="x"):
            tracer.counter("cache.miss")
        tagged = [
            {**event, "w": 3, "task": 7} for event in tracer.events
        ]
        # Offset the ids as a merge would.
        for event in tagged:
            event["seq"] += 100
            if "span" in event:
                event["span"] += 100
            if "parent" in event:
                event["parent"] += 100
        assert normalized_jsonl(tagged) == tracer.to_jsonl()

    def test_strips_volatile_attrs(self):
        a = Tracer()
        a.event("exhibits.fanout", workers=1, selected=3)
        b = Tracer()
        b.event("exhibits.fanout", workers=4, selected=3)
        assert normalized_jsonl(a.events) == normalized_jsonl(b.events)

    def test_drops_dangling_parent_references(self):
        events = [
            {"seq": 5, "kind": "I", "name": "orphan", "parent": 2}
        ]
        (normalized,) = normalize_events(events)
        assert normalized["seq"] == 0
        assert "parent" not in normalized


class TestProgressMonitor:
    def test_feed_renders_start_and_done(self):
        lines = []
        monitor = ProgressMonitor(lines.append, total=2)
        monitor.start("fig01")
        monitor.finish(
            "fig01", 0,
            {"wall_s": 0.25, "hits": 1, "misses": 2, "windows": 8},
        )
        assert lines[0] == "fig01 started"
        assert lines[1] == (
            "[1/2] fig01 done in 0.25s "
            "(hits=1 misses=2 windows=8) [worker 0]"
        )


class TestIngestGuards:
    def test_ingest_rejects_discontinuous_seq(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.ingest([{"seq": 5, "kind": "I", "name": "x"}])


def _square(value):
    obs_metrics.registry().counter("fanout_test.calls").inc()
    return value * value


def _fail_on_two(value):
    if value == 2:
        raise ValueError("task two failed")
    return value


class TestFanOut:
    """One fan-out engine, identical behaviour in-process and pooled."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_request_order(self, jobs):
        tasks = [3, 1, 4, 1, 5]
        assert dist.fan_out("test", tasks, _square, jobs) == [
            9, 1, 16, 1, 25,
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_callback_sees_each_index_once(self, jobs):
        seen = []
        results = dist.fan_out(
            "test", [2, 3, 4], _square, jobs,
            on_result=lambda index, result: seen.append(
                (index, result)
            ),
        )
        assert sorted(seen) == list(enumerate(results))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_start_and_done_heartbeat_per_task(
        self, jobs, tmp_path, monkeypatch
    ):
        import re
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        lines = []
        dist.fan_out(
            "test", [1, 2, 3], _square, jobs, progress=lines.append
        )
        started = [
            re.fullmatch(r"(\S+) started", line)
            for line in lines
        ]
        done = [
            re.fullmatch(r"\[\d/3\] (\S+) done \[worker \d+\]", line)
            for line in lines
        ]
        assert len(lines) == 6
        for matches in (started, done):
            assert sorted(m[1] for m in matches if m) == ["1", "2", "3"]
        assert not list(tmp_path.glob("repro-shards-*"))

    def test_done_line_precedes_next_start(self):
        # One task per free worker: a task starts only once an earlier
        # one's done line has freed its worker.
        lines = []
        dist.fan_out(
            "test", [1, 2, 3, 4, 5], _square, 2, progress=lines.append
        )
        assert lines[:2] == ["1 started", "2 started"]
        in_flight = 0
        for line in lines:
            in_flight += 1 if line.endswith(" started") else -1
            assert 0 <= in_flight <= 2
        assert in_flight == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_metrics_merge_into_parent(self, jobs):
        counter = obs_metrics.registry().counter("fanout_test.calls")
        before = counter.value
        dist.fan_out("test", [1, 2, 3, 4], _square, jobs)
        assert counter.value == before + 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_task_propagates_and_cleans_up(
        self, jobs, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match="task two failed"):
            dist.fan_out("test", [1, 2, 3], _fail_on_two, jobs)
        assert not list(tmp_path.glob("repro-shards-*"))

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigurationError):
            dist.fan_out("test", [1], _square, 0)
