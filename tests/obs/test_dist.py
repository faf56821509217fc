"""Cross-process observability: shard protocol, merges, progress."""

import json
from pathlib import Path

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
    new_context,
    normalize_events,
    normalized_jsonl,
    progress_record,
    read_shards,
    read_worker_metrics,
    run_worker_task,
)
from repro.obs.trace import Tracer


@pytest.fixture
def context():
    ctx = new_context("test", collect_trace=True, heartbeat=True)
    yield ctx
    dist.cleanup(ctx)


@pytest.fixture
def fresh_worker_state():
    """Reset the global registry so each test behaves like a freshly
    initialized pool worker."""
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


class TestTraceContext:
    def test_context_is_picklable(self, context):
        import pickle

        assert pickle.loads(pickle.dumps(context)) == context


class TestWorkerSide:
    def test_shard_and_metrics_written(
        self, context, fresh_worker_state
    ):
        result = run_worker_task(
            context, 0, "alpha", lambda: _task("alpha")
        )
        assert result == "alpha"
        groups = read_shards(context)
        assert len(groups) == 1
        assert groups[0].namespace == "test"
        names = [
            e["name"] for e in groups[0].events if e["kind"] == "B"
        ]
        assert names == ["exhibit", "sim.window", "sim.window"]
        snapshots = read_worker_metrics(context)
        assert snapshots[0]["sim.windows"]["value"] == 2

    def test_worker_registry_reset_once_per_run(self):
        # Forked pool workers inherit the parent's registry; the pool
        # initializer resets it, so only their own work merges back.
        registry = obs_metrics.registry()
        noise = registry.counter("fanout_test.noise")
        noise.inc(99)
        noise_before = noise.value
        calls = registry.counter("fanout_test.calls")
        calls_before = calls.value
        dist.fan_out("test", [1, 2, 3, 4], _square, 2)
        assert noise.value == noise_before
        assert calls.value == calls_before + 4

    def test_heartbeats_stream_start_and_done(
        self, context, fresh_worker_state
    ):
        run_worker_task(
            context, 0, "alpha", lambda: _task("alpha"),
            summarize=lambda result: {"wall_s": 0.5},
        )
        files = sorted(
            Path(context.shard_dir).glob("*.hb.jsonl")
        )
        assert len(files) == 1
        records = [
            json.loads(line)
            for line in files[0].read_text().splitlines()
        ]
        assert [r["event"] for r in records] == ["start", "done"]
        assert records[1]["wall_s"] == 0.5

    def test_no_shard_without_collect_trace(self, fresh_worker_state):
        ctx = new_context("test", collect_trace=False)
        try:
            run_worker_task(ctx, 0, "alpha", lambda: _task("alpha"))
            assert read_shards(ctx) == []
            # Metrics still publish — the merge path works untraced.
            assert read_worker_metrics(ctx)
        finally:
            dist.cleanup(ctx)


class TestMerge:
    def _record_two_tasks(self, context):
        run_worker_task(context, 1, "beta", lambda: _task("beta", 1))
        run_worker_task(
            context, 0, "alpha", lambda: _task("alpha", 2)
        )

    def test_groups_ordered_by_task_index(
        self, context, fresh_worker_state
    ):
        self._record_two_tasks(context)
        groups = read_shards(context)
        assert [g.task for g in groups] == [0, 1]

    def test_absorb_renumbers_into_parent(
        self, context, fresh_worker_state
    ):
        self._record_two_tasks(context)
        parent = Tracer()
        parent.event("exhibits.fanout", workers=2)
        absorbed = absorb_trace(parent, context)
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
        self, context, fresh_worker_state
    ):
        run_worker_task(context, 0, "alpha", lambda: _task("alpha"))
        parent = Tracer()
        outer = parent.begin_span("suite")
        absorb_trace(parent, context)
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

    def test_metrics_merge_sums_workers(
        self, context, fresh_worker_state
    ):
        self._record_two_tasks(context)
        registry = obs_metrics.MetricsRegistry()
        merged = merge_worker_metrics(registry, context)
        assert merged == 1  # same pid -> one worker snapshot
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
        monitor.feed(progress_record("start", 0, "fig01"))
        monitor.feed(
            progress_record(
                "done", 0, "fig01",
                wall_s=0.25, hits=1, misses=2, windows=8,
            )
        )
        assert lines[0] == "fig01 started [worker 0]"
        assert lines[1] == (
            "[1/2] fig01 done in 0.25s "
            "(hits=1 misses=2 windows=8) [worker 0]"
        )

    def test_poll_reads_incrementally(
        self, context, fresh_worker_state
    ):
        lines = []
        monitor = ProgressMonitor(lines.append, total=2)
        run_worker_task(context, 0, "a", lambda: _task("a"))
        assert monitor.poll(context) == 2
        run_worker_task(context, 1, "b", lambda: _task("b"))
        # Only the new records render on the second poll.
        assert monitor.poll(context) == 2
        assert monitor.poll(context) == 0
        assert monitor.done == 2


class TestIngestGuards:
    def test_ingest_rejects_discontinuous_seq(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.ingest([{"seq": 5, "kind": "I", "name": "x"}])


class TestTailCompleteLines:
    """Torn-write tolerance for live heartbeat ingestion."""

    def _heartbeat(self, event, index):
        return json.dumps(
            {"event": event, "index": index, "name": f"shard-{index}"}
        )

    def test_truncated_final_record_is_deferred(self, tmp_path):
        path = tmp_path / "w.hb.jsonl"
        whole = self._heartbeat("start", 0) + "\n"
        torn = self._heartbeat("done", 0)
        # A writer died (or is still writing) mid-record: no newline.
        path.write_bytes((whole + torn[: len(torn) // 2]).encode())
        records, offset = dist.tail_complete_lines(path, 0)
        assert [r["event"] for r in records] == ["start"]
        assert offset == len(whole.encode())
        # The writer finishes the line; a re-poll from the returned
        # offset picks up exactly the completed record.
        path.write_bytes((whole + torn + "\n").encode())
        records, offset = dist.tail_complete_lines(path, offset)
        assert [r["event"] for r in records] == ["done"]
        assert offset == len((whole + torn).encode()) + 1

    def test_corrupt_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "w.hb.jsonl"
        path.write_text(
            "{not json}\n" + self._heartbeat("start", 1) + "\n"
        )
        records, offset = dist.tail_complete_lines(path, 0)
        assert [r["index"] for r in records] == [1]
        assert offset == path.stat().st_size

    def test_missing_file_returns_nothing(self, tmp_path):
        records, offset = dist.tail_complete_lines(
            tmp_path / "absent.hb.jsonl", 7
        )
        assert records == []
        assert offset == 7


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
            re.fullmatch(r"(\S+) started \[worker \d+\]", line)
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
