"""The parallel experiment engine: cache semantics, registry, metrics."""

import json

import pytest

from repro.analysis import runner
from repro.analysis.runner import (
    ExhibitOutcome,
    ExperimentMetrics,
    SimulationCache,
    cache_disabled,
    exhibit_registry,
    metrics_table,
    run_exhibit,
    run_exhibits,
    run_from_payload,
    run_to_payload,
)
from repro.config import FHD, skylake_tablet
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracing
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import install_run_memo, run_fingerprint
from repro.video.source import AnalyticContentModel


def _simulate(frame_count=6, seed=1):
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, frame_count, seed=seed)
    return FrameWindowSimulator(
        config, ConventionalScheme()
    ).run(frames, 30.0, retain="full")


def _counter(name):
    registry = obs_metrics.registry()
    return registry.get(name).value if name in registry else 0


@pytest.fixture
def counted():
    """``counted(name)``: how far the registry counter ``name`` has
    grown since the test began."""
    names = ("cache.hit", "cache.miss", "cache.store", "sim.windows")
    before = {name: _counter(name) for name in names}
    return lambda name: _counter(name) - before[name]


def _disk_hits(tracer):
    return sum(
        1
        for event in tracer.events
        if event["name"] == "cache.hit"
        and event["attrs"]["layer"] == "disk"
    )


@pytest.fixture
def isolated_cache():
    """A private cache installed for the test's duration."""
    cache = SimulationCache()
    previous = install_run_memo(cache)
    yield cache
    install_run_memo(previous)


class TestSimulationCache:
    def test_miss_then_hit(self, isolated_cache, counted):
        first = _simulate()
        assert counted("cache.miss") == 1
        assert counted("cache.store") == 1
        second = _simulate()
        assert counted("cache.hit") == 1
        assert first.stats == second.stats
        assert list(first.timeline) == list(second.timeline)

    def test_windows_counted_on_miss_only(self, isolated_cache, counted):
        run = _simulate()
        _simulate()
        assert counted("sim.windows") == run.stats.windows

    def test_different_inputs_different_entries(
        self, isolated_cache, counted
    ):
        _simulate(seed=1)
        _simulate(seed=2)
        assert counted("cache.miss") == 2
        assert len(isolated_cache) == 2

    def test_loads_are_defensive_copies(self, isolated_cache):
        _simulate()
        tampered = _simulate()
        tampered.stats.windows = -1
        tampered.timeline.segments.clear()
        clean = _simulate()
        assert clean.stats.windows > 0
        assert len(clean.timeline) > 0

    def test_lru_eviction(self, counted):
        cache = SimulationCache(capacity=2)
        previous = install_run_memo(cache)
        try:
            _simulate(seed=1)
            _simulate(seed=2)
            _simulate(seed=3)
            assert len(cache) == 2
            _simulate(seed=1)  # evicted -> a fresh miss
            assert counted("cache.miss") == 4
        finally:
            install_run_memo(previous)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            SimulationCache(capacity=0)

    def test_cache_disabled_bypasses(self, isolated_cache, counted):
        with cache_disabled():
            run = _simulate()
        assert run.cache_key is None
        assert counted("cache.miss") == 0
        assert len(isolated_cache) == 0


class TestDiskCache:
    def test_round_trip_is_exact(self, tmp_path):
        previous = install_run_memo(SimulationCache(directory=tmp_path))
        try:
            original = _simulate()
            assert len(list(tmp_path.glob("*.json"))) == 1
            # A brand-new process-equivalent: empty memory, same disk.
            install_run_memo(SimulationCache(directory=tmp_path))
            with tracing() as tracer:
                reloaded = _simulate()
            assert _disk_hits(tracer) == 1
            assert reloaded.stats == original.stats
            assert list(reloaded.timeline) == list(original.timeline)
            assert reloaded.config == original.config
        finally:
            install_run_memo(previous)

    def test_payload_round_trip(self):
        with cache_disabled():
            run = _simulate()
        payload = json.loads(json.dumps(run_to_payload(run)))
        rebuilt = run_from_payload(payload)
        assert rebuilt.scheme == run.scheme
        assert rebuilt.config == run.config
        assert rebuilt.stats == run.stats
        assert list(rebuilt.timeline) == list(run.timeline)

    def test_payload_round_trip_vr_run(self):
        """A VR run (projection work, headset config) must survive the
        disk-cache serializers exactly."""
        from repro.core import BurstLinkScheme
        from repro.workloads.vr import VR_WORKLOADS, build_vr_setup

        setup = build_vr_setup(VR_WORKLOADS["Elephant"], frame_count=3)
        with cache_disabled():
            run = FrameWindowSimulator(
                setup.config.with_drfb(), BurstLinkScheme()
            ).run(
                setup.frames, 30.0, vr_work=setup.vr_work,
                retain="full",
            )
        payload = json.loads(json.dumps(run_to_payload(run)))
        rebuilt = run_from_payload(payload)
        assert rebuilt.scheme == run.scheme
        assert rebuilt.config == run.config
        assert rebuilt.stats == run.stats
        assert rebuilt.video_fps == run.video_fps
        assert list(rebuilt.timeline) == list(run.timeline)

    def test_payload_round_trip_fallback_run(self):
        """A run under the Sec. 4.1 fallback (selector forced back to
        the conventional path) round-trips exactly, stats included."""
        from repro.core.fallback import select_scheme
        from repro.soc.registers import RegisterFile

        registers = RegisterFile.full_screen_video()
        registers.psr2_exited = True  # fallback trigger 2
        scheme = select_scheme(registers)
        assert scheme.name == "conventional"
        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 4, seed=9)
        with cache_disabled():
            run = FrameWindowSimulator(config, scheme).run(
                frames, 30.0, retain="full"
            )
        payload = json.loads(json.dumps(run_to_payload(run)))
        rebuilt = run_from_payload(payload)
        assert rebuilt.stats == run.stats
        assert rebuilt.config == run.config
        assert list(rebuilt.timeline) == list(run.timeline)

    def test_payload_round_trip_summary_only_run(self):
        """A retain="summary" run serializes with ``segments: null``
        and restores with identical aggregates and power."""
        from repro.power import PowerModel

        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 6, seed=1)
        with cache_disabled():
            run = FrameWindowSimulator(
                config, ConventionalScheme()
            ).run(frames, 30.0, retain="summary")
        assert run.timeline is None
        payload = json.loads(json.dumps(run_to_payload(run)))
        assert payload["segments"] is None
        rebuilt = run_from_payload(payload)
        assert rebuilt.timeline is None
        assert rebuilt.stats == run.stats
        assert rebuilt.summary is not None
        assert rebuilt.summary.windows == run.summary.windows
        assert rebuilt.summary.window_counts == (
            run.summary.window_counts
        )
        assert rebuilt.duration == run.duration
        assert rebuilt.residency_fractions() == (
            run.residency_fractions()
        )
        assert PowerModel().report(rebuilt).total_energy_mj == (
            PowerModel().report(run).total_energy_mj
        )

    def test_payload_round_trip_psr_and_burst_stats(self):
        """A BurstLink run exercises the psr/bypass/burst stat fields
        the planar conventional round-trip leaves at zero."""
        from repro.core import BurstLinkScheme

        config = skylake_tablet(FHD).with_drfb()
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        with cache_disabled():
            run = FrameWindowSimulator(
                config, BurstLinkScheme()
            ).run(frames, 30.0, retain="full")
        assert run.stats.psr_windows > 0
        payload = json.loads(json.dumps(run_to_payload(run)))
        rebuilt = run_from_payload(payload)
        assert rebuilt.stats == run.stats
        assert list(rebuilt.timeline) == list(run.timeline)

    def test_corrupt_entry_is_overwritten_by_next_store(self, tmp_path):
        """A truncated entry (crashed worker) is ignored on load and
        replaced by a clean one on the next store."""
        cache = SimulationCache(directory=tmp_path)
        previous = install_run_memo(cache)
        try:
            run = _simulate()
            path = tmp_path / f"{run.cache_key}.json"
            path.write_text('{"format": 1, "scheme": "conv', "utf-8")
            install_run_memo(SimulationCache(directory=tmp_path))
            with tracing() as tracer:
                again = _simulate()  # corrupt entry -> miss -> re-store
            assert _disk_hits(tracer) == 0
            assert [e["name"] for e in tracer.events].count(
                "cache.miss"
            ) == 1
            assert again.stats == run.stats
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert run_from_payload(payload).stats == run.stats
        finally:
            install_run_memo(previous)

    def test_store_never_leaves_temp_files(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        previous = install_run_memo(cache)
        try:
            _simulate()
        finally:
            install_run_memo(previous)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_failed_store_cleans_up_temp_file(self, tmp_path, monkeypatch):
        """If the write itself dies, no temp or partial target file may
        survive to poison later loads."""
        cache = SimulationCache(directory=tmp_path)

        def explode(payload, handle):
            handle.write('{"format": 1, "scheme": "conv')  # partial...
            raise OSError("disk full")

        monkeypatch.setattr(runner.json, "dump", explode)
        previous = install_run_memo(cache)
        try:
            run = _simulate()  # store's disk write fails silently
        finally:
            install_run_memo(previous)
        assert run.cache_key is not None
        assert list(tmp_path.iterdir()) == []  # no tmp, no partial json
        monkeypatch.undo()
        # And the cache still works end to end afterwards.
        cache.store(run.cache_key, run)
        assert (tmp_path / f"{run.cache_key}.json").exists()

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = SimulationCache(directory=tmp_path)
        previous = install_run_memo(cache)
        try:
            run = _simulate()
            path = tmp_path / f"{run.cache_key}.json"
            path.write_text("{not json", encoding="utf-8")
            install_run_memo(SimulationCache(directory=tmp_path))
            again = _simulate()
            assert again.stats == run.stats
            assert not path.exists() or json.loads(
                path.read_text(encoding="utf-8")
            )
        finally:
            install_run_memo(previous)


class TestUnfingerprintableInputs:
    def test_unfreezable_scheme_bypasses_cache(self, isolated_cache):
        def opaque():
            scheme = ConventionalScheme()
            scheme.blob = lambda: None  # unfreezable attribute
            return scheme

        config = skylake_tablet(FHD)
        frames = AnalyticContentModel().frames(FHD, 4, seed=1)
        assert run_fingerprint(config, opaque(), frames, 30.0) is None
        run = FrameWindowSimulator(config, opaque()).run(frames, 30.0)
        assert run.cache_key is None
        assert len(isolated_cache) == 0


class TestExhibitEngine:
    def test_registry_is_complete(self):
        assert len(exhibit_registry()) == 18
        from repro.analysis import experiments

        for name, function in exhibit_registry().items():
            assert function.__module__ == experiments.__name__

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(ConfigurationError):
            run_exhibit("fig99")
        with pytest.raises(ConfigurationError):
            run_exhibits(("fig01", "fig99"))

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_exhibits(("fig01",), jobs=0)

    def test_exhibit_runs_keep_no_timeline(
        self, isolated_cache, monkeypatch
    ):
        """Exhibits run summary-first; only the figures that draw
        segments keep their runs' timelines."""
        kept = []
        simulate = FrameWindowSimulator.run

        def recording_run(self, *args, **kwargs):
            run = simulate(self, *args, **kwargs)
            kept.append(run.timeline is not None)
            return run

        monkeypatch.setattr(FrameWindowSimulator, "run", recording_run)
        outcomes = run_exhibits(("standby", "table2"))
        assert outcomes[0].name == "standby"
        assert 0 < outcomes[0].result.reduction < 1
        assert kept and not any(kept)
        kept.clear()
        run_exhibit("fig03")
        assert kept and all(kept)

    def test_negative_seed_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            run_exhibits(["table2"], seed_offset=-1)
        with pytest.raises(ConfigurationError):
            run_exhibit("table2", seed_offset=-1)

    def test_metrics_track_cache_activity(self, isolated_cache):
        cold = run_exhibit("fig01")
        warm = run_exhibit("fig01")
        assert cold.metrics.cache_misses > 0
        assert cold.metrics.windows_simulated > 0
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.cache_hits == cold.metrics.cache_misses
        assert warm.metrics.windows_simulated == 0
        assert cold.result == warm.result

    def test_uncached_windows_are_jobs_invariant(self):
        """Under fan-out the cost fields still read the simulated
        windows, even with no cache to count them."""
        with cache_disabled():
            sequential, pooled = (
                [
                    outcome.metrics.windows_simulated
                    for outcome in run_exhibits(
                        ["fig01", "table2"], jobs=jobs
                    )
                ]
                for jobs in (1, 2)
            )
        assert all(windows > 0 for windows in sequential)
        assert pooled == sequential

    def test_metrics_table_totals(self):
        outcomes = [
            ExhibitOutcome(
                "a", None, ExperimentMetrics("a", 1.5, 2, 3, 40)
            ),
            ExhibitOutcome(
                "b", None, ExperimentMetrics("b", 0.5, 1, 1, 10)
            ),
        ]
        table = metrics_table(outcomes)
        assert "total" in table
        assert "2.00" in table  # summed wall-clock
        assert "50" in table  # summed windows

    def test_default_cache_installed_on_import(self):
        assert runner.active_cache() is not None


@pytest.fixture
def preserved_registry():
    """Snapshot and restore the process-wide metrics registry (the
    fan-out merges worker metrics into it)."""
    from repro.obs import metrics as obs_metrics

    saved = obs_metrics.registry().snapshot()
    obs_metrics.registry().reset()
    yield obs_metrics.registry()
    obs_metrics.registry().reset()
    obs_metrics.registry().merge_snapshot(saved)


class TestParallelTraceParity:
    """The shard-merge regression gate: a traced ``jobs=2`` run must be
    telemetry-equivalent to the sequential run — same span multiset,
    same normalized byte stream, same aggregated counters."""

    EXHIBITS = ("fig01", "table2")

    def _traced_run(self, jobs):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_metrics.registry().reset()
        with cache_disabled(), obs_trace.tracing() as tracer:
            outcomes = run_exhibits(self.EXHIBITS, jobs=jobs)
        counters = {
            name: state["value"]
            for name, state in obs_metrics.registry()
            .snapshot()
            .items()
            if state["type"] == "counter"
        }
        return outcomes, tracer.events, counters

    def test_parallel_trace_matches_sequential(
        self, preserved_registry
    ):
        from repro.obs.dist import normalized_jsonl

        seq_outcomes, seq_events, seq_counters = self._traced_run(1)
        par_outcomes, par_events, par_counters = self._traced_run(2)

        # Same results, in request order.
        assert [o.name for o in par_outcomes] == [
            o.name for o in seq_outcomes
        ]
        assert [o.result for o in par_outcomes] == [
            o.result for o in seq_outcomes
        ]

        # Same span multiset...
        def span_multiset(events):
            names = {}
            for event in events:
                if event["kind"] == "B":
                    names[event["name"]] = (
                        names.get(event["name"], 0) + 1
                    )
            return names

        assert span_multiset(par_events) == span_multiset(seq_events)
        # ...and in fact byte-identical after normalization.
        assert normalized_jsonl(par_events) == normalized_jsonl(
            seq_events
        )
        # Aggregated counters match exactly.
        assert par_counters == seq_counters
        assert par_counters  # non-trivial: the run did count things

    def test_fanout_event_records_actual_worker_count(
        self, preserved_registry
    ):
        from repro.obs import trace as obs_trace

        with cache_disabled(), obs_trace.tracing() as tracer:
            run_exhibits(self.EXHIBITS, jobs=8)
        (fanout,) = [
            e for e in tracer.events
            if e.get("name") == "exhibits.fanout"
        ]
        # 8 jobs requested, but only 2 exhibits selected.
        assert fanout["attrs"]["workers"] == 2
        assert fanout["attrs"]["selected"] == 2
