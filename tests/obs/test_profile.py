"""The energy-attribution profiler: forest, ledger, reconciliation."""

import dataclasses
import json

import pytest

from repro.errors import SimulationError
from repro.obs.golden import capture_trace
from repro.obs.profile import (
    OUTSIDE_WINDOWS,
    RECONCILE_RTOL,
    build_span_forest,
    energy_ledger,
    iter_spans,
    percentile,
    profile_capture,
    profile_exhibit,
    reconcile,
    render_profile,
    span_time_stats,
    traced_component_energies,
    window_spans,
    window_stats,
)
from repro.obs.trace import Tracer
from repro.pipeline.timeline import TimelineSummary
from repro.power.model import (
    COMPONENT_IDS,
    COMPONENT_KEYS,
    component_id,
    state_id,
)
from repro.soc.cstates import PackageCState


@pytest.fixture(scope="module")
def burstlink_profile():
    return profile_exhibit("burstlink")


class TestSpanForest:
    def test_nested_spans_reassemble(self):
        tracer = Tracer()
        outer = tracer.begin_span("outer", t=0.0)
        inner = tracer.begin_span("inner", t=0.1)
        tracer.event("tick", t=0.15)
        tracer.end_span(inner, t=0.2)
        tracer.end_span(outer, t=1.0)
        roots, root_events = build_span_forest(tracer.events)
        assert len(roots) == 1 and not root_events
        (root,) = roots
        assert root.name == "outer" and root.duration == 1.0
        (child,) = root.children
        assert child.name == "inner"
        assert child.events[0]["name"] == "tick"

    def test_unclosed_span_survives(self):
        tracer = Tracer()
        tracer.begin_span("never.ends", t=0.0)
        roots, _ = build_span_forest(tracer.events)
        assert roots[0].closed is False
        assert roots[0].duration is None

    def test_end_without_begin_ignored(self):
        events = [{"seq": 0, "kind": "E", "name": "", "span": 99}]
        roots, root_events = build_span_forest(events)
        assert roots == [] and root_events == []

    def test_events_outside_spans_go_to_root(self):
        tracer = Tracer()
        tracer.event("orphan", t=0.0)
        tracer.counter("hits")
        roots, root_events = build_span_forest(tracer.events)
        assert roots == []
        assert [e["name"] for e in root_events] == ["orphan", "hits"]

    def test_iter_spans_walks_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        roots, _ = build_span_forest(tracer.events)
        assert [n.name for n in iter_spans(roots)] == ["a", "b", "c"]


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 99) == 3.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_rejects_out_of_range(self):
        with pytest.raises(SimulationError):
            percentile([1.0], 101)


class TestStableIds:
    def test_component_ids_pinned(self):
        # The append-only contract: existing ids must never change.
        assert COMPONENT_IDS["soc_floor"] == 0
        assert COMPONENT_IDS["always_on"] == 1
        assert COMPONENT_IDS["cpu"] == 2
        assert COMPONENT_IDS["panel"] == 7
        assert COMPONENT_IDS["transition"] == 12
        assert len(COMPONENT_IDS) == len(COMPONENT_KEYS)
        assert sorted(COMPONENT_IDS.values()) == list(
            range(len(COMPONENT_KEYS))
        )

    def test_component_id_rejects_unknown(self):
        with pytest.raises(SimulationError):
            component_id("flux_capacitor")

    def test_state_id_accepts_enum_and_string(self):
        assert state_id(PackageCState.C7) == "C7"
        assert state_id("C9") == "C9"

    def test_state_id_rejects_unknown(self):
        with pytest.raises(SimulationError):
            state_id("C99")


class TestWindowJoin:
    def test_window_spans_sorted_with_kinds(self):
        tracer, _ = capture_trace("conventional")
        roots, _ = build_span_forest(tracer.events)
        windows = window_spans(roots)
        assert windows
        starts = [w.start_t for w in windows]
        assert starts == sorted(starts)
        assert {w.kind for w in windows} <= {"new_frame", "repeat"}

    def test_window_stats_rows(self):
        tracer, _ = capture_trace("conventional")
        roots, _ = build_span_forest(tracer.events)
        stats = window_stats(roots)
        for kind in stats.kinds():
            count, p50, p90, p99, worst = stats.row(kind)
            assert count > 0
            assert 0 < p50 <= p90 <= p99 <= worst


class TestLedger:
    def test_reconciles_with_traced_report(self, burstlink_profile):
        recon = burstlink_profile.reconciliation
        assert recon.ok
        # The acceptance bar is 0.1%; the join is exact, so we hold it
        # to the reconciliation tolerance itself.
        assert recon.total_rel_err <= RECONCILE_RTOL
        assert recon.max_component_rel_err <= RECONCILE_RTOL

    def test_ledger_total_matches_model_report(self, burstlink_profile):
        assert burstlink_profile.ledger.total_mj == pytest.approx(
            burstlink_profile.total_energy_mj, rel=1e-9
        )

    def test_rollups_sum_to_total(self, burstlink_profile):
        ledger = burstlink_profile.ledger
        for rollup in (
            ledger.by_component(),
            ledger.by_state(),
            ledger.by_window_kind(),
        ):
            assert sum(rollup.values()) == pytest.approx(
                ledger.total_mj, rel=1e-9
            )

    def test_window_kinds_cover_the_run(self, burstlink_profile):
        kinds = burstlink_profile.ledger.by_window_kind()
        assert "new_frame" in kinds and "repeat" in kinds

    def test_top_rows_descending(self, burstlink_profile):
        rows = burstlink_profile.ledger.top_rows(limit=10)
        energies = [row.energy_mj for row in rows]
        assert energies == sorted(energies, reverse=True)
        assert all(e > 0 for e in energies)

    def test_segments_outside_windows_attributed(self):
        # A summary folded from a bare timeline carries no window kinds:
        # everything lands in the "outside" bucket rather than dropping
        # energy.
        _, run = capture_trace("conventional")
        bare = dataclasses.replace(
            run, summary=TimelineSummary.from_timeline(run.timeline)
        )
        ledger = energy_ledger(bare)
        kinds = ledger.by_window_kind()
        assert set(kinds) == {OUTSIDE_WINDOWS}
        assert kinds[OUTSIDE_WINDOWS] == pytest.approx(
            ledger.total_mj
        )

    def test_mismatch_detected(self):
        tracer, run = capture_trace("conventional")
        roots, _ = build_span_forest(tracer.events)
        ledger = energy_ledger(run)
        traced = traced_component_energies(roots)
        traced["panel"] *= 1.5  # simulate a drifted power report
        assert not reconcile(ledger, traced).ok


class TestExhibitProfile:
    def test_span_stats_cover_the_pipeline(self, burstlink_profile):
        names = set(burstlink_profile.span_stats)
        assert {"sim.run", "sim.window", "power.report"} <= names
        run_stat = burstlink_profile.span_stats["sim.run"]
        window_stat = burstlink_profile.span_stats["sim.window"]
        # Windows tile the run: their total equals the run's duration,
        # and the run span's self time is fully explained by them.
        assert window_stat.total_s == pytest.approx(
            run_stat.total_s, rel=1e-9
        )
        assert run_stat.self_s == pytest.approx(0.0, abs=1e-12)

    def test_to_dict_round_trips_as_json(self, burstlink_profile):
        payload = json.loads(burstlink_profile.to_json())
        assert payload["exhibit"] == "burstlink"
        assert payload["reconciliation"]["ok"] is True
        assert payload["ledger"]
        for row in payload["ledger"]:
            assert row["component_id"] == COMPONENT_IDS[row["component"]]

    def test_render_mentions_reconciliation(self, burstlink_profile):
        text = render_profile(burstlink_profile)
        assert "Energy attribution" in text
        assert "reconciliation:" in text and "[OK]" in text

    def test_profile_capture_matches_exhibit(self):
        tracer, run = capture_trace("vr")
        profile = profile_capture("vr", tracer, run)
        assert profile.scheme == run.scheme
        assert profile.reconciliation.ok
