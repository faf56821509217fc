"""The multi-seed replication engine over the runner/cache substrate."""

import pytest

from repro.errors import ConfigurationError
from repro.stats.replicate import (
    EFFECT_PAIRS,
    _task_label,
    replicate_exhibits,
)


@pytest.fixture(scope="module")
def replication():
    """One shared 2-seed fan-out over the two cheapest exhibits that
    exercise both a seed-sensitive and a near-invariant metric."""
    return replicate_exhibits(["fig04", "standby"], seeds=2)


class TestReplicateExhibits:
    def test_cross_product_shape(self, replication):
        assert replication.seeds == 2
        assert len(replication.outcomes) == 4
        assert sorted(replication.results) == ["fig04", "standby"]
        assert all(
            len(results) == 2
            for results in replication.results.values()
        )

    def test_outcomes_carry_task_labels(self, replication):
        labels = [o.metrics.name for o in replication.outcomes]
        assert labels == [
            "fig04@s0", "fig04@s1", "standby@s0", "standby@s1",
        ]
        # outcome.name stays the plain exhibit name for grouping.
        assert {o.name for o in replication.outcomes} == {
            "fig04", "standby",
        }

    def test_seed_offset_restored(self, replication):
        """Each task's offset reaches only its own exhibit: seed 1
        replays through an explicit offset, and a plain run after the
        replication is the canonical seed 0."""
        from repro.analysis.runner import run_exhibit

        seed0, seed1 = replication.results["fig04"]
        assert seed0.browsing_power_mw != seed1.browsing_power_mw
        shifted = run_exhibit("fig04", seed_offset=1).result
        assert shifted.browsing_power_mw == seed1.browsing_power_mw
        canonical = run_exhibit("fig04").result
        assert canonical.browsing_power_mw == seed0.browsing_power_mw

    def test_seed_zero_matches_canonical_run(self, replication):
        from repro.analysis.runner import run_exhibit

        canonical = run_exhibit("fig04").result
        replayed = replication.results["fig04"][0]
        assert replayed.browsing_power_mw == (
            canonical.browsing_power_mw
        )

    def test_seeds_produce_distinct_content(self, replication):
        first, second = replication.results["fig04"]
        assert first.browsing_power_mw != second.browsing_power_mw

    def test_metric_samples_one_value_per_seed(self, replication):
        samples = replication.metric_samples()
        assert all(len(v) == 2 for v in samples.values())
        assert "fig04.browsing" in samples
        assert "standby.burstlink.power_mw" in samples

    def test_estimates_bracket_samples(self, replication):
        estimates = replication.estimates()
        est = estimates["fig04.browsing"]
        samples = replication.metric_samples()["fig04.browsing"]
        assert est.n == 2
        assert min(samples) <= est.mean <= max(samples)

    def test_effect_sizes_cover_present_pairs(self, replication):
        effects = replication.effect_sizes()
        # Only the standby pair's exhibits are in this replication.
        assert list(effects) == [
            "standby.burstlink.power_mw vs "
            "standby.conventional.power_mw"
        ]
        # BurstLink draws less standby power than conventional.
        assert all(d < 0 for d in effects.values())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            replicate_exhibits(["fig04"], seeds=0)
        with pytest.raises(ConfigurationError):
            replicate_exhibits(["fig04"], seeds=2, jobs=0)
        with pytest.raises(ConfigurationError):
            replicate_exhibits(["nope"], seeds=2)


class TestTaskLabel:
    def test_format(self):
        assert _task_label("fig04", 3) == "fig04@s3"


class TestEffectPairs:
    def test_pairs_reference_registered_metric_keys(self):
        # Both sides of every pair must be producible by the figure
        # registry, or the effect-size report silently goes empty.
        from repro.analysis.figures import figure_registry

        prefixes = tuple(figure_registry())
        for treatment, baseline in EFFECT_PAIRS:
            assert treatment.startswith(prefixes)
            assert baseline.startswith(prefixes)


class TestDriftIntervalReplication:
    """The drift gate's interval mode reads its per-seed anchor samples
    from a :func:`replicate_exhibits` run."""

    def test_single_seed_matches_point_check(self):
        from repro.obs.drift import check_drift, check_drift_interval

        interval = check_drift_interval(sections=("fig04",), seeds=1)
        point = check_drift(sections=("fig04",))
        assert [r.expectation.key for r in interval.rows] == [
            r.expectation.key for r in point.rows
        ]
        assert all(
            i.actual == p.actual and i.ok == p.ok
            for i, p in zip(interval.rows, point.rows)
        )

    def test_multi_seed_restores_seed_offset(self):
        from repro.obs.drift import check_drift, check_drift_interval

        before = check_drift(sections=("fig04",))
        report = check_drift_interval(sections=("fig04",), seeds=2)
        assert all(r.estimate.n == 2 for r in report.rows)
        after = check_drift(sections=("fig04",))
        assert [r.actual for r in after.rows] == [
            r.actual for r in before.rows
        ]

    def test_rejects_unknown_section(self):
        from repro.obs.drift import check_drift_interval

        with pytest.raises(ConfigurationError):
            check_drift_interval(sections=("nope",), seeds=1)

    def test_report_independent_of_jobs(self):
        from repro.obs.drift import check_drift_interval

        reports = [
            check_drift_interval(
                sections=("fig04", "table2"), seeds=2, jobs=jobs
            ).to_dict()
            for jobs in (1, 2)
        ]
        assert reports[0] == reports[1]
