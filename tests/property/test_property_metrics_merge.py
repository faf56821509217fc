"""Property-based tests for cross-process metrics merging.

The fan-out (:mod:`repro.obs.dist`) folds one registry snapshot per
worker task into the parent, however the tasks were spread over the
workers, so the merge must be order-independent: commutative,
associative, and with the empty registry as identity.  Counters and bucket counts
use integer strategies so equality is exact (float addition would only
commute approximately).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry

#: Small shared bucket layout — merges require identical bounds.
BOUNDS = (1.0, 10.0, 100.0)

counter_values = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=0, max_value=1_000),
    max_size=3,
)

observations = st.lists(
    st.integers(min_value=0, max_value=500).map(
        lambda n: n / 2  # halves keep exact float arithmetic
    ),
    max_size=30,
)


def registry_from(counters, observed):
    reg = MetricsRegistry()
    for name, value in counters.items():
        reg.counter(name).inc(value)
    for value in observed:
        reg.histogram("lat", buckets=BOUNDS).observe(value)
    return reg


def merged(*registries):
    out = MetricsRegistry()
    for reg in registries:
        out.merge(reg)
    return out


@given(counter_values, counter_values, observations, observations)
@settings(max_examples=50, deadline=None)
def test_merge_is_commutative(ca, cb, oa, ob):
    a = registry_from(ca, oa)
    b = registry_from(cb, ob)
    assert (
        merged(a, b).snapshot() == merged(b, a).snapshot()
    )


@given(
    counter_values, counter_values, counter_values,
    observations, observations, observations,
)
@settings(max_examples=50, deadline=None)
def test_merge_is_associative(ca, cb, cc, oa, ob, oc):
    a = registry_from(ca, oa)
    b = registry_from(cb, ob)
    c = registry_from(cc, oc)
    left = merged(merged(a, b), c)
    right = merged(a, merged(b, c))
    assert left.snapshot() == right.snapshot()


@given(counter_values, observations)
@settings(max_examples=50, deadline=None)
def test_empty_registry_is_identity(counters, observed):
    a = registry_from(counters, observed)
    assert merged(a, MetricsRegistry()).snapshot() == a.snapshot()
    assert merged(MetricsRegistry(), a).snapshot() == a.snapshot()


@given(observations, observations)
@settings(max_examples=50, deadline=None)
def test_histogram_merge_adds_bucket_wise(oa, ob):
    """Merging two histograms equals observing the concatenation."""
    a = registry_from({}, oa)
    b = registry_from({}, ob)
    both = registry_from({}, oa + ob)
    combined = merged(a, b)
    if not (oa or ob):
        return  # neither side created the histogram
    merged_h = combined.get("lat")
    direct_h = both.get("lat")
    assert merged_h.bucket_counts == direct_h.bucket_counts
    assert merged_h.count == direct_h.count
    assert merged_h.total == direct_h.total
    assert merged_h.minimum == direct_h.minimum
    assert merged_h.maximum == direct_h.maximum


@given(
    st.lists(
        st.integers(min_value=0, max_value=500).map(lambda n: n / 2),
        min_size=1,
        max_size=30,
    ),
    st.lists(
        st.integers(min_value=0, max_value=500).map(lambda n: n / 2),
        max_size=30,
    ),
    st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 1.0]),
)
@settings(max_examples=50, deadline=None)
def test_quantile_stable_under_merge(oa, ob, q):
    """A merged histogram's quantile stays inside the union's observed
    range (the interpolation cannot invent out-of-range values), and
    merging identical distributions never shifts the estimate."""
    h = Histogram("lat", buckets=BOUNDS)
    for value in oa + ob:
        h.observe(value)
    merged_h = Histogram("lat", buckets=BOUNDS)
    a = Histogram("lat", buckets=BOUNDS)
    for value in oa:
        a.observe(value)
    b = Histogram("lat", buckets=BOUNDS)
    for value in ob:
        b.observe(value)
    merged_h.merge_snapshot(a.snapshot())
    merged_h.merge_snapshot(b.snapshot())
    lo, hi = min(oa + ob), max(oa + ob)
    assert lo <= merged_h.quantile(q) <= hi
    # Bucket-level state is identical, so the estimator agrees exactly
    # with the directly observed histogram.
    assert merged_h.quantile(q) == h.quantile(q)


@given(
    st.lists(
        st.integers(min_value=0, max_value=500).map(lambda n: n / 2),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=2, max_value=4),
    st.sampled_from([0.5, 0.9, 1.0]),
)
@settings(max_examples=30, deadline=None)
def test_quantile_invariant_to_self_merge(observed, copies, q):
    """N workers observing the same distribution merge to the same
    quantile estimate as one worker observing it once."""
    single = Histogram("lat", buckets=BOUNDS)
    for value in observed:
        single.observe(value)
    folded = Histogram("lat", buckets=BOUNDS)
    for _ in range(copies):
        folded.merge_snapshot(single.snapshot())
    # The target rank scales by `copies`, so the in-bucket
    # interpolation agrees only to float rounding (q * count is not
    # exact), never structurally.
    assert math.isclose(
        folded.quantile(q),
        single.quantile(q),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )
