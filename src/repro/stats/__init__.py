"""Statistical observability: multi-seed replication + bootstrap CIs.

The exhibits themselves are deterministic; this package quantifies how
much their numbers depend on the sampled content by replaying them
under shifted content seeds and summarizing each metric's seed-to-seed
spread as a bootstrap confidence interval.  The figure registry
(:mod:`repro.analysis.figures`) renders those intervals as error bands;
the drift gate (:mod:`repro.obs.drift`) checks CI-vs-paper-band overlap
instead of point-in-band when given more than one seed.
"""

from .bootstrap import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    IntervalEstimate,
    bootstrap_mean,
    cohens_d,
    estimate_metrics,
    stable_seed,
    variance_table,
)
from .replicate import (
    EFFECT_PAIRS,
    Replication,
    replicate_exhibits,
)

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_RESAMPLES",
    "EFFECT_PAIRS",
    "IntervalEstimate",
    "Replication",
    "bootstrap_mean",
    "cohens_d",
    "estimate_metrics",
    "replicate_exhibits",
    "stable_seed",
    "variance_table",
]
