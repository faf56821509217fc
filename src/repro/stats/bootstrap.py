"""Bootstrap statistics for multi-seed replications.

Every exhibit number in this repo is a deterministic function of its
content seed, so "uncertainty" here means *seed-to-seed spread*: run the
same exhibit under N shifted seeds (the ``seed_offset`` of
:func:`repro.analysis.runner.run_exhibit`), collect the N
values of each metric, and summarize them as an
:class:`IntervalEstimate` — sample mean, sample standard deviation, and
a percentile-bootstrap confidence interval on the mean.

Everything is deterministic: the bootstrap RNG is seeded from the
metric's name (:func:`stable_seed`), so the same samples always produce
the same interval, regardless of dict ordering or process count.  A
single-sample estimate degenerates to a zero-width interval at the
point value, which is exactly how the drift gate's interval semantics
collapse back to the seed's point check at ``seeds=1``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
import numpy.random  # eager; see video/source.py

from ..errors import ConfigurationError, SimulationError

#: Two-sided confidence level for bootstrap intervals.
DEFAULT_CONFIDENCE = 0.95

#: Bootstrap resamples; enough for stable 2.5/97.5 percentiles of a
#: mean over a handful of seeds, cheap enough to run per metric.
DEFAULT_RESAMPLES = 2000


def stable_seed(name: str) -> int:
    """A deterministic 64-bit RNG seed derived from ``name``.

    Hash-based so per-metric bootstrap draws are independent of the
    order metrics are processed in (and of ``PYTHONHASHSEED``).
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class IntervalEstimate:
    """One metric's multi-seed summary."""

    #: Number of seed samples the estimate was computed from.
    n: int
    #: Sample mean across seeds.
    mean: float
    #: Sample standard deviation (ddof=1; 0.0 when n == 1).
    sd: float
    #: Bootstrap CI bounds on the mean (== mean when n == 1).
    lo: float
    hi: float
    confidence: float = DEFAULT_CONFIDENCE
    resamples: int = DEFAULT_RESAMPLES

    @property
    def half_width(self) -> float:
        """Half the CI width — the "±" the drift gate records."""
        return (self.hi - self.lo) / 2.0

    def overlaps(self, low: float, high: float) -> bool:
        """Whether the CI intersects the closed band [low, high]."""
        return self.lo <= high and self.hi >= low

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "mean": self.mean,
            "sd": self.sd,
            "lo": self.lo,
            "hi": self.hi,
            "half_width": self.half_width,
            "confidence": self.confidence,
        }


def bootstrap_mean(
    values: Sequence[float] | Iterable[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> IntervalEstimate:
    """Percentile-bootstrap CI on the mean of ``values``.

    Raises on an empty or non-finite sample (a non-finite metric is a
    modelling bug, not a wide interval).  ``n == 1`` returns the
    degenerate zero-width estimate.
    """
    samples = [float(v) for v in values]
    if not samples:
        raise ConfigurationError(
            "cannot estimate an interval from zero samples"
        )
    if not all(math.isfinite(v) for v in samples):
        raise SimulationError(
            f"non-finite sample in bootstrap input: {samples!r}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if resamples < 1:
        raise ConfigurationError("resamples must be >= 1")
    n = len(samples)
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if n == 1:
        return IntervalEstimate(
            n=1, mean=mean, sd=0.0, lo=mean, hi=mean,
            confidence=confidence, resamples=resamples,
        )
    sd = float(arr.std(ddof=1))
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, n, size=(resamples, n))
    means = arr[draws].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return IntervalEstimate(
        n=n, mean=mean, sd=sd, lo=float(lo), hi=float(hi),
        confidence=confidence, resamples=resamples,
    )


def estimate_metrics(
    samples: dict[str, list[float]],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
) -> dict[str, IntervalEstimate]:
    """An :class:`IntervalEstimate` per metric, each bootstrapped under
    its own :func:`stable_seed` stream."""
    return {
        key: bootstrap_mean(
            values,
            confidence=confidence,
            resamples=resamples,
            seed=stable_seed(key),
        )
        for key, values in samples.items()
    }


def cohens_d(
    treatment: Sequence[float], baseline: Sequence[float]
) -> float:
    """Cohen's d of ``treatment`` vs ``baseline`` (pooled SD).

    Zero-variance samples (common for deterministic sub-metrics)
    return 0.0 when the means agree; a mean shift with zero pooled
    variance has no finite standardized size, reported as ``inf`` by
    convention — callers exporting JSON should gate on it.
    """
    a = np.asarray([float(v) for v in treatment], dtype=float)
    b = np.asarray([float(v) for v in baseline], dtype=float)
    if a.size < 1 or b.size < 1:
        raise ConfigurationError(
            "effect size needs at least one sample per group"
        )
    var_a = float(a.var(ddof=1)) if a.size > 1 else 0.0
    var_b = float(b.var(ddof=1)) if b.size > 1 else 0.0
    dof = max(a.size + b.size - 2, 1)
    pooled = math.sqrt(
        ((a.size - 1) * var_a + (b.size - 1) * var_b) / dof
    )
    delta = float(a.mean() - b.mean())
    if pooled == 0.0:
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return delta / pooled


def variance_table(
    estimates: dict[str, IntervalEstimate],
) -> str:
    """The seed-variance summary as an aligned text table."""
    from ..analysis.report import format_table

    rows = [
        (
            key,
            str(est.n),
            f"{est.mean:.4g}",
            f"{est.sd:.3g}",
            f"[{est.lo:.4g}, {est.hi:.4g}]",
            f"{est.half_width:.3g}",
        )
        for key, est in estimates.items()
    ]
    return format_table(
        ("metric", "n", "mean", "sd", "ci", "half-width"), rows
    )
