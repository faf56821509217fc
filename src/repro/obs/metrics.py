"""The process-wide metrics registry: counters, gauges, histograms.

Where the tracer (:mod:`repro.obs.trace`) records *what happened in
order*, the registry accumulates *how much, in total*: windows planned,
cache hits, frames coded, report energies.  Metrics are always on —
each update is an attribute increment on a long-lived object, far below
the noise floor of any simulated run — and are reported on demand via
:func:`metrics_table` (aligned text) or :meth:`MetricsRegistry.to_json`.

Instrument-once, read-anywhere: library code calls
``metrics.registry().counter("sim.windows").inc(n)``; the CLI's
``repro trace --metrics`` and tests read the same registry back.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError

#: Default histogram bucket upper bounds (values land in the first
#: bucket whose bound is >= the observation; beyond the last is +Inf).
DEFAULT_BUCKETS = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
)

#: Bucket bounds for wall-clock latency histograms (seconds): cache
#: load/store round trips sit in the µs-to-ms range, exhibit
#: regenerations in the ms-to-seconds range.
LATENCY_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)


def linear_buckets(
    start: float, width: float, count: int
) -> tuple[float, ...]:
    """``count`` evenly spaced bucket upper bounds from ``start``.

    Population distributions (fleet power draw, battery hours) want
    uniform resolution across a known physical range rather than the
    decade spacing of :data:`DEFAULT_BUCKETS`; uniform bounds also give
    :meth:`Histogram.quantile` a constant worst-case error of one
    bucket width.  Bounds are computed as ``start + i * width`` (not a
    running sum) so the same arguments always produce bit-identical
    edges.
    """
    if count < 1:
        raise ConfigurationError(
            f"linear_buckets needs count >= 1, got {count}"
        )
    if width <= 0:
        raise ConfigurationError(
            f"linear_buckets needs width > 0, got {width}"
        )
    return tuple(start + index * width for index in range(count))


def labelled(name: str, labels: dict[str, str]) -> str:
    """The registry key for ``name`` carrying a Prometheus label set.

    The registry itself is label-agnostic — a labelled series is just a
    metric whose *key* renders the label set inline, pre-escaped per
    the exposition format (backslash, double quote, newline).  The
    exporter splits the key on the first ``{`` to group every labelled
    key of one family under a single ``# HELP`` / ``# TYPE`` header.
    Keys sort labels by name so one label set always produces one key.
    """
    if not labels:
        return name
    rendered = ",".join(
        '{}="{}"'.format(
            key,
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"),
        )
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{rendered}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    help: str = ""
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease"
            )
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"type": "counter", "value": self.value}

    def merge_snapshot(self, state: dict) -> None:
        """Fold another process's snapshot in (counts sum)."""
        self.inc(float(state["value"]))

    def render(self) -> str:
        return f"{self.value:g}"


@dataclass
class Gauge:
    """A value that goes up and down (last write wins)."""

    name: str
    help: str = ""
    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, object]:
        return {"type": "gauge", "value": self.value}

    def merge_snapshot(self, state: dict) -> None:
        """Fold another process's snapshot in (contributions sum —
        worker gauges are treated as additive shares of one total)."""
        self.value += float(state["value"])

    def render(self) -> str:
        return f"{self.value:g}"


@dataclass
class RollingGauge:
    """A gauge windowed over the last ``window_s`` *simulated* seconds.

    Each :meth:`observe` carries its own timestamp (the serve plane
    feeds simulated window starts, never wall clock), and samples older
    than ``window_s`` behind the newest are evicted on every update —
    memory is bounded by the sample rate times the window, independent
    of how long the session runs.  ``value`` is the mean of the
    surviving samples, which is the right reading for rates expressed
    per second (rolling mW, residency fractions, effective fps).
    """

    name: str
    help: str = ""
    window_s: float = 10.0
    samples: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError(
                f"rolling gauge {self.name!r} needs window_s > 0"
            )

    def observe(self, t: float, value: float) -> None:
        """Record ``value`` at simulated time ``t`` and evict samples
        that have fallen out of the window.

        Out-of-order timestamps are tolerated (a merged snapshot can
        interleave two streams): eviction always keys on the newest
        timestamp seen so far.
        """
        self.samples.append((t, value))
        self._evict()

    def _evict(self) -> None:
        if not self.samples:
            return
        horizon = max(t for t, _ in self.samples) - self.window_s
        while self.samples and self.samples[0][0] <= horizon:
            self.samples.popleft()

    @property
    def value(self) -> float:
        """Mean of the in-window samples (0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(v for _, v in self.samples) / len(self.samples)

    @property
    def latest(self) -> float:
        """The newest sample's value (0 when empty)."""
        return self.samples[-1][1] if self.samples else 0.0

    def __len__(self) -> int:
        return len(self.samples)

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "rolling",
            "window_s": self.window_s,
            "value": self.value,
            "samples": [[t, v] for t, v in self.samples],
        }

    def merge_snapshot(self, state: dict) -> None:
        """Fold another process's snapshot in: sample streams
        interleave by timestamp, then the shared window re-evicts."""
        if float(state.get("window_s", self.window_s)) != self.window_s:
            raise ConfigurationError(
                f"rolling gauge {self.name!r} window differs: "
                f"{self.window_s} vs {state.get('window_s')}"
            )
        merged = sorted(
            [(float(t), float(v)) for t, v in self.samples]
            + [(float(t), float(v)) for t, v in state.get("samples", [])]
        )
        self.samples = deque(merged)
        self._evict()

    def render(self) -> str:
        if not self.samples:
            return "n=0"
        return f"n={len(self.samples)} mean={self.value:g}"


@dataclass
class Histogram:
    """Bucketed observations with count/sum/min/max."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ConfigurationError(
                f"histogram {self.name!r} buckets must be sorted"
            )
        if not self.bucket_counts:
            # One slot per bound plus the +Inf overflow slot.
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.minimum = (
            value if self.minimum is None else min(self.minimum, value)
        )
        self.maximum = (
            value if self.maximum is None else max(self.maximum, value)
        )
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in O(1).

        The cadence walker lands thousands of equal window
        durations per run; folding them in one update keeps metrics
        overhead independent of window count.  The sum accumulates as
        ``value * count`` (float re-association versus repeated
        :meth:`observe`, far below reporting precision).
        """
        if count < 0:
            raise ConfigurationError(
                f"histogram {self.name!r} observation count < 0"
            )
        if count == 0:
            return
        self.count += count
        self.total += value * count
        self.minimum = (
            value if self.minimum is None else min(self.minimum, value)
        )
        self.maximum = (
            value if self.maximum is None else max(self.maximum, value)
        )
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += count
                return
        self.bucket_counts[-1] += count

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), linearly interpolated inside the
        bucket the target rank lands in.

        Bucket edges bound the estimate; the observed ``min``/``max``
        tighten the first and last occupied buckets (and the +Inf
        overflow bucket, which has no upper edge).  Returns 0.0 for an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(
                f"quantile {q} outside [0, 1]"
            )
        if self.count == 0:
            return 0.0
        assert self.minimum is not None and self.maximum is not None
        rank = q * self.count
        seen = 0
        for index, occupancy in enumerate(self.bucket_counts):
            if occupancy == 0:
                continue
            if seen + occupancy < rank:
                seen += occupancy
                continue
            lower = (
                self.buckets[index - 1]
                if index > 0 else self.minimum
            )
            upper = (
                self.buckets[index]
                if index < len(self.buckets) else self.maximum
            )
            lower = max(lower, self.minimum)
            upper = min(upper, self.maximum)
            if upper <= lower:
                return lower
            frac = (rank - seen) / occupancy
            return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
        return self.maximum

    def snapshot(self) -> dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "bounds": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "buckets": {
                (f"le_{bound:g}" if index < len(self.buckets)
                 else "le_inf"): count
                for index, (bound, count) in enumerate(
                    zip(self.buckets + (float("inf"),),
                        self.bucket_counts)
                )
            },
        }

    def merge_snapshot(self, state: dict) -> None:
        """Fold another process's snapshot in: bucket occupancies add
        element-wise, count/sum add, min/max widen.  The two histograms
        must share bucket bounds — merging incompatible layouts would
        silently misfile observations."""
        bounds = tuple(state.get("bounds", ()))
        if bounds != self.buckets:
            raise ConfigurationError(
                f"histogram {self.name!r} bucket bounds differ: "
                f"{self.buckets} vs {bounds}"
            )
        incoming = state.get("bucket_counts", [])
        if len(incoming) != len(self.bucket_counts):
            raise ConfigurationError(
                f"histogram {self.name!r} has {len(self.bucket_counts)}"
                f" buckets, snapshot has {len(incoming)}"
            )
        self.bucket_counts = [
            mine + int(theirs)
            for mine, theirs in zip(self.bucket_counts, incoming)
        ]
        self.count += int(state["count"])
        self.total += float(state["sum"])
        for bound_key, fold in (("min", min), ("max", max)):
            theirs = state.get(bound_key)
            if theirs is None:
                continue
            mine = getattr(
                self, "minimum" if bound_key == "min" else "maximum"
            )
            merged = (
                float(theirs) if mine is None
                else fold(mine, float(theirs))
            )
            setattr(
                self,
                "minimum" if bound_key == "min" else "maximum",
                merged,
            )

    def render(self) -> str:
        if not self.count:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean:g} "
            f"min={self.minimum:g} max={self.maximum:g}"
        )


Metric = Counter | Gauge | RollingGauge | Histogram


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(
        self, name: str, factory, kind: type, help: str
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get_or_create(
            name, lambda: Counter(name, help), Counter, help
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get_or_create(
            name, lambda: Gauge(name, help), Gauge, help
        )

    def rolling_gauge(
        self, name: str, help: str = "", window_s: float = 10.0
    ) -> RollingGauge:
        """The rolling gauge called ``name``, created on first use."""
        return self._get_or_create(
            name,
            lambda: RollingGauge(name, help, window_s=window_s),
            RollingGauge,
            help,
        )

    def remove(self, name: str) -> bool:
        """Drop one metric (a closed serve session retires its
        labelled series).  Returns whether it existed."""
        return self._metrics.pop(name, None) is not None

    def remove_prefix(self, prefix: str) -> int:
        """Drop every metric whose key starts with ``prefix``; returns
        how many were removed."""
        doomed = [
            name for name in self._metrics if name.startswith(prefix)
        ]
        for name in doomed:
            del self._metrics[name]
        return len(doomed)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        return self._get_or_create(
            name,
            lambda: Histogram(name, help, buckets=buckets),
            Histogram,
            help,
        )

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(self._metrics)

    def get(self, name: str) -> Metric:
        """The metric called ``name`` (must exist)."""
        try:
            return self._metrics[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown metric {name!r}"
            ) from None

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Every metric's state, keyed by name (sorted)."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    # -- cross-process merging ----------------------------------------------

    def merge_snapshot(
        self, snapshot: dict[str, dict[str, object]]
    ) -> int:
        """Fold a :meth:`snapshot` (possibly taken in another process)
        into this registry.

        Counters and gauges sum; histograms add bucket-wise (same
        bounds required).  Metrics absent here are created, so merging
        into an empty registry reconstructs the snapshot exactly.
        Merging is commutative and associative — the per-task worker
        merge in :mod:`repro.obs.dist` relies on both.  Returns the
        number of metrics merged.
        """
        for name in sorted(snapshot):
            state = snapshot[name]
            kind = state.get("type")
            if kind == "counter":
                self.counter(name).merge_snapshot(state)
            elif kind == "gauge":
                self.gauge(name).merge_snapshot(state)
            elif kind == "rolling":
                window = float(state.get("window_s", 10.0))
                self.rolling_gauge(
                    name, window_s=window
                ).merge_snapshot(state)
            elif kind == "histogram":
                bounds = tuple(state.get("bounds", DEFAULT_BUCKETS))
                self.histogram(
                    name, buckets=bounds
                ).merge_snapshot(state)
            else:
                raise ConfigurationError(
                    f"metric {name!r} has unknown type {kind!r}"
                )
        return len(snapshot)

    def merge(self, other: "MetricsRegistry") -> int:
        """Fold another registry in (see :meth:`merge_snapshot`)."""
        return self.merge_snapshot(other.snapshot())

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def table(self) -> str:
        """An aligned ``metrics_table()``-style text report."""
        from ..analysis.report import format_table

        rows = [
            (
                name,
                type(self._metrics[name]).__name__.lower(),
                self._metrics[name].render(),
            )
            for name in sorted(self._metrics)
        ]
        return format_table(("metric", "type", "value"), rows)

    def reset(self) -> None:
        """Drop every metric (tests isolate through this)."""
        self._metrics.clear()


#: The process-wide registry every instrumentation site writes to.
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def metrics_table() -> str:
    """The process-wide registry as an aligned text report."""
    return _registry.table()
