"""Instrument-style metrics: counters, gauges, histograms.

The kernel's :class:`~repro.sim.metrics.MetricRecorder` stores full
timestamped series — right for post-hoc analysis, wrong for hot paths
(every sample is two list appends) and wrong for distributions (a MAC
backoff histogram at 10,000 nodes must not retain every draw).  The
:class:`MetricsRegistry` holds fixed-size *instruments* instead: a counter
is one float, a histogram is a handful of bucket counts.  Hot paths cache
the instrument object once and pay an attribute update per event.

The registry is what :mod:`repro.net` (packets tx/rx/dropped, MAC
backoffs, per-router control overhead) and :mod:`repro.faults`
(injections, recoveries) report into; :meth:`MetricsRegistry.as_records`
streams the state to sinks for ``repro.obs report``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Prometheus-style latency buckets (seconds): ~100 µs to 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotone count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "counter", "name": self.name, "value": self.value}

    def state(self) -> Dict[str, Any]:
        """Mergeable raw state (see :func:`repro.obs.merge.merge_metrics`)."""
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, live nodes, cache size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "gauge", "name": self.name, "value": self.value}

class Histogram:
    """Fixed-bucket distribution: O(len(buckets)) memory forever.

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is >= the value, or in the overflow bucket.  Quantiles are
    estimated by linear interpolation inside the winning bucket, which is
    as good as fixed buckets allow and plenty for hot-path triage.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bucket whose bound is >= value; len(buckets) == overflow.
        # (bisect_left: everything before the insertion point is < value.)
        self.counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate in ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = self.buckets[i - 1] if i > 0 else min(self.min, self.buckets[0])
                hi = self.buckets[i] if i < len(self.buckets) else self.max
                frac = (target - cumulative) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            cumulative += bucket_count
        return self.max

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "histogram", "name": self.name, **self.summary()}

    def state(self) -> Dict[str, Any]:
        """Mergeable raw state: bucket bounds and counts, not quantile
        estimates — per-shard p95s cannot be combined, bucket counts can
        (see :func:`repro.obs.merge.merge_metrics`)."""
        return {
            "kind": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments; one registry per simulator.

    Instruments are created on first access and cached by callers, so a
    hot path costs one bounds-free attribute update per event.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return inst

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """State of every instrument, keyed by name."""
        out: Dict[str, Dict[str, Any]] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for name, inst in store.items():
                out[name] = inst.as_dict()
        return out

    def state(self) -> Dict[str, Dict[str, Any]]:
        """Raw mergeable state of every instrument, keyed by name.

        Unlike :meth:`snapshot` (display summaries), this preserves what
        cross-shard merging needs: histogram bucket counts rather than
        interpolated quantiles.  Feed a list of these to
        :func:`repro.obs.merge.merge_metrics`.
        """
        out = {name: inst.state() for name, inst in self._counters.items()}
        for name, gauge in self._gauges.items():
            out[name] = {"kind": "gauge", "value": gauge.value}
        for name, inst in self._histograms.items():
            out[name] = inst.state()
        return out

    def as_records(self) -> List[Dict[str, Any]]:
        """Sink-ready records (``{"type": "metric", ...}``), name-sorted."""
        snap = self.snapshot()
        return [{"type": "metric", **snap[name]} for name in sorted(snap)]
