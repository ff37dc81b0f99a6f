"""Small statistics helpers used across experiments and metrics."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "RunningStats",
    "mean_confidence_interval",
    "summarize",
]


class RunningStats:
    """Welford online mean/variance with min/max tracking.

    Constant-memory aggregation for metrics recorded over long simulations.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0 if self.count == 1 else math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan  # NaN-safe

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.4g}, "
            f"std={self.std:.4g})"
        )


def mean_confidence_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    *,
    nan_policy: str = "propagate",
) -> Tuple[float, float]:
    """Return ``(mean, half_width)`` of a normal-approximation CI.

    Uses the t-quantile from scipy when available; falls back to 1.96 for the
    95% level with large samples.

    ``nan_policy="omit"`` drops NaN samples before computing — the campaign
    aggregator uses it so one "no data" replicate (e.g. a delivery ratio
    with zero sends) does not blank the whole cell; ``"propagate"`` (the
    default) keeps the usual contract that any NaN input yields NaN.
    """
    if nan_policy not in ("propagate", "omit"):
        raise ValueError(f"nan_policy must be 'propagate' or 'omit': {nan_policy!r}")
    arr = np.asarray(list(values), dtype=float)
    if nan_policy == "omit":
        arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), 0.0
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    try:
        from scipy import stats as _st

        t = float(_st.t.ppf((1 + confidence) / 2.0, arr.size - 1))
    except Exception:  # pragma: no cover - scipy is a hard dep
        t = 1.96
    return mean, t * sem


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Return a dict of mean/std/min/p50/p95/max for a sample."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {k: math.nan for k in ("mean", "std", "min", "p50", "p95", "max")}
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }
