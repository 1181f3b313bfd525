"""Cross-run statistics: means with 95% confidence intervals.

Every graph in the paper "depicts an average of 5 [or 10] runs and 95%
confidence intervals"; this module computes exactly that, using Student's
t-distribution for the small sample counts involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with its two-sided confidence half-width."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True when the two intervals intersect."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%.3f ± %.3f" % (self.mean, self.half_width)


def mean_ci(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Mean and t-based confidence half-width of a sample.

    A single sample yields a zero-width interval (no variance estimate),
    matching how single-run results are reported.  scipy is imported only
    past that case, so single-seed sweeps and reports never load it.
    """
    if not samples:
        raise ValueError("need at least one sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, n=1, confidence=confidence)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    return ConfidenceInterval(
        mean=mean, half_width=t_value * sem, n=n, confidence=confidence
    )


def percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Linear-interpolation percentile of an ascending-sorted sample.

    ``quantile`` is in [0, 1]; an empty sample yields 0.0 (the natural
    value for "no deliveries yet").  The caller sorts — latency lists are
    accumulated in arrival order and sorted once per summary, not per call.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = quantile * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def summarize(samples: Sequence[float]) -> dict[str, float]:
    """Mean, min, max and standard deviation of a sample."""
    if not samples:
        raise ValueError("need at least one sample")
    n = len(samples)
    mean = sum(samples) / n
    if n > 1:
        std = math.sqrt(sum((x - mean) ** 2 for x in samples) / (n - 1))
    else:
        std = 0.0
    return {
        "mean": mean,
        "std": std,
        "min": min(samples),
        "max": max(samples),
        "n": float(n),
    }


class StreamingLatencies:
    """O(1)-memory latency percentile estimator for large runs.

    The exact percentile path stores every delivery latency — O(packets)
    memory, fine at paper scale but not at 5k+ nodes.  This accumulator
    keeps a fixed log-spaced histogram instead: 512 bins spanning
    [100 us, 1000 s] (~3.2% relative width per bin), plus exact count /
    sum / min / max.  :meth:`percentile` walks the cumulative counts to
    the bin holding the requested rank and returns the bin's geometric
    midpoint clamped into the observed [min, max] — a relative error
    bounded by the bin width, far below run-to-run variance at the scales
    that use it.  All arithmetic is sequential python float math, so the
    estimate is deterministic for a given delivery order.
    """

    LOW = 1e-4
    HIGH = 1e3
    BINS = 512

    __slots__ = ("_bins", "count", "total", "minimum", "maximum", "_scale")

    def __init__(self) -> None:
        self._bins = [0] * self.BINS
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        # bins 1..BINS-2 cover [LOW, HIGH) uniformly in log space; bin 0
        # catches <= LOW and the last bin >= HIGH.
        self._scale = (self.BINS - 2) / math.log(self.HIGH / self.LOW)

    def add(self, value: float) -> None:
        """Record one latency sample (seconds, non-negative)."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= self.LOW:
            index = 0
        elif value >= self.HIGH:
            index = self.BINS - 1
        else:
            index = 1 + int(math.log(value / self.LOW) * self._scale)
            if index > self.BINS - 2:  # log rounding at the top edge
                index = self.BINS - 2
        self._bins[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Approximate latency at ``quantile`` in [0, 1]; 0.0 when empty.

        Mirrors :func:`percentile`'s rank convention (``q * (n - 1)``),
        resolved to bin resolution instead of interpolated samples.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = quantile * (self.count - 1)
        target = int(rank)
        cumulative = 0
        for index, bin_count in enumerate(self._bins):
            cumulative += bin_count
            if cumulative > target:
                break
        if index == 0:
            estimate = self.LOW
        elif index == self.BINS - 1:
            estimate = self.HIGH
        else:
            low_edge = self.LOW * math.exp((index - 1) / self._scale)
            high_edge = self.LOW * math.exp(index / self._scale)
            estimate = math.sqrt(low_edge * high_edge)
        return min(self.maximum, max(self.minimum, estimate))
