"""Metrics registry: counters, gauges and (time-)weighted histograms.

The registry is deliberately simulator-agnostic: every observation carries an
explicit timestamp (integer nanoseconds, the engine's clock domain), so the
same classes serve unit tests, the :class:`~repro.telemetry.Recorder`, and any
future out-of-simulation use.  ``snapshot()`` returns plain dicts of plain
numbers, safe to embed in experiment result dicts and ``json.dumps`` output.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-value gauge with a time-weighted integral.

    ``set(t, v)`` accumulates ``previous_value * (t - previous_t)`` so the
    time-weighted mean over the observed interval is exact regardless of how
    irregular the updates are — the natural summary for queue occupancy.
    """

    __slots__ = ("value", "min", "max", "samples", "_last_t", "_first_t", "_integral")

    def __init__(self):
        self.value = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples = 0
        self._last_t: Optional[int] = None
        self._first_t: Optional[int] = None
        self._integral = 0.0

    def set(self, t: int, value: float) -> None:
        if self._last_t is None:
            self._first_t = t
        else:
            self._integral += self.value * (t - self._last_t)
        self._last_t = t
        self.value = value
        self.samples += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def time_weighted_mean(self, until_t: Optional[int] = None) -> float:
        """Mean of the piecewise-constant signal over [first_t, until_t]."""
        if self._last_t is None or self._first_t is None:
            return 0.0
        integral = self._integral
        end = self._last_t if until_t is None else max(until_t, self._last_t)
        integral += self.value * (end - self._last_t)
        span = end - self._first_t
        return integral / span if span > 0 else self.value


class Histogram:
    """Power-of-two bucketed sample histogram.

    Percentiles interpolate within the winning bucket's ``[2^(i-1), 2^i)``
    range; exact enough for reporting.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, float] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        idx = max(0, int(value)).bit_length()  # bucket i covers [2^(i-1), 2^i)
        self._buckets[idx] = self._buckets.get(idx, 0.0) + 1.0

    def mean(self) -> float:
        return self.total / self.count if self.count > 0 else 0.0

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100], interpolated in-bucket."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if not self._buckets:
            return 0.0
        target = self.count * p / 100.0
        cum = 0.0
        for idx in sorted(self._buckets):
            w = self._buckets[idx]
            if cum + w >= target:
                lo = 0.0 if idx == 0 else float(1 << (idx - 1))
                hi = 1.0 if idx == 0 else float(1 << idx)
                frac = (target - cum) / w if w > 0 else 0.0
                return lo + frac * (hi - lo)
            cum += w
        return float(self.max if self.max is not None else 0.0)



class MetricsRegistry:
    """Named metric store; metrics are created on first use."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    def snapshot(self, until_t: Optional[int] = None) -> dict:
        """JSON-safe dump of every metric (embed in experiment results)."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {
                k: {
                    "last": g.value,
                    "min": g.min,
                    "max": g.max,
                    "mean_tw": g.time_weighted_mean(until_t),
                    "samples": g.samples,
                }
                for k, g in sorted(self.gauges.items())
            },
            "histograms": {
                k: {
                    "count": h.count,
                    "mean": h.mean(),
                    "min": h.min,
                    "max": h.max,
                    "p50": h.percentile(50),
                    "p99": h.percentile(99),
                }
                for k, h in sorted(self.histograms.items())
            },
        }
