"""Bounded-memory streaming statistics for long-trace result accumulation.

Multi-second paper-scale runs complete millions of flows; keeping every FCT
in a Python list (the historical ``_stats`` path) costs ~100 bytes per
float-in-list and an O(n log n) sort per percentile query.  This module
provides O(1)-memory accumulators the experiment layer feeds one completion
at a time:

* :class:`P2Quantile` — the Jain/Chlamtac P² algorithm: a single quantile
  estimated from five markers updated with a piecewise-parabolic fit.  No
  samples are retained.  For n <= 5 observations the estimate is *exact*
  (the markers still hold the raw samples).
* :class:`StreamingStats` — count / mean / min / max plus P² sketches for
  p50 and p99, exporting the same record shape as the per-figure ``_stats``
  helpers (``count`` / ``mean_us`` / ``p50_us`` / ``p99_us``), with a
  well-defined ``n=0`` record (``None`` metrics) so empty groups are
  first-class rather than a :class:`ZeroDivisionError`.

Accuracy envelope: P² is an approximation.  On the heavy-tailed FCT
populations these experiments produce, p50/p99 land within a few percent of
the exact sample percentile for n >= ~100 (pinned in
``tests/test_analysis.py``); per-figure tables quoting long-trace
percentiles say so in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["P2Quantile", "StreamingStats"]


class P2Quantile:
    """P² streaming quantile estimator (Jain & Chlamtac, CACM 1985).

    Tracks one quantile ``p`` (0 < p < 1) with five markers; O(1) memory
    and O(1) per observation.  Exact for the first five observations.
    """

    __slots__ = ("p", "_q", "_n", "_np", "_dn", "count")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._q: List[float] = []  # marker heights
        self._n: List[float] = []  # marker positions (1-based)
        self._np: List[float] = []  # desired positions
        self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]  # desired increments

    def add(self, x: float) -> None:
        self.count += 1
        q, n = self._q, self._n
        if self.count <= 5:
            q.append(float(x))
            q.sort()
            if self.count == 5:
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.p
                self._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
            return
        # locate cell k: q[k] <= x < q[k+1]
        if x < q[0]:
            q[0] = float(x)
            k = 0
        elif x >= q[4]:
            q[4] = float(x)
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_ = self._np
        for i in range(5):
            np_[i] += self._dn[i]
        # adjust interior markers toward their desired positions
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                d = 1.0 if d > 0 else -1.0
                qi = self._parabolic(i, d)
                if not q[i - 1] < qi < q[i + 1]:
                    qi = self._linear(i, d)
                q[i] = qi
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> Optional[float]:
        """Current estimate; ``None`` before any observation."""
        if self.count == 0:
            return None
        if self.count <= 5:
            # markers are the raw sorted sample: interpolate exactly
            q = self._q
            if len(q) == 1:
                return q[0]
            rank = self.p * (len(q) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(q) - 1)
            frac = rank - lo
            return q[lo] * (1 - frac) + q[hi] * frac
        return self._q[2]


class StreamingStats:
    """count/mean/min/max + P² p50/p99 over a stream of values (ns).

    The export shape (:meth:`as_dict`) matches the per-figure ``_stats``
    record — ``count`` / ``mean_us`` / ``p50_us`` / ``p99_us`` — so list
    and streaming result paths are drop-in interchangeable.  An empty
    accumulator exports the canonical *empty record*: ``count == 0`` with
    every metric ``None``.
    """

    __slots__ = ("count", "_sum", "min", "max", "_p50", "_p99")

    def __init__(self):
        self.count = 0
        self._sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._p50 = P2Quantile(0.50)
        self._p99 = P2Quantile(0.99)

    def add(self, value: float) -> None:
        self.count += 1
        self._sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._p50.add(value)
        self._p99.add(value)

    def as_dict(self) -> Dict[str, Optional[float]]:
        """The ``_stats`` record shape (µs), with a well-defined n=0 form."""
        if self.count == 0:
            return {"count": 0, "mean_us": None, "p50_us": None, "p99_us": None}
        return {
            "count": self.count,
            "mean_us": self._sum / self.count / 1e3,
            "p50_us": self._p50.value() / 1e3,
            "p99_us": self._p99.value() / 1e3,
        }
