"""Empirical flow-size distributions.

The WebSearch distribution is the DCTCP production trace [Alizadeh et al.
2010] in the piecewise-linear CDF form distributed with the HPCC/ns-3
community artifacts; the paper uses it for the flow-scheduling scenario
(§6.2) at 70 % load and for the Fig 14 per-priority breakdown at 50 % load.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Sequence, Tuple

__all__ = [
    "EmpiricalCdf",
    "websearch",
    "hadoop",
    "ali_storage",
    "WEBSEARCH_CDF",
    "HADOOP_CDF",
    "ALI_STORAGE_CDF",
]

#: (size_bytes, cumulative probability) — DCTCP WebSearch
WEBSEARCH_CDF: List[Tuple[float, float]] = [
    (6_000, 0.00),
    (10_000, 0.15),
    (13_000, 0.20),
    (19_000, 0.30),
    (33_000, 0.40),
    (53_000, 0.53),
    (133_000, 0.60),
    (667_000, 0.70),
    (1_333_000, 0.80),
    (3_333_000, 0.90),
    (6_667_000, 0.97),
    (20_000_000, 1.00),
]


class EmpiricalCdf:
    """Inverse-transform sampling over a piecewise-linear CDF."""

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        prev_x, prev_p = points[0]
        if prev_p < 0:
            raise ValueError("CDF starts below 0")
        for x, p in points[1:]:
            if x < prev_x or p < prev_p:
                raise ValueError("CDF points must be non-decreasing")
            prev_x, prev_p = x, p
        if abs(points[-1][1] - 1.0) > 1e-9:
            raise ValueError("CDF must end at probability 1")
        self.xs = [float(x) for x, _ in points]
        self.ps = [float(p) for _, p in points]

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        return int(self.quantile(u))

    def quantile(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        i = bisect_left(self.ps, u)
        if i == 0:
            return self.xs[0]
        if i >= len(self.ps):
            return self.xs[-1]
        p0, p1 = self.ps[i - 1], self.ps[i]
        x0, x1 = self.xs[i - 1], self.xs[i]
        if p1 == p0:
            return x1
        return x0 + (x1 - x0) * (u - p0) / (p1 - p0)

    def mean(self) -> float:
        """Expected value of the piecewise-linear distribution."""
        total = 0.0
        for i in range(1, len(self.xs)):
            dp = self.ps[i] - self.ps[i - 1]
            total += dp * (self.xs[i] + self.xs[i - 1]) / 2.0
        return total

    def scaled(self, factor: float) -> "EmpiricalCdf":
        """Same shape, sizes multiplied by ``factor`` (CI-scale runs)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return EmpiricalCdf([(max(1.0, x * factor), p) for x, p in zip(self.xs, self.ps)])


#: (size_bytes, cumulative probability) — Facebook Hadoop (data-mining) mix:
#: dominated by tiny control flows with a very heavy shuffle tail
HADOOP_CDF: List[Tuple[float, float]] = [
    (180, 0.10),
    (216, 0.15),
    (560, 0.20),
    (900, 0.30),
    (1_100, 0.40),
    (1_870, 0.53),
    (3_160, 0.60),
    (10_000, 0.70),
    (400_000, 0.80),
    (3_160_000, 0.90),
    (100_000_000, 0.97),
    (1_000_000_000, 1.00),
]

#: (size_bytes, cumulative probability) — Alibaba cloud-storage style mix
#: (bimodal: small metadata ops plus multi-MB object segments)
ALI_STORAGE_CDF: List[Tuple[float, float]] = [
    (1_000, 0.00),
    (4_000, 0.25),
    (16_000, 0.45),
    (64_000, 0.60),
    (256_000, 0.70),
    (1_000_000, 0.80),
    (2_000_000, 0.90),
    (4_000_000, 1.00),
]


def websearch(scale: float = 1.0) -> EmpiricalCdf:
    """The WebSearch workload, optionally size-scaled for faster runs."""
    cdf = EmpiricalCdf(WEBSEARCH_CDF)
    return cdf if scale == 1.0 else cdf.scaled(scale)


def hadoop(scale: float) -> EmpiricalCdf:
    """The Facebook-Hadoop flow-size mix (heavier tail than WebSearch),
    size-scaled."""
    cdf = EmpiricalCdf(HADOOP_CDF)
    return cdf if scale == 1.0 else cdf.scaled(scale)


def ali_storage(scale: float) -> EmpiricalCdf:
    """A cloud-storage style bimodal mix (metadata ops + object segments),
    size-scaled."""
    cdf = EmpiricalCdf(ALI_STORAGE_CDF)
    return cdf if scale == 1.0 else cdf.scaled(scale)
