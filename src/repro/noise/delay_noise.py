"""Delay-measurement noise models (§4.3.2, Figs 7 and 13).

The paper measures NIC-hardware-timestamp noise in its testbed and reports a
long-tail additive distribution: mean ≈ 0.3 µs, < 0.1 % probability of
exceeding 1 µs, both with TSO on and off.  A lognormal with median 250 ns and
σ = 0.45 matches those statistics (mean ≈ 277 ns, P99.9 ≈ 1 µs) and is used
here as the default.  Noise is *additive only* (measured delay ≥ true delay,
per Lee et al. [53]), so samples are non-negative.

Fig 10d scales this distribution by {1, 2, 4, 8}; Fig 13 adds a *uniform*
non-congestive delay drawn per measurement from ``[0, range_ns]``.
"""

from __future__ import annotations

import math
import random

__all__ = ["LognormalNoise", "UniformNoise", "CompositeNoise", "paper_noise"]


class LognormalNoise:
    """Long-tail additive noise: ``scale * lognormal(mu, sigma)``."""

    def __init__(self, median_ns: float = 250.0, sigma: float = 0.45, scale: float = 1.0):
        if median_ns <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        self.mu = math.log(median_ns)
        self.sigma = sigma
        self.scale = scale

    def sample(self, rng: random.Random) -> int:
        return int(self.scale * rng.lognormvariate(self.mu, self.sigma))

    def percentile(self, p: float) -> float:
        """Analytic quantile (p in (0, 1))."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        z = _norm_ppf(p)
        return self.scale * math.exp(self.mu + self.sigma * z)


class UniformNoise:
    """Uniform non-congestive delay in [0, range_ns] (Fig 13)."""

    def __init__(self, range_ns: int):
        if range_ns < 0:
            raise ValueError("range must be non-negative")
        self.range_ns = range_ns

    def sample(self, rng: random.Random) -> int:
        if self.range_ns == 0:
            return 0
        return rng.randrange(self.range_ns + 1)

    def percentile(self, p: float) -> float:
        return p * self.range_ns


class CompositeNoise:
    """Sum of independent noise components."""

    def __init__(self, *components):
        self.components = components

    def sample(self, rng: random.Random) -> int:
        return sum(c.sample(rng) for c in self.components)

    def percentile(self, p: float) -> float:
        # Upper bound; exact composition is only needed for reporting.
        return sum(c.percentile(p) for c in self.components)


def paper_noise(scale: float = 1.0) -> LognormalNoise:
    """The testbed noise model of Fig 7 (optionally scaled, Fig 10d)."""
    return LognormalNoise(median_ns=250.0, sigma=0.45, scale=scale)


def _norm_ppf(p: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )
