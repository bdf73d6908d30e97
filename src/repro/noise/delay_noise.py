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


class CompositeNoise:
    """Sum of independent noise components."""

    def __init__(self, *components):
        self.components = components

    def sample(self, rng: random.Random) -> int:
        return sum(c.sample(rng) for c in self.components)


def paper_noise(scale: float = 1.0) -> LognormalNoise:
    """The testbed noise model of Fig 7 (optionally scaled, Fig 10d)."""
    return LognormalNoise(median_ns=250.0, sigma=0.45, scale=scale)
