"""The search-space description of :mod:`repro.tune`.

:class:`BoxSpace` is the bounded box the optimizers (:mod:`.optim`) sample
and clip candidates in, and :meth:`~repro.tune.channel_env.TuneSpec.space`
declares the theta bounds with: ``sample`` and ``clip``, stdlib only.
"""

from __future__ import annotations

import random
from typing import List, Sequence

__all__ = ["BoxSpace"]


class BoxSpace:
    """A bounded box in R^n: per-dimension ``[low_i, high_i]`` intervals."""

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float], high: Sequence[float]):
        if len(low) != len(high):
            raise ValueError(f"low has {len(low)} dims but high has {len(high)}")
        for i, (lo, hi) in enumerate(zip(low, high)):
            if lo > hi:
                raise ValueError(f"dimension {i}: low {lo} > high {hi}")
        self.low = [float(x) for x in low]
        self.high = [float(x) for x in high]

    def clip(self, x: Sequence[float]) -> List[float]:
        return [
            min(max(float(v), lo), hi)
            for v, lo, hi in zip(x, self.low, self.high)
        ]

    def sample(self, rng: random.Random) -> List[float]:
        return [rng.uniform(lo, hi) for lo, hi in zip(self.low, self.high)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"BoxSpace(n={len(self.low)})"
