"""Minimal stdlib space descriptions for :mod:`repro.tune`.

Gym-style environments describe their observation/action interfaces with
*spaces*.  The real ``gymnasium`` package is an optional extra, so the
core carries its own tiny, dependency-free
space classes with the same three operations everything here needs:
``contains``, ``sample`` and ``clip``.  The gymnasium adapter in
:mod:`repro.tune.env` converts these to ``gymnasium.spaces`` objects when
the package is present.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

__all__ = ["BoxSpace", "DictSpace"]


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

    @classmethod
    def scalar_bounds(cls, low: float, high: float, n: int) -> "BoxSpace":
        return cls([low] * n, [high] * n)

    @property
    def shape(self):
        return (len(self.low),)

    def contains(self, x: Sequence[float]) -> bool:
        if len(x) != len(self.low):
            return False
        return all(lo <= v <= hi for v, lo, hi in zip(x, self.low, self.high))

    def clip(self, x: Sequence[float]) -> List[float]:
        return [
            min(max(float(v), lo), hi)
            for v, lo, hi in zip(x, self.low, self.high)
        ]

    def sample(self, rng: random.Random) -> List[float]:
        return [rng.uniform(lo, hi) for lo, hi in zip(self.low, self.high)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"BoxSpace(n={len(self.low)})"


class DictSpace:
    """Named sub-spaces; observations/actions are plain dicts of lists."""

    __slots__ = ("spaces",)

    def __init__(self, spaces: Dict[str, BoxSpace]):
        self.spaces = dict(spaces)

    def contains(self, x: dict) -> bool:
        if set(x) != set(self.spaces):
            return False
        return all(space.contains(x[name]) for name, space in self.spaces.items())

    def sample(self, rng: random.Random) -> dict:
        return {name: space.sample(rng) for name, space in self.spaces.items()}

    def __repr__(self) -> str:  # pragma: no cover
        return f"DictSpace({sorted(self.spaces)})"
