"""The cross-entropy method (CEM) optimizer for channel placement.

It speaks ask/tell: ``ask()`` yields one generation of candidate thetas,
``tell(thetas, utilities)`` updates the search state (higher utility is
better).  Stdlib ``random.Random`` only, deterministically seeded — the
same seed replays the exact candidate sequence (pinned by
``tests/test_tune_optim.py``).

When an ``init_theta`` incumbent is given (the paper-default placement),
generation 0 evaluates it first — the reported best can therefore never be
worse than the default.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

__all__ = ["CEM"]

#: share of each generation the distribution is refitted to
ELITE_FRAC = 0.3
#: initial sigma as a share of each dimension's range
SIGMA_FRAC = 0.25


class CEM:
    """Cross-entropy method: fit a diagonal Gaussian to the elite fraction.

    Candidates live in the box ``[low_i, high_i]``.  The sampling
    distribution starts at ``init_theta`` with sigma =
    ``SIGMA_FRAC`` of each dimension's range, and contracts toward the
    elites each generation; a sigma floor of 1 % of the range keeps late
    generations exploring.
    """

    def __init__(
        self,
        low: Sequence[float],
        high: Sequence[float],
        seed: int,
        pop_size: int,
        init_theta: Sequence[float],
    ):
        if pop_size < 2:
            raise ValueError("population size must be >= 2")
        self.low = [float(x) for x in low]
        self.high = [float(x) for x in high]
        self.pop_size = pop_size
        self.rng = random.Random(seed)
        self.init_theta = list(init_theta)
        self.generation = 0
        self.evaluations = 0
        self.best_theta: Optional[List[float]] = None
        self.best_utility = float("-inf")
        self.n_elite = max(2, int(round(ELITE_FRAC * pop_size)))
        ranges = [hi - lo for lo, hi in zip(self.low, self.high)]
        self.mean = self._clip(init_theta)
        self.sigma = [SIGMA_FRAC * r for r in ranges]
        self._sigma_floor = [0.01 * r for r in ranges]

    def _clip(self, x: Sequence[float]) -> List[float]:
        return [min(max(float(v), lo), hi) for v, lo, hi in zip(x, self.low, self.high)]

    def ask(self) -> List[List[float]]:
        pop = [
            self._clip([self.rng.gauss(m, s) for m, s in zip(self.mean, self.sigma)])
            for _ in range(self.pop_size)
        ]
        if self.generation == 0:
            pop[0] = self._clip(self.init_theta)
        return pop

    def tell(self, thetas: List[List[float]], utilities: List[float]) -> None:
        if len(thetas) != len(utilities):
            raise ValueError("one utility per candidate")
        for theta, utility in zip(thetas, utilities):
            self.evaluations += 1
            if utility > self.best_utility:
                self.best_utility = utility
                self.best_theta = list(theta)
        order = sorted(range(len(thetas)), key=lambda i: utilities[i], reverse=True)
        elites = [thetas[i] for i in order[: self.n_elite]]
        n = len(elites)
        self.mean = [sum(col) / n for col in zip(*elites)]
        self.sigma = [
            max(floor, (sum((x - m) ** 2 for x in col) / n) ** 0.5)
            for col, m, floor in zip(zip(*elites), self.mean, self._sigma_floor)
        ]
        self.generation += 1
