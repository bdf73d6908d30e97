"""Vectorized candidate evaluation: serial in-process or over a WorkerFleet.

One candidate evaluation = one :class:`~repro.experiments.registry.Point` of
:class:`TuneEvalExperiment`, so fleet rollouts reuse the runner's persistent
crash-tolerant pool (:class:`~repro.runner.scheduler.WorkerFleet`) and its
retry machinery unchanged.  Results are consumed in submission order and
:func:`~repro.tune.channel_env.evaluate_candidate` is a pure function of
its JSON arguments, so ``jobs=1`` and fleet rollouts are bit-identical
(pinned by ``tests/test_tune_optim.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..experiments.registry import Experiment, Point
from .channel_env import evaluate_candidate

__all__ = ["TuneEvalExperiment", "RolloutBackend"]


class TuneEvalExperiment(Experiment):
    """One channel-placement evaluation per point (the fleet work unit).

    Point configs carry the full ``(spec, theta)`` pair, making each point
    self-describing and content-addressable; the experiment instance itself
    is stateless beyond the spec and pickles cheaply.
    """

    name = "tune_eval"
    description = "single PrioPlus channel-placement evaluation (repro.tune)"

    def __init__(self, spec_dict: dict):
        self.spec_dict = dict(spec_dict)

    def points(self) -> List[Point]:
        return []  # points are minted per generation by the search loop

    def point_for(self, theta: Sequence[float], generation: int, index: int) -> Point:
        return Point(
            f"g{generation}c{index}",
            {"spec": self.spec_dict, "theta": [float(v) for v in theta]},
            seed=int(self.spec_dict.get("seed", 0)),
        )

    def run_point(self, point: Point) -> dict:
        return evaluate_candidate(point.config["spec"], point.config["theta"])


class RolloutBackend:
    """Evaluates one generation of thetas; owns an optional WorkerFleet.

    ``jobs=1`` evaluates in-process.  ``jobs>1`` lazily spins up a
    :class:`WorkerFleet` (or uses a caller-provided one, e.g. the serve
    daemon's warm fleet) and fans the generation out, preserving candidate
    order.
    """

    def __init__(self, spec_dict: dict, jobs: int = 1, fleet=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.exp = TuneEvalExperiment(spec_dict)
        self.jobs = jobs
        self._fleet = fleet
        self._owns_fleet = False

    def _ensure_fleet(self):
        if self._fleet is None:
            from ..runner.scheduler import WorkerFleet

            self._fleet = WorkerFleet(self.jobs)
            self._owns_fleet = True
        return self._fleet

    def evaluate(self, thetas: Sequence[Sequence[float]], generation: int) -> List[dict]:
        points = [self.exp.point_for(t, generation, i) for i, t in enumerate(thetas)]
        if self.jobs == 1 and self._fleet is None:
            return [self.exp.run_point(p) for p in points]
        fleet = self._ensure_fleet()
        futures = [fleet.submit(self.exp, p) for p in points]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._owns_fleet and self._fleet is not None:
            self._fleet.shutdown()
            self._fleet = None
            self._owns_fleet = False

    def __enter__(self) -> "RolloutBackend":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None
