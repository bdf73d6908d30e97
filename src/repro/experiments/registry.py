"""The one experiment type and the process-wide registry.

``runner/``, ``serve/``, ``api.py`` and the CLI reach
``repro.experiments`` only through this module, so it imports nothing from
``repro``: naming an experiment never drags in the simulator.  Figure
modules register into :data:`REGISTRY` at import time (see docs/RUNNER.md).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Point",
    "FunctionExperiment",
    "ExperimentRegistry",
    "REGISTRY",
    "register",
    "get_experiment",
    "experiment_names",
]


@dataclass(frozen=True)
class Point:
    """One independent simulation point of an experiment.

    ``config`` must be JSON-canonicalizable (plain scalars, lists/tuples and
    string-keyed dicts): together with ``seed``, the experiment name and the
    repro version it forms the content-addressed result-cache key, so every
    semantically distinct point MUST carry a distinct ``(config, seed)`` pair
    within its experiment.
    """

    name: str
    config: Dict[str, object]
    seed: int


#: point name -> (module-level function, its kwargs)
Spec = Mapping[str, Tuple[Callable[..., dict], Dict[str, object]]]


class FunctionExperiment:
    """The one experiment type: plain ``run_*`` functions, one per point.

    ``spec`` maps point name -> ``(function, kwargs)``.  The kwargs become the
    point's config verbatim (plus its cache identity); every point's kwargs
    carry its one ``seed``, mirrored into :attr:`Point.seed`.  Functions must be
    module-level (picklable by reference) for process-pool execution; bind
    experiment-level parameters with :func:`functools.partial`.
    ``quick_spec``, when given, is the spec of the ``--quick`` variant.

    * :meth:`points` enumerates the independent simulation points — each one
      builds its own :class:`~repro.sim.engine.Simulator` and shares no state
      with its siblings, which is what lets ``repro.runner`` fan them out
      across worker processes and cache them individually.
    * :meth:`run_point` executes one point and returns a JSON-safe dict
      (tuples are allowed; they round-trip to lists).
    * :meth:`reduce` folds the per-point results (an ordered
      ``{point_name: result}`` mapping, in :meth:`points` order) into the
      experiment's final result dict with ``reduce_fn``; without one it
      unwraps a single point, else maps by point name.  It runs in the parent
      process, is never cached, and must be deterministic in its inputs.
    """

    def __init__(
        self,
        name: str,
        spec: Spec,
        description: str = "",
        reduce_fn: Optional[Callable[[Mapping[str, dict]], dict]] = None,
        quick_spec: Optional[Spec] = None,
    ):
        self.name = name
        self.description = description
        self._spec = {pname: (fn, dict(kwargs)) for pname, (fn, kwargs) in spec.items()}
        unseeded = [p for s in (spec, quick_spec or {}) for p, (_, kw) in s.items() if "seed" not in kw]
        if unseeded:
            raise ValueError(f"experiment {name!r}: points without a seed kwarg: {unseeded}")
        self._reduce_fn = reduce_fn
        self._quick_spec = quick_spec

    def points(self) -> List[Point]:
        return [
            Point(pname, dict(kwargs), seed=int(kwargs["seed"]))
            for pname, (_, kwargs) in self._spec.items()
        ]

    def run_point(self, point: Point) -> dict:
        fn, _ = self._spec[point.name]
        return fn(**point.config)

    def reduce(self, results: Mapping[str, dict]) -> dict:
        if self._reduce_fn is not None:
            return self._reduce_fn(results)
        if len(results) == 1:
            return next(iter(results.values()))
        return dict(results)

    def quick(self) -> "FunctionExperiment":
        """The CI-scale variant (the CLI's ``--quick``): ``quick_spec``'s
        points, or ``self`` without one."""
        if self._quick_spec is None:
            return self
        return FunctionExperiment(
            self.name, self._quick_spec, description=self.description, reduce_fn=self._reduce_fn
        )


#: experiment modules imported by :meth:`ExperimentRegistry.load_all`; each
#: registers its experiments at import time
_EXPERIMENT_MODULES = (
    "ablations",
    "ecn_priority",
    "fault_experiments",
    "fig3_micro",
    "fig6_dualrtt",
    "fig8_testbed",
    "fig9_fluct",
    "fig10_micro",
    "fig11_flowsched",
    "fig12_coflow",
    "fig13_noncongestive",
    "fig14_breakdown",
    "fig16_ack_hpcc",
    "headroom_pressure",
    "mltrain",
    "paper_scale",
    "quickstart",
    "table2_validation",
    "tune_channels",
)


class ExperimentRegistry:
    """Name -> :class:`FunctionExperiment` lookup driving the CLI and the runner."""

    def __init__(self):
        self._experiments: Dict[str, FunctionExperiment] = {}
        self._loaded = False

    def register(self, experiment: FunctionExperiment) -> FunctionExperiment:
        name = experiment.name
        if not name:
            raise ValueError("experiment must set a non-empty name")
        if name in self._experiments:
            raise ValueError(f"experiment {name!r} already registered")
        self._experiments[name] = experiment
        return experiment

    def load_all(self) -> None:
        """Import every known experiment module (idempotent)."""
        if self._loaded:
            return
        self._loaded = True
        for mod in _EXPERIMENT_MODULES:
            importlib.import_module(f".{mod}", package=__package__)

    def get(self, name: str) -> FunctionExperiment:
        self.load_all()
        try:
            return self._experiments[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        self.load_all()
        return sorted(self._experiments)

    def experiments(self) -> List[FunctionExperiment]:
        self.load_all()
        return [self._experiments[n] for n in self.names()]


#: the process-wide default registry; experiment modules register into it
REGISTRY = ExperimentRegistry()
register = REGISTRY.register
get_experiment = REGISTRY.get
experiment_names = REGISTRY.names
