"""The uniform Experiment protocol and the process-wide registry.

``runner/``, ``serve/``, ``api.py`` and the CLI reach
``repro.experiments`` only through this module, so it imports nothing from
``repro``: naming an experiment never drags in the simulator.  Figure
modules register into :data:`REGISTRY` at import time (see docs/RUNNER.md).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Point",
    "Experiment",
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
    config: Dict[str, object] = field(default_factory=dict)
    seed: int = 0


class Experiment:
    """Uniform interface every figure/table runner is ported onto.

    * :meth:`points` enumerates the independent simulation points — each one
      builds its own :class:`~repro.sim.engine.Simulator` and shares no state
      with its siblings, which is what lets ``repro.runner`` fan them out
      across worker processes and cache them individually.
    * :meth:`run_point` executes one point and returns a JSON-safe dict
      (tuples are allowed; they round-trip to lists).
    * :meth:`reduce` folds the per-point results (an ordered
      ``{point_name: result}`` mapping, in :meth:`points` order) into the
      experiment's final result dict.  It runs in the parent process, is
      never cached, and must be deterministic in its inputs.

    Instances must be picklable (plain top-level classes with plain-data
    attributes) so worker processes can receive them.
    """

    name: str = ""
    description: str = ""

    def points(self) -> List[Point]:
        raise NotImplementedError

    def run_point(self, point: Point) -> dict:
        raise NotImplementedError

    def reduce(self, results: Mapping[str, dict]) -> dict:
        """Default reduction: unwrap a single point, else map by point name."""
        if len(results) == 1:
            return next(iter(results.values()))
        return dict(results)

    def quick(self) -> "Experiment":
        """A CI-scale variant of this experiment (the CLI's ``--quick``).

        Defaults to ``self``; experiments with an intrinsically cheaper
        configuration (fewer/shorter points) return a scaled-down instance.
        The variant must keep a distinct identity in cached results when its
        points differ (different point configs already guarantee that).
        """
        return self


#: point name -> (module-level function, its kwargs)
Spec = Mapping[str, Tuple[Callable[..., dict], Dict[str, object]]]


class FunctionExperiment(Experiment):
    """Adapter porting plain ``run_*`` functions onto :class:`Experiment`.

    ``spec`` maps point name -> ``(function, kwargs)``.  The kwargs become the
    point's config verbatim (plus its cache identity); ``kwargs["seed"]`` is
    mirrored into :attr:`Point.seed` when present.  Functions must be
    module-level (picklable by reference) for process-pool execution; bind
    experiment-level parameters with :func:`functools.partial`.
    ``quick_spec``, when given, is the spec of the ``--quick`` variant.
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
        self._reduce_fn = reduce_fn
        self._quick_spec = quick_spec

    def points(self) -> List[Point]:
        return [
            Point(pname, dict(kwargs), seed=int(kwargs.get("seed", 0)))
            for pname, (_, kwargs) in self._spec.items()
        ]

    def run_point(self, point: Point) -> dict:
        fn, _ = self._spec[point.name]
        return fn(**point.config)

    def reduce(self, results: Mapping[str, dict]) -> dict:
        if self._reduce_fn is not None:
            return self._reduce_fn(results)
        return super().reduce(results)

    def quick(self) -> Experiment:
        if self._quick_spec is None:
            return self
        return FunctionExperiment(
            self.name, self._quick_spec, description=self.description, reduce_fn=self._reduce_fn
        )


#: experiment modules imported by :meth:`ExperimentRegistry.load_all`; each
#: registers its Experiment instances at import time
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
    """Name -> :class:`Experiment` lookup driving the CLI and the runner."""

    def __init__(self):
        self._experiments: Dict[str, Experiment] = {}
        self._loaded = False

    def register(self, experiment: Experiment) -> Experiment:
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

    def get(self, name: str) -> Experiment:
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

    def experiments(self) -> List[Experiment]:
        self.load_all()
        return [self._experiments[n] for n in self.names()]


#: the process-wide default registry; experiment modules register into it
REGISTRY = ExperimentRegistry()
register = REGISTRY.register
get_experiment = REGISTRY.get
experiment_names = REGISTRY.names
