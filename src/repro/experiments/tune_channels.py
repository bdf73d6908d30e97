"""``tune_channels``: auto-tuned vs paper-default PrioPlus channel placement.

One point per workload; each point runs a full deterministic
:func:`repro.tune.search.run_search` (CEM by default) and reports the tuned
placement next to the paper default.  The reduce step emits a verdict per
workload — ``tuned_beats_default`` plus the improvement — which is what
EXPERIMENTS.md records and the CI ``tune-smoke`` job asserts.

The search inside a point is serial (``jobs=1``): points are already the
runner's parallelism unit, and nesting a fleet inside a fleet worker would
oversubscribe.  Use ``python -m repro tune --jobs N`` for fleet-parallel
generations of a single search.
"""

from __future__ import annotations

from typing import List, Mapping

from .registry import Experiment, Point, register

__all__ = ["TuneChannelsExperiment"]

_FULL = {"workloads": ("flowsched", "fault_flap"), "budget": 24, "pop_size": 6}
_QUICK = {"workloads": ("flowsched_micro", "fault_flap"), "budget": 12, "pop_size": 4}


class TuneChannelsExperiment(Experiment):
    name = "tune_channels"
    description = "black-box search over PrioPlus [D_target, D_limit] bands vs paper default"

    def __init__(
        self,
        workloads=_FULL["workloads"],
        budget: int = _FULL["budget"],
        pop_size: int = _FULL["pop_size"],
        optimizer: str = "cem",
        seed: int = 0,
        quick_eval: bool = False,
    ):
        self.workloads = tuple(workloads)
        self.budget = budget
        self.pop_size = pop_size
        self.optimizer = optimizer
        self.seed = seed
        self.quick_eval = quick_eval

    def points(self) -> List[Point]:
        return [
            Point(
                workload,
                {
                    "workload": workload,
                    "optimizer": self.optimizer,
                    "budget": self.budget,
                    "pop_size": self.pop_size,
                    "seed": self.seed,
                    "quick": self.quick_eval,
                },
                seed=self.seed,
            )
            for workload in self.workloads
        ]

    def run_point(self, point: Point) -> dict:
        from ..tune import make_spec, run_search

        cfg = point.config
        spec = make_spec(cfg["workload"], seed=cfg["seed"], quick=cfg["quick"])
        res = run_search(
            spec,
            optimizer=cfg["optimizer"],
            budget=cfg["budget"],
            pop_size=cfg["pop_size"],
            seed=cfg["seed"],
            jobs=1,
        )
        res.pop("history", None)  # keep cached results compact
        return res

    def reduce(self, results: Mapping[str, dict]) -> dict:
        verdicts = {}
        for workload, res in results.items():
            default_u = res["default"]["utility"]
            best_u = res["best"]["utility"]
            verdicts[workload] = {
                "tuned_beats_default": bool(res["improved"]),
                "default_utility": default_u,
                "tuned_utility": best_u,
                "improvement_pct": (
                    100.0 * (best_u - default_u) / abs(default_u) if default_u else None
                ),
                "tuned_bands_ns": res["best"]["bands"],
                "default_bands_ns": res["default"]["bands"],
                "evaluations": res["evaluations"],
            }
        return {
            "optimizer": self.optimizer,
            "seed": self.seed,
            "verdict": all(v["tuned_beats_default"] for v in verdicts.values()),
            "workloads": verdicts,
            "searches": dict(results),
        }

    def quick(self) -> "TuneChannelsExperiment":
        return TuneChannelsExperiment(
            workloads=_QUICK["workloads"],
            budget=_QUICK["budget"],
            pop_size=_QUICK["pop_size"],
            optimizer=self.optimizer,
            seed=self.seed,
            quick_eval=True,
        )


register(TuneChannelsExperiment())
