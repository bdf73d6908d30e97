"""``tune_channels``: auto-tuned vs paper-default PrioPlus channel placement.

One point per workload; each point runs a full deterministic CEM search
(:func:`repro.tune.search.run_search`) and reports the tuned placement next
to the paper default.  The reduce step emits a verdict per workload —
``tuned_beats_default`` plus the improvement — which is what EXPERIMENTS.md
records and ``benchmarks/test_tune_channels.py`` asserts.

The search inside a point is serial: points are the runner's parallelism
unit, so ``python -m repro run tune_channels --jobs 2`` runs the two
workloads' searches side by side.
"""

from __future__ import annotations

from typing import Mapping

from ..tune import WORKLOADS, run_search
from .registry import FunctionExperiment, register

__all__ = ["tune_point", "tune_verdicts"]


def tune_point(workload: str, budget: int, pop_size: int, seed: int) -> dict:
    spec = {"workload": workload, "n_priorities": WORKLOADS[workload]["n_priorities"],
            "seed": seed}
    return run_search(spec, budget=budget, pop_size=pop_size, seed=seed)


def tune_verdicts(results: Mapping[str, dict]) -> dict:
    first = next(iter(results.values()))  # every search shares its seed
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
        "seed": first["seed"],
        "verdict": all(v["tuned_beats_default"] for v in verdicts.values()),
        "workloads": verdicts,
        "searches": dict(results),
    }


def _spec(workloads, budget: int, pop_size: int) -> dict:
    return {
        workload: (
            tune_point,
            {"workload": workload, "budget": budget, "pop_size": pop_size, "seed": 0},
        )
        for workload in workloads
    }


register(
    FunctionExperiment(
        "tune_channels",
        _spec(("flowsched", "fault_flap"), budget=24, pop_size=6),
        description="black-box search over PrioPlus [D_target, D_limit] bands vs paper default",
        reduce_fn=tune_verdicts,
        quick_spec=_spec(("flowsched_micro", "fault_flap"), budget=12, pop_size=4),
    )
)
