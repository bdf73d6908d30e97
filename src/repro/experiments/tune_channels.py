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

from typing import Mapping

from .registry import FunctionExperiment, register

__all__ = ["tune_point", "tune_verdicts"]


def tune_point(
    workload: str, optimizer: str, budget: int, pop_size: int, seed: int, quick: bool
) -> dict:
    from ..tune import make_spec, run_search

    res = run_search(
        make_spec(workload, seed=seed, quick=quick),
        optimizer=optimizer,
        budget=budget,
        pop_size=pop_size,
        seed=seed,
        jobs=1,
    )
    res.pop("history", None)  # keep cached results compact
    return res


def tune_verdicts(results: Mapping[str, dict]) -> dict:
    first = next(iter(results.values()))  # every search shares optimizer and seed
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
        "optimizer": first["optimizer"],
        "seed": first["seed"],
        "verdict": all(v["tuned_beats_default"] for v in verdicts.values()),
        "workloads": verdicts,
        "searches": dict(results),
    }


def _spec(workloads, budget: int, pop_size: int, quick: bool) -> dict:
    return {
        workload: (
            tune_point,
            {
                "workload": workload,
                "optimizer": "cem",
                "budget": budget,
                "pop_size": pop_size,
                "seed": 0,
                "quick": quick,
            },
        )
        for workload in workloads
    }


register(
    FunctionExperiment(
        "tune_channels",
        _spec(("flowsched", "fault_flap"), budget=24, pop_size=6, quick=False),
        description="black-box search over PrioPlus [D_target, D_limit] bands vs paper default",
        reduce_fn=tune_verdicts,
        quick_spec=_spec(("flowsched_micro", "fault_flap"), budget=12, pop_size=4, quick=True),
    )
)
