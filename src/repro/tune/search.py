"""The search loop tying a workload spec and the CEM optimizer together.

:func:`run_search` drives ask/tell generations until the evaluation budget
is spent, scoring each generation's candidates in order with
:func:`~repro.tune.channel_env.evaluate_candidate`.  Parallelism lives one
level up: the registered ``tune_channels`` experiment runs one search per
runner point.

Generation 0 always evaluates the paper-default placement first (the
optimizer's ``init_theta`` incumbent), so the reported best can never be
worse than the default.
"""

from __future__ import annotations

from .channel_env import default_theta, evaluate_candidate, theta_bounds, theta_to_bands
from .optim import CEM

__all__ = ["run_search"]


def run_search(spec: dict, budget: int, pop_size: int, seed: int) -> dict:
    """Tune channel placement for ``spec``; returns the tuned-vs-default report.

    ``spec`` is ``{"workload", "n_priorities", "seed"}``; ``budget`` counts
    candidate evaluations (generations are ``ceil(budget / pop_size)``).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    incumbent = default_theta(spec["n_priorities"])
    opt = CEM(
        *theta_bounds(spec["n_priorities"]), seed=seed, pop_size=pop_size, init_theta=incumbent
    )
    default_record = None
    while opt.evaluations < budget:
        pop = opt.ask()
        results = [evaluate_candidate(spec, theta) for theta in pop]
        utilities = [r["utility"] for r in results]
        if default_record is None:
            # generation 0: ask() put the incumbent (paper default) first
            default_record = {
                "theta": pop[0],
                "utility": utilities[0],
                "metrics": results[0]["metrics"],
            }
        opt.tell(pop, utilities)

    # every utility -inf (no flow finished): report the incumbent
    best_theta = opt.best_theta if opt.best_theta is not None else incumbent
    best_eval = evaluate_candidate(spec, best_theta)
    default_utility = default_record["utility"]
    return {
        "spec": spec,
        "seed": seed,
        "pop_size": pop_size,
        "budget": budget,
        "evaluations": opt.evaluations,
        "generations": opt.generation,
        "default": dict(default_record, bands=theta_to_bands(default_record["theta"])),
        "best": {
            "theta": best_theta,
            "utility": best_eval["utility"],
            "metrics": best_eval["metrics"],
            "bands": best_eval["bands"],
        },
        "improved": best_eval["utility"] > default_utility,
        "improvement": best_eval["utility"] - default_utility,
    }
