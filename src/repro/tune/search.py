"""The checkpointed search loop tying spec + optimizer + runner together.

:func:`run_search` drives ask/tell generations until the evaluation budget
is spent, checkpointing the complete search state (optimizer distribution,
RNG, history, incumbent) to JSON after every generation — a killed search
resumes bit-identically from its checkpoint (pinned by
``tests/test_tune_optim.py``).

Each generation is one :class:`FunctionExperiment` of
:func:`~repro.tune.channel_env.evaluate_candidate` points run by
:func:`~repro.runner.run_experiment`: inline at ``jobs=1``, over a one-shot
pool of ``jobs`` workers otherwise, with the same result.

Generation 0 always evaluates the paper-default placement first (the
optimizer's ``init_theta`` incumbent), so the reported best can never be
worse than the default — the invariant the CI ``tune-smoke`` gate asserts.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional

from ..experiments.registry import FunctionExperiment
from ..runner import run_experiment
from .channel_env import TuneSpec, default_theta, evaluate_candidate, theta_to_bands
from .optim import OPTIMIZERS

__all__ = ["run_search", "load_checkpoint"]


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _candidate(spec: dict, theta: List[float], slot: int) -> dict:
    """One population member; ``slot`` keeps two equal clipped samples two points."""
    return evaluate_candidate(spec, theta)


def _generation(spec_dict: dict, pop: List[List[float]], generation: int) -> FunctionExperiment:
    return FunctionExperiment(
        "tune_eval",
        {
            f"g{generation}c{slot}": (
                _candidate,
                {"spec": spec_dict, "theta": [float(v) for v in theta], "slot": slot},
            )
            for slot, theta in enumerate(pop)
        },
    )


def load_checkpoint(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def run_search(
    spec: TuneSpec,
    optimizer: str = "cem",
    budget: int = 24,
    pop_size: int = 6,
    seed: int = 0,
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> dict:
    """Tune channel placement for ``spec``; returns the tuned-vs-default report.

    ``budget`` counts candidate evaluations (generations are
    ``ceil(budget / pop_size)``).  ``jobs > 1`` fans each generation over
    ``jobs`` worker processes.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; choose from {sorted(OPTIMIZERS)}")
    say = log or (lambda msg: None)
    spec_dict = spec.to_dict()
    incumbent = default_theta(spec.n_priorities)

    ckpt = load_checkpoint(checkpoint_path) if (checkpoint_path and resume) else None
    if ckpt is not None:
        if ckpt["spec"] != spec_dict or ckpt["optimizer_state"]["optimizer"] != optimizer:
            raise ValueError(
                f"checkpoint {checkpoint_path} was written for spec "
                f"{ckpt['spec']} / optimizer {ckpt['optimizer_state']['optimizer']!r}; "
                f"delete it or match the arguments"
            )
        opt = OPTIMIZERS[optimizer].load(ckpt["optimizer_state"])
        history = ckpt["history"]
        default_record = ckpt["default"]
        say(f"resumed {optimizer} search at generation {opt.generation} "
            f"({opt.evaluations}/{budget} evaluations)")
    else:
        opt = OPTIMIZERS[optimizer](
            spec.space(), seed=seed, pop_size=pop_size, init_theta=incumbent
        )
        history = []
        default_record = None

    while opt.evaluations < budget:
        generation = opt.generation
        pop = opt.ask()
        # pop_size >= 2, so the default reduce is {point: result} in slot order
        results = list(run_experiment(_generation(spec_dict, pop, generation), jobs=jobs).values())
        utilities = [r["utility"] for r in results]
        if generation == 0 and default_record is None:
            # ask() put the incumbent (paper default) at slot 0
            default_record = {
                "theta": pop[0],
                "utility": utilities[0],
                "metrics": results[0]["metrics"],
            }
        opt.tell(pop, utilities)
        gen_best = max(range(len(pop)), key=lambda i: utilities[i])
        history.append(
            {
                "generation": generation,
                "utilities": utilities,
                "gen_best_utility": utilities[gen_best],
                "best_utility": opt.best_utility,
            }
        )
        say(
            f"gen {generation}: best {utilities[gen_best]:.4f}, "
            f"overall {opt.best_utility:.4f} "
            f"({opt.evaluations}/{budget} evaluations)"
        )
        if checkpoint_path:
            _atomic_write_json(
                checkpoint_path,
                {
                    "spec": spec_dict,
                    "budget": budget,
                    "seed": seed,
                    "optimizer_state": opt.state(),
                    "history": history,
                    "default": default_record,
                },
            )

    if default_record is None:
        # zero-budget edge case: report the incumbent unevaluated
        default_record = {"theta": incumbent, "utility": None, "metrics": {}}
    best_theta = opt.best_theta if opt.best_theta is not None else incumbent
    best_eval = evaluate_candidate(spec_dict, best_theta)
    default_utility = default_record["utility"]
    improved = (
        default_utility is not None and best_eval["utility"] > default_utility
    )
    return {
        "spec": spec_dict,
        "optimizer": optimizer,
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
        "improved": improved,
        "improvement": (
            best_eval["utility"] - default_utility if default_utility is not None else None
        ),
        "history": history,
    }
