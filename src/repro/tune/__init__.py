"""Black-box auto-tuning of PrioPlus delay channels (docs/TUNING.md).

* :mod:`repro.tune.channel_env` + :mod:`repro.tune.optim` — the channel
  tuner: PrioPlus ``[D_target, D_limit]`` placement as a black-box search
  problem (CEM / random search, stdlib RNG, deterministic).
* :mod:`repro.tune.search` — the checkpointed search loop; each generation
  runs through :func:`repro.runner.run_experiment` (serial or ``jobs``
  workers).  Surfaced as ``python -m repro tune`` and the registered
  ``tune_channels`` experiment.
"""

from .channel_env import (
    WORKLOADS,
    TuneSpec,
    default_theta,
    evaluate_candidate,
    make_spec,
    theta_to_bands,
)
from .optim import CEM, OPTIMIZERS, RandomSearch
from .search import run_search
from .spaces import BoxSpace

__all__ = [
    "BoxSpace",
    "TuneSpec",
    "WORKLOADS",
    "make_spec",
    "default_theta",
    "theta_to_bands",
    "evaluate_candidate",
    "CEM",
    "RandomSearch",
    "OPTIMIZERS",
    "run_search",
]
