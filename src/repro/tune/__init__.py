"""Black-box auto-tuning of PrioPlus delay channels (docs/TUNING.md).

* :mod:`repro.tune.channel_env` — PrioPlus ``[D_target, D_limit]``
  placement as a black-box search problem: the theta encoding and the
  workload evaluators.
* :mod:`repro.tune.optim` — the CEM optimizer (stdlib RNG, deterministic).
* :mod:`repro.tune.search` — :func:`run_search`, the generation loop.
  Surfaced as the registered ``tune_channels`` experiment.
"""

from .channel_env import (
    WORKLOADS,
    default_theta,
    evaluate_candidate,
    theta_bounds,
    theta_to_bands,
    theta_to_channels,
)
from .optim import CEM
from .search import run_search

__all__ = [
    "WORKLOADS",
    "theta_bounds",
    "default_theta",
    "theta_to_bands",
    "theta_to_channels",
    "evaluate_candidate",
    "CEM",
    "run_search",
]
