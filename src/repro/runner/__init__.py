"""Parallel sharded experiment execution with content-addressed caching.

Quick taste::

    from repro.experiments.registry import get_experiment
    from repro.runner import run_experiment

    exp = get_experiment("fig10c")
    result = run_experiment(exp, jobs=4, cache=".repro-cache")
    # rerun: every point is a cache hit, zero simulator events execute

See ``docs/RUNNER.md`` for the sharding model, the cache-key scheme and the
crash-retry semantics.
"""

from .cache import ResultCache, cache_key, canonical_json, json_safe
from .pool import RunnerError, run_experiment

__all__ = [
    "run_experiment",
    "RunnerError",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "json_safe",
]
