"""The stable public facade for running experiments (API v1).

Everything a user of this package needs for *executing* experiments —
locally or against a serving daemon — goes through this module.  The CLI
(``python -m repro``) and ``scripts/run_all_experiments.py`` are built on
it; anything not exported here (runner internals, server internals,
per-figure ``run_figX`` functions) is an implementation detail with no
stability promise.  Requests and responses are the versioned dataclasses
from :mod:`repro.serve.protocol`, re-exported here, so the programmatic
surface and the wire protocol never drift apart.

Local (in-process, via the sharded runner)::

    import repro.api as api

    result = api.run("fig10c", jobs=4, cache=".repro-cache")
    names = api.experiments()
    info = api.cache_info(".repro-cache")

Remote (against ``python -m repro serve``)::

    result = api.run("fig10c", server="/tmp/repro.sock")
    stats = api.status("/tmp/repro.sock")

The remote path produces byte-identical results to the local serial path:
the daemon runs the batch runner's own plan, settle and reduce steps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from .client import ServeClient, ServeError
from .experiments.registry import REGISTRY, FunctionExperiment
from .faults.plan import FaultPlan, plan_dict
from .runner import ResultCache, RunnerError, run_experiment
from .serve.protocol import PROTOCOL_VERSION, ProtocolError, ServerStats, SubmitRequest

__all__ = [
    # versioned schema (shared with the wire protocol)
    "PROTOCOL_VERSION",
    "SubmitRequest",
    "ServerStats",
    "ProtocolError",
    # errors
    "RunnerError",
    "ServeError",
    # execution
    "run",
    "status",
    # discovery + cache inspection
    "experiments",
    "describe",
    "get_experiment",
    "cache_info",
]

_ExperimentLike = Union[str, FunctionExperiment]


def get_experiment(experiment: _ExperimentLike, quick: bool) -> FunctionExperiment:
    """Resolve a registry name (or pass through an instance), quick-scaled."""
    exp = REGISTRY.get(experiment) if isinstance(experiment, str) else experiment
    return exp.quick() if quick else exp


def experiments() -> List[str]:
    """Registered experiment names."""
    return REGISTRY.names()


def describe() -> Dict[str, str]:
    """``{name: description}`` for every registered experiment."""
    return {e.name: e.description for e in REGISTRY.experiments()}


def run(
    experiment: _ExperimentLike,
    quick: bool = False,
    jobs: int = 1,
    cache: Union[str, ResultCache, None] = None,
    progress: Union[bool, Callable[[str, str], None]] = False,
    faults: Union[str, FaultPlan, dict, None] = None,
    audit: Optional[str] = None,
    report: Optional[dict] = None,
    server: Optional[str] = None,
) -> dict:
    """Run one experiment to completion and return its reduced result.

    With ``server=None`` this is the in-process sharded runner
    (:func:`repro.runner.run_experiment`): ``jobs`` worker processes,
    optional local ``cache`` directory.  With a ``server`` address the
    experiment runs on the daemon's warm fleet instead — ``jobs`` and
    ``cache`` are then the *server's* concern and must not be passed.

    ``progress`` may be ``True`` (stderr progress lines, local only) or a
    ``(point_name, source)`` callable; remotely the sources are
    ``"cache"``/``"inflight"``/``"run"``, locally ``"cache"``/``"run"``.
    """
    faults = plan_dict(faults)
    if server is not None:
        if jobs != 1 or cache is not None:
            raise ValueError(
                "jobs/cache are configured on the daemon, not per request; "
                "drop them or run locally (server=None)"
            )
        if not isinstance(experiment, str):
            raise ValueError(
                f"remote runs address experiments by registry name; pass "
                f"{experiment.name!r} instead of the instance"
            )
        on_progress = progress if callable(progress) else None
        return ServeClient(server).run(
            experiment,
            quick=quick,
            faults=faults,
            audit=audit,
            on_progress=on_progress,
            report=report,
        )
    exp = get_experiment(experiment, quick=quick)
    return run_experiment(
        exp,
        jobs=jobs,
        cache=cache,
        progress=progress,
        report=report,
        faults=faults,
        audit=audit,
    )


def status(server: str) -> ServerStats:
    """The daemon's whole-server stats (fleet, run and hit-ratio counters)."""
    return ServeClient(server).server_status()


def cache_info(cache: Union[str, ResultCache, None] = None) -> Optional[dict]:
    """Inspect a local content-addressed result cache directory."""
    if cache is None:
        return None
    store = cache if isinstance(cache, ResultCache) else ResultCache(cache)
    return store.info()
