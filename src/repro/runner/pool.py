"""Process-pool execution of experiment points with caching and retry.

:func:`run_experiment` is the one batch entry point: it enumerates an
:class:`~repro.experiments.registry.FunctionExperiment`'s points, satisfies what it can
from the :class:`~repro.runner.cache.ResultCache`, fans the remainder out
across ``jobs`` worker processes, retries pool crashes with bounded backoff,
and reduces the per-point results in a deterministic order — so the reduced
output is byte-identical no matter how many workers ran, which points were
cached, or in what order they finished.

Around execution every point passes through three steps, each implemented
once here and run by :mod:`repro.serve`'s daemon too: :func:`plan_points`
(names and cache keys), :func:`settle_point` (audit report out, JSON-normalise,
cache) and :func:`reduce_points` (fold in ``points()`` order, audit block).
A failing point is reported through :func:`point_error`.

The execution core (worker bootstrap, per-point execution, the crash-retrying
:class:`~repro.runner.scheduler.WorkerFleet`) lives in
:mod:`repro.runner.scheduler`.

Determinism contract:

* every point result is normalized through a JSON round-trip before it is
  cached or reduced, so fresh and cached results are indistinguishable;
* a point result is simulation output only: no point runner embeds
  telemetry, and the CLI's ``--metrics`` / ``--profile`` /
  ``--trace-packets`` add their sink's snapshot to the reduced result;
* workers run with telemetry disabled; the parent-side flight recorder (when
  one is active) receives the runner's own counters instead:
  ``runner.points``, ``runner.cache_hits``, ``runner.cache_misses``,
  ``runner.points_executed``, ``runner.worker_crashes``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..experiments.registry import FunctionExperiment, Point
from ..faults.plan import FaultPlan, current_fault_plan, plan_dict
from ..telemetry import current_recorder
from .cache import ResultCache, cache_key, json_safe
from .scheduler import RunnerError, WorkerFleet, execute_point

__all__ = [
    "RunnerError", "run_experiment", "plan_points", "settle_point", "reduce_points", "point_error",
]


def plan_points(exp: FunctionExperiment,
                faults_dict: Optional[dict] = None) -> Tuple[List[Point], Dict[str, str]]:
    """The plan step: ``exp``'s points and their cache keys, checked distinct.

    ``faults_dict`` (a :func:`~repro.faults.plan.plan_dict`) enters every
    key, so faulted and healthy runs never alias.
    """
    points = exp.points()
    extra = {"faults": faults_dict} if faults_dict is not None else None
    keys = {p.name: cache_key(exp.name, p, extra=extra) for p in points}
    if len(set(keys.values())) != len(points):
        raise RunnerError(
            f"{exp.name}: two points share a cache key — every point needs a "
            f"distinct (config, seed)"
        )
    return points, keys


def settle_point(exp: FunctionExperiment, point: Point, key: str, raw: dict,
                 store: Optional[ResultCache], audit_reports: Dict[str, dict]) -> dict:
    """The settle step for one executed point: returns the result to reduce.

    Pops the audit report into ``audit_reports``, JSON-normalizes the rest
    (so a fresh result equals its future cached self) and stores it.
    """
    rep = raw.pop("audit", None) if isinstance(raw, dict) else None
    if rep is not None:
        audit_reports[point.name] = rep
    result = json.loads(json.dumps(json_safe(raw)))
    if store is not None:
        store.put(exp.name, key, point, result)
    return result


def reduce_points(exp: FunctionExperiment, points: List[Point], results: Mapping[str, dict],
                  executed: int, audit: Optional[str], audit_reports: Mapping[str, dict],
                  report: dict) -> dict:
    """The reduce step: fold ``results`` in ``points()`` order.

    Under ``audit`` the per-point reports become ``reduced["audit"]``
    (points not executed here count as cached) and their violation total
    ``report["audit_violations"]``.
    """
    reduced = exp.reduce({p.name: results[p.name] for p in points})
    if audit is None:
        return reduced
    audited = {p.name: audit_reports[p.name] for p in points if p.name in audit_reports}
    violations = sum(r["violation_count"] for r in audited.values())
    if isinstance(reduced, dict):
        reduced["audit"] = {
            "mode": audit,
            "ok": violations == 0,
            "violation_count": violations,
            "points_audited": len(audited),
            "points_cached": len(points) - executed,
            "points": audited,
        }
    report["audit_violations"] = violations
    return reduced


def point_error(exp: FunctionExperiment, point: Point, exc: Exception) -> RunnerError:
    """The one wording of a failed point (a :class:`RunnerError` passes as is)."""
    if isinstance(exc, RunnerError):
        return exc
    err = RunnerError(f"{exp.name}:{point.name} raised {type(exc).__name__}: {exc}")
    err.__cause__ = exc
    return err


class _Counters:
    """Thin veneer over the active recorder's metrics registry (or nothing)."""

    def __init__(self):
        rec = current_recorder()
        self._metrics = rec.metrics if rec is not None else None

    def inc(self, name: str, n: int = 1) -> None:
        if self._metrics is not None and n:
            self._metrics.counter(name).inc(n)


def _progress_printer(exp_name: str, total: int) -> Callable[[str, str], None]:
    """Per-point progress/ETA lines on stderr, safe for daemon contexts.

    A detached or closed stderr (service under a supervisor, parent died,
    pipe reader gone) must degrade to silence, not kill the run: the first
    failing write disables all further output.
    """
    t0 = time.monotonic()
    done = [0]
    broken = [False]

    def tick(point_name: str, source: str) -> None:
        done[0] += 1
        if broken[0]:
            return
        elapsed = time.monotonic() - t0
        eta = elapsed / done[0] * (total - done[0])
        try:
            print(
                f"[runner] {exp_name} {done[0]}/{total} {point_name} ({source}) "
                f"elapsed={elapsed:.1f}s eta={eta:.1f}s",
                file=sys.stderr,
                flush=True,
            )
        except (OSError, ValueError, AttributeError):
            # BrokenPipeError/closed-file ValueError/stderr=None under pythonw
            broken[0] = True

    return tick


def _executed(exp: FunctionExperiment, points: List[Point], jobs: int, audit: Optional[str],
              faults_dict: Optional[dict], counters: _Counters) -> Iterator[Tuple[Point, dict]]:
    """Yield ``(point, raw result)`` as points finish.

    ``jobs <= 1`` runs them inline, in order; otherwise they fan out over a
    one-shot :class:`WorkerFleet`, whose retry semantics apply: a dying
    worker (segfault, OOM-kill, ``os._exit``) rebuilds the pool and its
    points are resubmitted with exponential backoff, up to ``MAX_RETRIES``
    times each.  A point that raises ends the run at once — a
    deterministic error will not succeed on retry.
    """
    if jobs <= 1 or not points:
        for p in points:
            try:
                raw = execute_point(exp, p, audit, faults_dict)
            except Exception as exc:
                raise point_error(exp, p, exc)
            yield p, raw
        return
    fleet = WorkerFleet(
        min(jobs, len(points)), on_crash=lambda: counters.inc("runner.worker_crashes")
    )
    try:
        futures = {fleet.submit(exp, p, audit, faults_dict): p for p in points}
        for fut in concurrent.futures.as_completed(futures):
            p = futures[fut]
            try:
                raw = fut.result()
            except Exception as exc:
                raise point_error(exp, p, exc)
            yield p, raw
    finally:
        fleet.shutdown(wait=True)


def run_experiment(
    exp: FunctionExperiment,
    jobs: int = 1,
    cache: Union[str, ResultCache, None] = None,
    progress: Union[bool, Callable[[str, str], None]] = False,
    report: Optional[dict] = None,
    faults: Union[str, FaultPlan, dict, None] = None,
    audit: Optional[str] = None,
) -> dict:
    """Run every point of ``exp`` and return its reduced result.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` executes points inline (no subprocesses),
        which is the reference serial path; any ``N > 1`` must produce a
        byte-identical reduced result.
    cache:
        A directory path or :class:`ResultCache`; points whose key is
        already stored are not simulated again.
    progress:
        ``True`` prints per-point progress/ETA lines to stderr; a callable
        receives ``(point_name, source)`` with source ``"cache"``/``"run"``.
    report:
        Optional dict filled in place with run statistics
        (``points``, ``cache_hits``, ``executed``, ``jobs``, ``wall_s``).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` (or its dict, or a path to
        its JSON) applied to every point — shipped to workers as plain data
        and installed for the duration of each point, so each point's
        ``Network.build_routes()`` arms it, in workers and in the serial
        path alike.  The plan enters every point's cache key, so faulted
        and healthy runs never alias.  ``None`` inherits whatever default
        plan is already installed (still cache-keyed).
    audit:
        ``"strict"`` or ``"warn"`` runs every *executed* point under a fresh
        :class:`repro.audit.Auditor` (in workers and the serial path alike)
        and aggregates the per-point reports into ``reduced["audit"]``.
        Strict mode fails the run at the first violation.  Audited results
        are byte-identical to unaudited ones, so cache entries are shared
        with unaudited runs; cache-hit points are counted but not re-audited.
    """
    if audit is not None and audit not in ("strict", "warn"):
        raise RunnerError(f"audit must be 'strict', 'warn' or None, got {audit!r}")
    t0 = time.monotonic()
    faults_dict = plan_dict(faults if faults is not None else current_fault_plan())
    points, keys = plan_points(exp, faults_dict)
    store = ResultCache(cache) if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__") else cache

    counters = _Counters()
    counters.inc("runner.points", len(points))
    if progress is True:
        on_done = _progress_printer(exp.name, len(points))
    elif callable(progress):
        on_done = progress
    else:
        def on_done(point_name: str, source: str) -> None:
            pass

    results: Dict[str, dict] = {}
    audit_reports: Dict[str, dict] = {}
    pending: List[Point] = []
    for p in points:
        entry = store.get(exp.name, keys[p.name]) if store is not None else None
        if entry is not None:
            results[p.name] = entry["result"]
            counters.inc("runner.cache_hits")
            on_done(p.name, "cache")
        else:
            pending.append(p)
    counters.inc("runner.cache_misses", len(pending))

    executed = _executed(exp, pending, jobs, audit, faults_dict, counters)
    with contextlib.closing(executed):  # a failing settle still shuts the pool down
        for p, raw in executed:
            results[p.name] = settle_point(exp, p, keys[p.name], raw, store, audit_reports)
            counters.inc("runner.points_executed")
            on_done(p.name, "run")

    stats = report if report is not None else {}
    reduced = reduce_points(exp, points, results, len(pending), audit, audit_reports, stats)
    stats.update(
        experiment=exp.name,
        points=len(points),
        cache_hits=len(points) - len(pending),
        executed=len(pending),
        jobs=jobs,
        wall_s=time.monotonic() - t0,
    )
    return reduced
