"""Process-pool execution of experiment points with caching and retry.

:func:`run_experiment` is the one batch entry point: it enumerates an
:class:`~repro.experiments.registry.Experiment`'s points, satisfies what it can
from the :class:`~repro.runner.cache.ResultCache`, fans the remainder out
across ``jobs`` worker processes, retries pool crashes with bounded backoff,
and reduces the per-point results in a deterministic order — so the reduced
output is byte-identical no matter how many workers ran, which points were
cached, or in what order they finished.

The execution core (worker bootstrap, per-point execution, the crash-retrying
:class:`~repro.runner.scheduler.WorkerFleet`) lives in
:mod:`repro.runner.scheduler`; this module adds the batch orchestration, and
:mod:`repro.serve` builds the long-running daemon on the same core.

Determinism contract:

* every point result is normalized through a JSON round-trip before it is
  cached or reduced, so fresh and cached results are indistinguishable;
* a ``"telemetry"`` key attached by a point runner is stripped (telemetry is
  per-process observability, not part of the simulation result);
* workers run with telemetry disabled; the parent-side flight recorder (when
  one is active) receives the runner's own counters instead:
  ``runner.points``, ``runner.cache_hits``, ``runner.cache_misses``,
  ``runner.points_executed``, ``runner.worker_crashes``.
"""

from __future__ import annotations

import concurrent.futures
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Union

from ..experiments.registry import Experiment, Point
from ..faults.plan import FaultPlan, current_fault_plan, set_default_fault_plan
from ..telemetry import current_recorder
from .cache import ResultCache, cache_key, json_safe
from .scheduler import RunnerError, WorkerFleet, execute_point

__all__ = ["RunnerError", "run_experiment"]

# retained as aliases: these were importable from here before the scheduler split
_execute_point = execute_point


def _normalize(result: dict) -> dict:
    """JSON round-trip so fresh results equal their future cached selves."""
    return json.loads(json.dumps(json_safe(result)))


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


def _run_parallel(
    exp: Experiment,
    points: List[Point],
    jobs: int,
    max_retries: int,
    retry_backoff_s: float,
    counters: _Counters,
    on_done: Callable[[str, str], None],
    faults_dict: Optional[dict] = None,
    audit_mode: Optional[str] = None,
) -> Dict[str, dict]:
    """Fan ``points`` out over a one-shot :class:`WorkerFleet`.

    Retry semantics are the fleet's: when a worker process dies (segfault,
    OOM-kill, ``os._exit``), the pool is rebuilt and each affected point is
    resubmitted with exponential backoff, up to ``max_retries`` times per
    point.  Points that raise an ordinary exception fail the run
    immediately — a deterministic error will not succeed on retry.
    """
    fleet = WorkerFleet(
        min(jobs, len(points)),
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        on_crash=lambda: counters.inc("runner.worker_crashes"),
    )
    out: Dict[str, dict] = {}
    try:
        futures = {
            fleet.submit(exp, p, audit_mode, faults_dict): p for p in points
        }
        for fut in concurrent.futures.as_completed(futures):
            point = futures[fut]
            try:
                result = fut.result()
            except RunnerError:
                raise
            except Exception as exc:
                raise RunnerError(
                    f"{exp.name}:{point.name} raised {type(exc).__name__}: {exc}"
                ) from exc
            out[point.name] = result
            counters.inc("runner.points_executed")
            on_done(point.name, "run")
    finally:
        fleet.shutdown(wait=True, cancel_futures=True)
    return out


def run_experiment(
    exp: Experiment,
    jobs: int = 1,
    cache: Union[str, ResultCache, None] = None,
    progress: Union[bool, Callable[[str, str], None]] = False,
    max_retries: int = 2,
    retry_backoff_s: float = 0.25,
    report: Optional[dict] = None,
    faults: Union[str, FaultPlan, None] = None,
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
    max_retries / retry_backoff_s:
        Worker-crash retry budget (see :class:`~repro.runner.scheduler.WorkerFleet`).
    report:
        Optional dict filled in place with run statistics
        (``points``, ``cache_hits``, ``executed``, ``jobs``, ``wall_s``).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` (or a path to its JSON)
        applied to every point — shipped to workers as plain data and
        installed for the duration of each point, so each point's
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
    points = list(exp.points())
    names = [p.name for p in points]
    if len(set(names)) != len(names):
        raise RunnerError(f"{exp.name}: duplicate point names in points()")

    if isinstance(faults, str):
        faults = FaultPlan.load(faults)
    plan = faults if faults is not None else current_fault_plan()
    faults_dict = plan.to_dict() if plan is not None else None
    extra = {"faults": faults_dict} if faults_dict is not None else None

    store = ResultCache(cache) if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__") else cache
    keys = {p.name: cache_key(exp.name, p, extra=extra) for p in points}
    if len(set(keys.values())) != len(points):
        raise RunnerError(
            f"{exp.name}: two points share a cache key — every point needs a "
            f"distinct (config, seed)"
        )

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

    if pending:
        if jobs <= 1:
            fresh = {}
            for p in pending:
                try:
                    fresh[p.name] = execute_point(exp, p, audit, faults_dict)
                except RunnerError:
                    raise
                except Exception as exc:
                    raise RunnerError(
                        f"{exp.name}:{p.name} raised {type(exc).__name__}: {exc}"
                    ) from exc
                counters.inc("runner.points_executed")
                on_done(p.name, "run")
        else:
            fresh = _run_parallel(
                exp, pending, jobs, max_retries, retry_backoff_s, counters, on_done,
                faults_dict=faults_dict, audit_mode=audit,
            )
        for p in pending:
            raw = fresh[p.name]
            rep = raw.pop("audit", None) if isinstance(raw, dict) else None
            if rep is not None:
                audit_reports[p.name] = rep
            result = _normalize(raw)
            results[p.name] = result
            if store is not None:
                store.put(exp.name, keys[p.name], p, result)

    ordered = {p.name: results[p.name] for p in points}
    reduced = exp.reduce(ordered)
    if audit is not None and isinstance(reduced, dict):
        total_violations = sum(r["violation_count"] for r in audit_reports.values())
        reduced["audit"] = {
            "mode": audit,
            "ok": total_violations == 0,
            "violation_count": total_violations,
            "points_audited": len(audit_reports),
            "points_cached": len(points) - len(pending),
            "points": audit_reports,
        }
    if report is not None:
        report.update(
            experiment=exp.name,
            points=len(points),
            cache_hits=len(points) - len(pending),
            executed=len(pending),
            jobs=jobs,
            wall_s=time.monotonic() - t0,
        )
        if audit is not None:
            report["audit_violations"] = sum(
                r["violation_count"] for r in audit_reports.values()
            )
    return reduced
