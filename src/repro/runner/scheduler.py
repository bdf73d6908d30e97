"""The reusable point-scheduling core shared by ``run_experiment`` and serve.

This module owns the worker-side execution function (:func:`execute_point`),
the worker bootstrap (:func:`worker_init`) and :class:`WorkerFleet` — a
*persistent* process pool with per-task crash retry.  ``repro.runner.pool``
builds the one-shot batch path (``run_experiment``) on top of it, and
``repro.serve`` keeps one long-lived fleet warm behind the daemon, so both
paths share identical execution, retry and determinism semantics.

Crash-retry semantics
---------------------
A worker death (segfault, OOM-kill, ``os._exit``) surfaces as
``BrokenProcessPool`` on every in-flight future of that executor.  The fleet
then rotates the executor (one rebuild per crash event, guarded by a
generation counter) and resubmits each affected task with exponential
backoff, up to :data:`MAX_RETRIES` resubmissions per task.  Tasks that raise an
*ordinary* exception fail immediately — a deterministic error will not
succeed on retry.  A worker death therefore degrades throughput but never
fails a request until the retry budget is exhausted.

Fault plans cross the process boundary per task (as plain dicts), not via
the pool initializer, so one warm fleet can serve requests with different
fault plans concurrently.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional

from .. import probe
from ..audit import audit_scope
from ..experiments.registry import FunctionExperiment, Point
from ..faults.plan import FaultPlan, current_fault_plan, set_default_fault_plan

__all__ = ["RunnerError", "WorkerFleet", "execute_point", "worker_init"]

#: crash-resubmissions per point before it fails with :class:`RunnerError`
MAX_RETRIES = 2
#: base of the exponential crash-retry backoff: the n-th resubmission of a
#: point waits ``RETRY_BACKOFF_S * 2**(n-1)`` seconds
RETRY_BACKOFF_S = 0.25


class RunnerError(RuntimeError):
    """A point failed, crashed past its retry budget, or was ill-defined."""


def worker_init() -> None:
    # Workers never observe: the sinks of the parent's probe (inherited on
    # fork) would otherwise collect per-child data nobody can read back.  One
    # reset covers every sink — a per-point auditor is installed afresh by
    # execute_point.
    probe.reset()


def execute_point(
    exp: FunctionExperiment,
    point: Point,
    audit_mode: Optional[str] = None,
    faults_dict: Optional[dict] = None,
) -> dict:
    """Run one point, optionally under a fault plan and a per-point auditor.

    The audit report crosses the process boundary riding in the result dict
    under ``"audit"``; the caller pops it back out *before* the result is
    normalized or cached, so cache entries stay audit-independent
    (legitimate, because an audited simulation is byte-identical to an
    unaudited one — pinned by the golden battery's ``--audit`` mode).

    The fault plan travels as plain data (``FaultPlan.to_dict()``) and is
    installed as the process default for the duration of the point only —
    a persistent worker can execute points with different plans back to
    back without cross-contamination.
    """
    prev_plan = current_fault_plan()
    if faults_dict is not None:
        set_default_fault_plan(FaultPlan.from_dict(faults_dict))
    try:
        if audit_mode is None:
            result = exp.run_point(point)
        else:
            # strict mode raises AuditError at the violation site (or from
            # the end-of-scope finalize), failing the point like any other
            # exception
            with audit_scope(audit_mode) as aud:
                result = exp.run_point(point)
    finally:
        if faults_dict is not None:
            set_default_fault_plan(prev_plan)
    if not isinstance(result, dict):
        raise RunnerError(
            f"{exp.name}:{point.name}: run_point must return a dict, "
            f"got {type(result).__name__}"
        )
    if audit_mode is not None:
        result["audit"] = aud.report.to_dict()
    return result


def _prewarm_probe() -> None:
    """No-op task: spins the pool up through the public submit path."""
    return None


class _Task:
    """One submitted point with its retry budget and caller-facing future."""

    __slots__ = ("exp", "point", "audit_mode", "faults_dict", "attempts", "outer")

    def __init__(self, exp, point, audit_mode, faults_dict):
        self.exp = exp
        self.point = point
        self.audit_mode = audit_mode
        self.faults_dict = faults_dict
        self.attempts = 0  # crash-resubmissions consumed so far
        self.outer: Future = Future()


class WorkerFleet:
    """A persistent, crash-tolerant process pool for experiment points.

    ``submit`` returns a *retrying* future: it resolves with the point's raw
    result dict once some worker generation produced it, or fails with
    :class:`RunnerError` after :data:`MAX_RETRIES` crash-resubmissions (ordinary
    exceptions propagate as-is, immediately).  The fleet stays warm between
    submissions — the daemon keeps one for its whole lifetime.

    Thread-safe: ``submit`` may be called from any thread (the serve daemon
    calls it from the event-loop thread and awaits via
    ``asyncio.wrap_future``).
    """

    def __init__(
        self,
        jobs: int,
        on_crash: Optional[Callable[[], None]] = None,
    ):
        if jobs < 1:
            raise ValueError("fleet needs at least one worker")
        self.jobs = jobs
        self._on_crash = on_crash
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._timers: List[threading.Timer] = []
        self._closed = False
        #: lifetime counters (JSON-safe; the daemon surfaces them in /v1/status)
        self.stats: Dict[str, int] = {"submitted": 0, "completed": 0, "crashes": 0, "rebuilds": 0}

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool_locked(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=worker_init
            )
        return self._pool

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (spawned lazily on first submit).

        Surfaced by the daemon's status endpoint; an idle never-used fleet
        reports ``[]``.
        """
        with self._lock:
            pool = self._pool
        if pool is None or pool._processes is None:  # pragma: no cover - defensive
            return []
        return sorted(pool._processes.keys())

    def prewarm(self) -> List[int]:
        """Spawn the full worker fleet now (instead of lazily on submit).

        Forking early matters to embedders like the serve daemon: children
        inherit every open fd, so workers must exist before listening or
        connection sockets do.  This also starts the executor's management
        thread — without it, prewarmed-but-never-used workers would never
        receive shutdown sentinels and would wedge interpreter exit.
        """
        with self._lock:
            if not self._closed:
                pool = self._ensure_pool_locked()
                try:
                    # ProcessPoolExecutor spawns one worker per _adjust call
                    # (idle-semaphore gated); loop until the fleet is full
                    for _ in range(2 * self.jobs):
                        if len(pool._processes or {}) >= pool._max_workers:
                            break
                        pool._adjust_process_count()
                    pool._start_executor_manager_thread()
                except AttributeError:  # stdlib internals drifted: warm via a task
                    pool.submit(_prewarm_probe).result()
        return self.worker_pids()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool, cancelling every point not yet started."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            timers, self._timers = self._timers, []
        for t in timers:
            t.cancel()
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    # ------------------------------------------------------------------
    # submission + retry
    # ------------------------------------------------------------------
    def submit(
        self,
        exp: FunctionExperiment,
        point: Point,
        audit_mode: Optional[str] = None,
        faults_dict: Optional[dict] = None,
    ) -> Future:
        task = _Task(exp, point, audit_mode, faults_dict)
        self.stats["submitted"] += 1
        self._submit_inner(task)
        return task.outer

    def _submit_inner(self, task: _Task) -> None:
        with self._lock:
            if self._closed:
                task.outer.set_exception(RunnerError("worker fleet is shut down"))
                return
            pool = self._ensure_pool_locked()
            generation = self._generation
        try:
            inner = pool.submit(
                execute_point, task.exp, task.point, task.audit_mode, task.faults_dict
            )
        except RuntimeError as exc:  # pool raced into shutdown
            task.outer.set_exception(RunnerError(f"worker fleet unavailable: {exc}"))
            return
        inner.add_done_callback(lambda fut: self._on_inner_done(task, generation, fut))

    def _on_inner_done(self, task: _Task, generation: int, inner: Future) -> None:
        if task.outer.done():  # caller cancelled; drop the result on the floor
            return
        if inner.cancelled():  # the fleet shut down with cancel_futures=True
            task.outer.cancel()
            return
        exc = inner.exception()
        if exc is None:
            self.stats["completed"] += 1
            task.outer.set_result(inner.result())
            return
        if not isinstance(exc, BrokenProcessPool):
            # deterministic failure: will not succeed on retry
            task.outer.set_exception(exc)
            return
        self._rotate_pool(generation)
        task.attempts += 1
        if task.attempts > MAX_RETRIES:
            task.outer.set_exception(
                RunnerError(
                    f"{task.exp.name}:{task.point.name}: worker crashed "
                    f"{task.attempts} times; giving up"
                )
            )
            return
        delay = RETRY_BACKOFF_S * (2 ** (task.attempts - 1))
        timer = threading.Timer(delay, self._submit_inner, args=(task,))
        timer.daemon = True
        with self._lock:
            if self._closed:
                task.outer.set_exception(RunnerError("worker fleet is shut down"))
                return
            self._timers.append(timer)
            # opportunistically drop fired timers so the list stays bounded
            self._timers = [t for t in self._timers if t.is_alive() or t is timer]
        timer.start()

    def _rotate_pool(self, broken_generation: int) -> None:
        """Replace the broken executor exactly once per crash event.

        Every in-flight future of the broken pool fails with
        ``BrokenProcessPool``; each calls in here with the generation it was
        submitted under, and only the first rotates the pool.
        """
        with self._lock:
            if self._closed or self._generation != broken_generation:
                return
            self._generation += 1
            self.stats["crashes"] += 1
            self.stats["rebuilds"] += 1
            broken, self._pool = self._pool, None
        if broken is not None:
            broken.shutdown(wait=False)
        if self._on_crash is not None:
            try:
                self._on_crash()
            except Exception:  # pragma: no cover - observer must not kill retry
                pass
