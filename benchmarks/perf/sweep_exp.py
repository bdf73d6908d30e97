"""The ``sweep_runner`` workload: many tiny simulations through the runner,
the result cache and the serve daemon.

The experiment is the ten point functions of ``runner.bench.bench_suite(
quick=True)``, each three times with a different simulator seed: 30 points of
10-110 ms, submitted in an order drawn from the workload seed.  One rep runs it through ``api.run(exp, jobs=2, cache=<tmpdir>)``
cold, the identical call warm, then the same cold/warm pair against a daemon
on a unix socket.  Run as a script, this file *is* that daemon:
``python -m repro serve`` with the sweep experiment registered first (the
daemon resolves experiments by registry name).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from repro import api
from repro.client import ServeClient, ServeError
from repro.experiments.ablations import (
    run_cardinality_ablation,
    run_collision_avoidance_ablation,
    run_filter_ablation,
)
from repro.experiments.common import REGISTRY, FunctionExperiment, Mode
from repro.experiments.fig8_testbed import run_staircase
from repro.experiments.fig10_micro import _run_fig10c
from repro.runner.cache import canonical_json
from repro.runner.scheduler import execute_point

NAME = "perf_sweep"
JOBS = 2
REPLICAS = 3
#: scratch for cache directories and the daemon socket, relative to the
#: working directory: a unix socket path is capped at ~107 bytes, and the
#: benchmark may write only inside its checkout
TMP_ROOT = ".perf_tmp"


def sweep_experiment(seed: int, scale: float = 1.0) -> FunctionExperiment:
    stair = dict(rate=10e9, stagger_ns=300_000, flows_per_prio=2, priorities=(1, 2, 3, 4))
    f10c = dict(n_each=2, rate=10e9, duration_ns=1_200_000, hi_start_ns=200_000)
    base = {
        "stair_prioplus": (run_staircase, dict(mode=Mode.PRIOPLUS, **stair)),
        "stair_swift_targets": (run_staircase, dict(mode=Mode.SWIFT_TARGETS, **stair)),
        "dual_rtt": (_run_fig10c, dict(dual_rtt=True, **f10c)),
        "every_rtt": (_run_fig10c, dict(dual_rtt=False, **f10c)),
        "collision_on": (run_collision_avoidance_ablation, dict(collision_avoidance=True, n_low=4, rate=10e9, duration_ns=800_000)),
        "collision_off": (run_collision_avoidance_ablation, dict(collision_avoidance=False, n_low=4, rate=10e9, duration_ns=800_000)),
        "filter_2": (run_filter_ablation, dict(filter_consecutive=2, duration_ns=600_000)),
        "filter_1": (run_filter_ablation, dict(filter_consecutive=1, duration_ns=600_000)),
        "cardinality_on": (run_cardinality_ablation, dict(cardinality_estimation=True, n_flows=8, rate=10e9, duration_ns=500_000)),
        "cardinality_off": (run_cardinality_ablation, dict(cardinality_estimation=False, n_flows=8, rate=10e9, duration_ns=500_000)),
    }
    replicas = max(1, round(REPLICAS * scale))
    spec = {
        f"{pname}#{r}": (fn, dict(kwargs, seed=r + 1))
        for r in range(replicas)
        for pname, (fn, kwargs) in base.items()
    }
    # Point seeds are fixed: re-drawing them moves the sweep's total simulation
    # time by ±8 % (0.99-1.16 s serial over six seeds).  The workload seed
    # draws the submission order instead, which is what the pool, the cache
    # and the daemon see of a sweep; the work is the same 30 points.
    names = list(spec)
    random.Random(seed).shuffle(names)
    return FunctionExperiment(
        NAME, {n: spec[n] for n in names}, description="perf ledger: 30 tiny points"
    )


def digest_of(result: dict) -> str:
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """``sweep_exp.py`` as a child process serving on a unix socket."""

    def __init__(self, seed: int, scale: float, sock: str, cache_dir: str):
        t0 = perf_counter()
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.sock = sock
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed), "--scale", str(scale),
             "--unix", sock, "--jobs", str(JOBS), "--cache", cache_dir],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = t0 + 60.0
            while True:
                try:
                    api.status(sock)
                    break
                except (ServeError, OSError):
                    if self.proc.poll() is not None or perf_counter() > deadline:
                        raise RuntimeError("serve daemon did not come up")
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        #: spawn to first ``status`` reply
        self.boot_s = perf_counter() - t0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                ServeClient(self.sock).shutdown()
            except (ServeError, OSError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------------
# one rep
# ----------------------------------------------------------------------
def _timed_run(*args, **kwargs):
    report: dict = {}
    t0 = perf_counter()
    result = api.run(*args, report=report, **kwargs)
    return result, report, perf_counter() - t0


def sweep_rep(seed: int, scale: float) -> dict:
    """Boot the daemon (set-up), then local cold/warm and served cold/warm."""
    gc.collect()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="sweep-", dir=TMP_ROOT)
    daemon = None
    try:
        t0 = perf_counter()
        exp = sweep_experiment(seed, scale)
        n_points = len(exp.points())
        daemon = Daemon(seed, scale, os.path.join(tmp, "s.sock"), os.path.join(tmp, "serve-cache"))
        setup_s = perf_counter() - t0

        local_cache = os.path.join(tmp, "local-cache")
        cold, _, cold_s = _timed_run(exp, jobs=JOBS, cache=local_cache)
        warm, warm_rep, warm_s = _timed_run(exp, jobs=JOBS, cache=local_cache)
        served, _, serve_cold_s = _timed_run(NAME, server=daemon.sock)
        served_warm, served_warm_rep, serve_warm_s = _timed_run(NAME, server=daemon.sock)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run's scratch is still there

    same = json.dumps(cold, sort_keys=True)
    stats = {
        "n_flows": n_points,
        "n_done": len(cold) if isinstance(cold, dict) else 0,
        "all_done": isinstance(cold, dict) and len(cold) == n_points,
        "result_digest": digest_of(cold),
        "warm_hit_ratio": warm_rep["cache_hits"] / n_points,
        "serve_warm_hit_ratio": served_warm_rep["cache_hits"] / n_points,
        "serve_identical": json.dumps(served, sort_keys=True) == same
        and json.dumps(served_warm, sort_keys=True) == same
        and json.dumps(warm, sort_keys=True) == same,
        "warm_wall_s": warm_s,
        "serve_boot_s": daemon.boot_s,
        "serve_cold_wall_s": serve_cold_s,
        "serve_warm_wall_s": serve_warm_s,
    }
    return {"setup_s": setup_s, "wall_s": cold_s, "stats": stats}


def serial_pass(seed: int, scale: float, tracer=None) -> float:
    """Σ inline ``execute_point`` time over the sweep, one point after another."""
    exp = sweep_experiment(seed, scale)
    gc.collect()
    t0 = perf_counter()
    with tracer.root() if tracer is not None else nullcontext():
        for point in exp.points():
            execute_point(exp, point)
    return perf_counter() - t0


def jobs1_wall(seed: int, scale: float) -> float:
    return _timed_run(sweep_experiment(seed, scale), jobs=1)[2]


def main(argv=None) -> int:
    import argparse

    from repro.serve import serve_main

    parser = argparse.ArgumentParser(description="serve daemon with the perf sweep registered")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args, serve_args = parser.parse_known_args(argv)
    REGISTRY.register(sweep_experiment(args.seed, args.scale))
    return serve_main(serve_args)


if __name__ == "__main__":
    sys.exit(main())
