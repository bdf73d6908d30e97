"""The perf ledger's own tests.  Run explicitly (tier-1 ``testpaths`` does not
collect this directory)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as perf_run  # noqa: E402
import schema  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _driver(workload: str, *extra: str) -> dict:
    """One driver-mode run in a subprocess; the parsed last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "0", *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_schema():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == schema.benchmark_json()


def test_benchmark_json_within_contract_limits():
    spec = schema.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert 1 <= spec["run_seconds"] <= 60


# ----------------------------------------------------------------------
# every workload, end to end, small
# ----------------------------------------------------------------------
def test_smoke_all_workloads_under_30s():
    t0 = time.perf_counter()
    for name in schema.WORKLOADS:
        untraced = _driver(name, "--scale", "0.05", "--trace", "0")
        assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
        assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
        assert list(untraced["metrics"]) == schema.driver_end_to_end()
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("name", ["incast_pfc", "bulk_fluid"])
def test_traced_run_accounts_for_its_wall(name):
    traced = _driver(name, "--scale", "0.05", "--trace", "1")
    assert traced["correct"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert list(metrics) == schema.driver_per_layer()
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert abs(shares - 1.0) < 0.02
    assert all(metrics[f"{layer}.self_s"] >= -1e-9 for layer in tracing.LAYERS)
    assert metrics["trace.overhead_ratio"] > 0
    fluid_calls = metrics["fluid_solver.calls"]
    assert fluid_calls > 0 if name == "bulk_fluid" else fluid_calls == 0


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory holding only the benchmark: no result line, code != 0."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "incast_pfc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# span accounting
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_call_tree():
    """root(10) -> a(6) -> b(2) x2 ; root -> c(1): Σ self = root, none negative."""
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock)

    def spend(dt):
        clock.now += dt

    b = tracer.wrap(lambda: spend(2.0), "b", "port")
    c = tracer.wrap(lambda: spend(1.0), "c", "cc")

    def a_body():
        spend(1.0)
        b()
        spend(1.0)
        b()

    a = tracer.wrap(a_body, "a", "switch")
    with tracer.root():
        spend(1.5)
        a()
        c()
        spend(1.5)

    layers = tracer.by_layer()
    assert tracer.root_s == pytest.approx(10.0)
    assert layers["switch"]["self_s"] == pytest.approx(2.0)
    assert layers["port"]["self_s"] == pytest.approx(4.0)
    assert layers["port"]["calls"] == 2
    assert layers["cc"]["self_s"] == pytest.approx(1.0)
    assert layers["harness"]["self_s"] == pytest.approx(3.0)
    assert sum(rec["self_s"] for rec in layers.values()) == pytest.approx(tracer.root_s)
    assert all(rec["self_s"] >= 0 for rec in layers.values())
    assert tracer.incl_of("a") == pytest.approx(6.0)


def test_dispatched_callbacks_are_spans_of_the_run_frame():
    """Engine loop 1 s + callback (2 s own, 3 s in a wrapped callee)."""
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock)
    callee = tracer.wrap(lambda: setattr(clock, "now", clock.now + 3.0), "Port.enqueue", "port")

    class Switch:  # the dispatch is attributed by class name
        def _timer(self):
            clock.now += 2.0
            callee()

    def engine_run():
        clock.now += 0.5
        cb = Switch()._timer
        t0 = clock.now
        cb()
        tracer._on_dispatch(cb, clock.now - t0)
        clock.now += 0.5

    run = tracer._wrap_run(engine_run)
    with tracer.root():
        run()
    layers = tracer.by_layer()
    assert layers["engine"]["self_s"] == pytest.approx(1.0)
    assert layers["switch"]["self_s"] == pytest.approx(2.0)
    assert layers["port"]["self_s"] == pytest.approx(3.0)
    assert layers["harness"]["self_s"] == pytest.approx(0.0)
    assert tracer.calls_of("dispatch:test_dispatched_callbacks_are_spans_of_the_run_frame.<locals>.Switch._timer") == 1


def test_install_wraps_and_uninstall_restores_identity():
    from repro.obs.profiler import current_profiler

    tracer = tracing.Tracer()
    targets, _ = tracing._targets()
    before = [(owner, attr, tracing._raw(owner, attr)) for owner, attr, _layer in targets]
    tracer.install()
    try:
        assert current_profiler() is not None
        assert all(tracing._raw(owner, attr) is not orig for owner, attr, orig in before)
        assert len(tracer.patched_attributes()) == len(before) + 2  # + Simulator.run, poisson iter
    finally:
        tracer.uninstall()
    assert current_profiler() is None
    assert all(tracing._raw(owner, attr) is orig for owner, attr, orig in before)
    assert tracer.patched_attributes() == []


# ----------------------------------------------------------------------
# determinism and what the seed means
# ----------------------------------------------------------------------
def _digest(name: str, seed: int, scale: float = 0.05) -> str:
    rep = workloads.sim_rep(workloads.SIM_WORKLOADS[name], seed, scale)
    assert not perf_run.check_rep(name, rep["stats"])
    return perf_run.sim_digest(rep["stats"])


@pytest.mark.parametrize("name", list(workloads.SIM_WORKLOADS))
def test_digest_stable_for_a_seed_and_different_across_seeds(name):
    assert _digest(name, 7) == _digest(name, 7)
    if name == "longtrace_hybrid":
        # by design: there the seed draws only the admission horizon, which
        # must not change one simulated packet (the pump's own events aside)
        a = workloads.sim_rep(workloads.SIM_WORKLOADS[name], 7, 0.05)["stats"]
        b = workloads.sim_rep(workloads.SIM_WORKLOADS[name], 8, 0.05)["stats"]
        assert a["groups"] == b["groups"] and abs(a["events"] - b["events"]) <= 2
    else:
        assert _digest(name, 7) != _digest(name, 8)


def test_seed_42_is_the_repo_flowsched_point():
    """The workload re-implements run_flowsched's build; with the paper seed
    both must simulate the same thing."""
    from repro.experiments.common import Mode
    from repro.experiments.flowsched import FlowSchedConfig, run_flowsched

    scale = 0.1
    workload = workloads.SIM_WORKLOADS["flowsched_packet"]
    ours = workloads.sim_rep(workload, workloads.TRACE_SEED, scale)["stats"]
    cfg = FlowSchedConfig(duration_ns=int(workload.duration_ns * scale))
    theirs = run_flowsched(Mode.PRIOPLUS, workloads.N_PRIORITIES, cfg)
    assert ours["n_flows"] == theirs["n_flows"] and ours["n_done"] == theirs["n_done"]
    assert ours["groups"]["all"] == theirs["fct"]["all"]
    for g in range(workloads.N_PRIORITIES):
        assert ours["groups"][str(g)] == theirs["fct_by_group"][g]
