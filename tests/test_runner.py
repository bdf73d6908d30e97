"""The parallel experiment runner: determinism, caching, crash retry.

The hard guarantees under test:

* ``run_experiment(exp, jobs=N)`` is byte-identical to ``jobs=1`` for any N;
* a warm cache satisfies every point without running the simulator at all
  (proved via the ``sim.events`` telemetry counter);
* the cache key tracks the point's canonical config/seed and nothing else;
* a crashed worker process is retried, a deterministic failure is not.
"""

import json
import os
import pathlib

import pytest

from repro.experiments.registry import REGISTRY, Experiment, FunctionExperiment, Point, get_experiment
from repro.experiments.fig8_testbed import run_staircase
from repro.experiments.fig10_micro import _run_fig10c
from repro.experiments.quickstart import run_quickstart
from repro.runner import ResultCache, RunnerError, cache_key, json_safe, run_experiment
from repro.probe import installed
from repro.telemetry import Recorder

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# small experiments (module-level: worker processes pickle by reference)
# ----------------------------------------------------------------------
SMALL_FIG10C = FunctionExperiment(
    "small-fig10c",
    {
        "dual_rtt": (
            _run_fig10c,
            {"dual_rtt": True, "n_each": 2, "rate": 10e9, "duration_ns": 1_200_000,
             "hi_start_ns": 200_000, "seed": 1},
        ),
        "every_rtt": (
            _run_fig10c,
            {"dual_rtt": False, "n_each": 2, "rate": 10e9, "duration_ns": 1_200_000,
             "hi_start_ns": 200_000, "seed": 1},
        ),
    },
)

SMALL_FIG8 = FunctionExperiment(
    "small-fig8",
    {
        "prioplus": (
            run_staircase,
            {"mode": "prioplus", "priorities": (1, 2), "rate": 10e9,
             "stagger_ns": 300_000, "flows_per_prio": 2, "seed": 1},
        ),
        "swift_targets": (
            run_staircase,
            {"mode": "swift_targets", "priorities": (1, 2), "rate": 10e9,
             "stagger_ns": 300_000, "flows_per_prio": 2, "seed": 1},
        ),
    },
)


def _echo(x=0, seed=0):
    return {"x": x, "pair": (x, x + 1)}


def _crash_once(marker="", seed=0):
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("crashed")
        os._exit(42)  # simulate a segfault/OOM-kill: no exception, no cleanup
    return {"ok": True}


def _always_crash(seed=0):
    os._exit(42)


def _raise(seed=0):
    raise ValueError("deterministic failure")


# ----------------------------------------------------------------------
# determinism: sharded == serial, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exp", [SMALL_FIG10C, SMALL_FIG8], ids=lambda e: e.name)
def test_parallel_identical_to_serial(exp):
    serial = run_experiment(exp, jobs=1)
    parallel = run_experiment(exp, jobs=4)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_results_ordered_by_points_not_completion():
    # the reduced mapping must follow points() order even though the slower
    # first point finishes after the second under parallel execution
    out = run_experiment(SMALL_FIG10C, jobs=2)
    assert list(out) == ["dual_rtt", "every_rtt"]


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
def test_cache_hit_skips_simulation(tmp_path):
    exp = SMALL_FIG10C
    cache = tmp_path / "cache"

    rec_cold = Recorder(events=False)
    with installed(rec_cold):
        cold = run_experiment(exp, cache=str(cache))
    counters = rec_cold.snapshot()["metrics"]["counters"]
    assert counters["runner.points"] == 2
    assert counters["runner.cache_misses"] == 2
    assert counters["runner.points_executed"] == 2
    assert counters["sim.events"] > 0

    rec_warm = Recorder(events=False)
    with installed(rec_warm):
        warm = run_experiment(exp, cache=str(cache))
    counters = rec_warm.snapshot()["metrics"]["counters"]
    assert counters["runner.cache_hits"] == 2
    assert counters["sim.events"] == 0  # no simulator ran at all
    assert counters.get("runner.points_executed", 0) == 0
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)


def test_cache_hits_reported_and_results_equal_across_jobs(tmp_path):
    cache = str(tmp_path / "cache")
    report = {}
    first = run_experiment(SMALL_FIG8, jobs=2, cache=cache, report=report)
    assert report["executed"] == 2 and report["cache_hits"] == 0

    report = {}
    second = run_experiment(SMALL_FIG8, jobs=4, cache=cache, report=report)
    assert report["executed"] == 0 and report["cache_hits"] == 2
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_cache_invalidates_on_config_change(tmp_path):
    cache = str(tmp_path / "cache")

    def exp_with(x):
        return FunctionExperiment("echo", {"p": (_echo, {"x": x, "seed": 0})})

    report = {}
    run_experiment(exp_with(1), cache=cache, report=report)
    assert report["executed"] == 1

    report = {}
    assert run_experiment(exp_with(1), cache=cache, report=report) == {"x": 1, "pair": [1, 2]}
    assert report["cache_hits"] == 1

    report = {}
    assert run_experiment(exp_with(2), cache=cache, report=report) == {"x": 2, "pair": [2, 3]}
    assert report["cache_hits"] == 0 and report["executed"] == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    exp = FunctionExperiment("echo", {"p": (_echo, {"x": 3, "seed": 0})})
    run_experiment(exp, cache=cache)
    (entry,) = list((tmp_path / "cache" / "echo").glob("*.json"))
    entry.write_text("{truncated", encoding="utf-8")
    report = {}
    assert run_experiment(exp, cache=cache, report=report) == {"x": 3, "pair": [3, 4]}
    assert report["executed"] == 1  # re-ran instead of crashing on bad JSON


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def test_cache_key_canonicalization():
    a = Point("p", {"a": 1, "b": (1, 2)}, seed=1)
    b = Point("p", {"b": [1, 2], "a": 1}, seed=1)  # order + tuple/list irrelevant
    assert cache_key("e", a) == cache_key("e", b)

    assert cache_key("e", Point("p", {"a": 1}, seed=1)) != cache_key(
        "e", Point("p", {"a": 2}, seed=1)
    )
    assert cache_key("e", Point("p", {"a": 1}, seed=1)) != cache_key(
        "e", Point("p", {"a": 1}, seed=2)
    )
    assert cache_key("e", Point("p", {}, 0)) != cache_key("other", Point("p", {}, 0))
    assert cache_key("e", Point("p", {}, 0)) != cache_key("e", Point("p", {}, 0), version="0.0.0")


def test_duplicate_cache_keys_rejected():
    exp = FunctionExperiment(
        "dup", {"a": (_echo, {"x": 1, "seed": 0}), "b": (_echo, {"x": 1, "seed": 0})}
    )
    with pytest.raises(RunnerError, match="share a cache key"):
        run_experiment(exp)


def test_json_safe_round_trip():
    assert json_safe({1: (2, 3), "k": {"n": None}}) == {"1": [2, 3], "k": {"n": None}}


# ----------------------------------------------------------------------
# crash retry
# ----------------------------------------------------------------------
def test_worker_crash_retried(tmp_path):
    marker = str(tmp_path / "crashed_once")
    exp = FunctionExperiment("crashy", {"p": (_crash_once, {"marker": marker, "seed": 0})})
    rec = Recorder(events=False)
    with installed(rec):
        result = run_experiment(exp, jobs=2, retry_backoff_s=0.01)
    assert result == {"ok": True}
    assert os.path.exists(marker)
    assert rec.snapshot()["metrics"]["counters"]["runner.worker_crashes"] == 1


def test_worker_crash_retry_exhausted():
    exp = FunctionExperiment("doomed", {"p": (_always_crash, {"seed": 0})})
    with pytest.raises(RunnerError, match="crashed"):
        run_experiment(exp, jobs=2, max_retries=1, retry_backoff_s=0.01)


def test_deterministic_exception_fails_fast():
    exp = FunctionExperiment("raiser", {"p": (_raise, {"seed": 0})})
    with pytest.raises(RunnerError, match="ValueError"):
        run_experiment(exp, jobs=2, retry_backoff_s=0.01)
    with pytest.raises(RunnerError, match="ValueError"):
        run_experiment(exp, jobs=1)


# ----------------------------------------------------------------------
# registry + protocol
# ----------------------------------------------------------------------
def test_registry_names_and_lookup():
    names = REGISTRY.names()
    for expected in ("quickstart", "fig8", "fig10c", "fig12", "table2", "ablations"):
        assert expected in names
    exp = get_experiment("fig10c")
    assert [p.name for p in exp.points()] == ["dual_rtt", "every_rtt"]
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("nope")


def test_registered_experiments_have_unique_point_identities():
    for exp in REGISTRY.experiments():
        points = exp.points()
        names = [p.name for p in points]
        assert len(set(names)) == len(names), exp.name
        keys = {cache_key(exp.name, p) for p in points}
        assert len(keys) == len(points), f"{exp.name}: cache-key collision"


def test_every_registered_experiment_is_a_function_experiment():
    """One way to declare an experiment: name -> (function, kwargs) as data."""
    experiments = REGISTRY.experiments()
    assert len(experiments) == 33
    for exp in experiments:
        assert type(exp) is FunctionExperiment, exp.name
        assert type(exp.quick()) is FunctionExperiment, exp.name


def test_point_names_match_the_golden():
    """Registry names, point names and point order, full and ``quick()``."""
    golden = json.loads((GOLDEN / "experiment_points.json").read_text())
    assert {
        exp.name: {
            "full": [p.name for p in exp.points()],
            "quick": [p.name for p in exp.quick().points()],
        }
        for exp in REGISTRY.experiments()
    } == golden


@pytest.mark.parametrize(
    "name, cells, duration_ns",
    [("fig11_paper", 2, 20_000), ("fig11_long", 1, 100_000_000), ("fig16_paper", 1, 20_000)],
)
def test_paper_scale_quick_variants_keep_their_cut(name, cells, duration_ns):
    """``quick()`` of a grid experiment is the first cells of the same grid
    under a shorter trace — and the registered experiment stays whole."""
    exp = get_experiment(name)
    quick = exp.quick()
    assert quick.name == name
    full = exp.points()
    assert [p.name for p in quick.points()] == [p.name for p in full][:cells]
    for q, p in zip(quick.points(), full):
        assert q.config == dict(p.config, cfg=dict(p.config["cfg"], duration_ns=duration_ns))
        assert p.config["cfg"]["duration_ns"] > duration_ns
    assert len(full) > cells


def test_runner_matches_legacy_function():
    via_runner = run_experiment(get_experiment("quickstart"))
    legacy = run_quickstart()
    assert via_runner == json.loads(json.dumps(json_safe(legacy)))


def test_duplicate_point_names_rejected():
    class Dup(Experiment):
        name = "dup-names"

        def points(self):
            return [Point("p", {"a": 1}, 0), Point("p", {"a": 2}, 0)]

        def run_point(self, point):  # pragma: no cover - never reached
            return {}

    with pytest.raises(RunnerError, match="duplicate point names"):
        run_experiment(Dup())


# ----------------------------------------------------------------------
# progress reporting: never let a broken terminal kill a run
# ----------------------------------------------------------------------
def test_progress_printer_survives_closed_stderr(monkeypatch):
    import io
    import sys

    exp = FunctionExperiment(
        "echo-progress", {"a": (_echo, {"x": 1, "seed": 0}), "b": (_echo, {"x": 2, "seed": 1})}
    )
    broken = io.StringIO()
    broken.close()  # every write now raises ValueError, like a torn-down TTY
    monkeypatch.setattr(sys, "stderr", broken)
    result = run_experiment(exp, progress=True)
    assert result["a"]["x"] == 1 and result["b"]["x"] == 2


def test_progress_printer_survives_stderr_vanishing_mid_run(monkeypatch):
    import sys

    class _Flaky:
        def __init__(self):
            self.calls = 0

        def write(self, *_):
            self.calls += 1
            raise OSError("gone")

        def flush(self):
            raise OSError("gone")

    flaky = _Flaky()
    monkeypatch.setattr(sys, "stderr", flaky)
    exp = FunctionExperiment(
        "echo-progress2", {"a": (_echo, {"x": 1, "seed": 0}), "b": (_echo, {"x": 2, "seed": 1})}
    )
    result = run_experiment(exp, progress=True)
    assert result["a"]["x"] == 1
    # after the first failed write the printer goes quiet instead of retrying
    assert flaky.calls <= 2


def test_progress_callback_receives_sources(tmp_path):
    exp = FunctionExperiment(
        "echo-progress3", {"a": (_echo, {"x": 1, "seed": 0}), "b": (_echo, {"x": 2, "seed": 1})}
    )
    seen = []
    run_experiment(exp, cache=tmp_path / "c", progress=lambda p, s: seen.append((p, s)))
    assert sorted(seen) == [("a", "run"), ("b", "run")]
    seen.clear()
    run_experiment(exp, cache=tmp_path / "c", progress=lambda p, s: seen.append((p, s)))
    assert sorted(seen) == [("a", "cache"), ("b", "cache")]
