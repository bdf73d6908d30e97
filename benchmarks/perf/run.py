#!/usr/bin/env python3
"""The repo's one perf ledger: five workloads, end-to-end metrics from
untraced runs, per-layer self time from one traced run, outputs verified.

Two ways in, one measurement underneath.

*One workload, one result line* (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/perf/run.py --workload incast_pfc --seed 3 --seconds 15 --trace 0

builds the workload from the seed, repeats fresh-world reps for ``--seconds``,
checks every rep's outputs and prints — as the last line — one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` prints the
per-layer metrics instead (one traced rep next to untraced ones).

*The ledger* (no ``--workload``)::

    python3 benchmarks/perf/run.py [--seed 42] [--rounds 5] [--workloads a,b]
        [--check] [--out FILE] [--selftest] [--rebaseline] [--make-reference]

runs every workload in a fresh subprocess, ``--rounds`` times interleaved
(w1…w5, w1…w5, … so a slow phase of the host cannot land on all repeats of
one workload), then one traced round; prints every metric by name with unit,
median, min, max and n; compares digests with ``expected.json`` and FCTs with
the packet references in ``reference.json``; appends one line to
``history.ndjson``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SWEEP = "sweep_runner"
#: set-up is 2-100 ms on the simulation workloads: sample it this many times
SETUP_SAMPLES = 9
DETAIL_PREFIX = "#detail "


def _import_program() -> None:
    """Put the program on the path, for this process and its children."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perf bench: no program to measure ({SRC / 'repro'} is missing)")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")


# ----------------------------------------------------------------------
# digests, expectations, references
# ----------------------------------------------------------------------
_DIGEST_KEYS = ("n_flows", "n_done", "events", "sim_ns", "pfc_pauses", "drops", "groups")


def sim_digest(stats: dict) -> str:
    """sha256 of the canonical JSON of the simulated statistics."""
    if "result_digest" in stats:  # the sweep digests its reduced result
        return stats["result_digest"]
    from repro.runner.cache import canonical_json

    return hashlib.sha256(canonical_json({k: stats[k] for k in _DIGEST_KEYS}).encode()).hexdigest()


def _load(name: str) -> dict:
    path = HERE / name
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(name: str, payload: dict) -> None:
    with open(HERE / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def workload_config(workload) -> dict:
    """The class-level size constants: what a reference or digest is valid for."""
    return {
        k: v for k, v in vars(type(workload)).items()
        if isinstance(v, (int, float)) and not isinstance(v, bool) and not k.startswith("_")
    }


def fidelity(name: str, stats: dict, scale: float) -> dict:
    """FCT error of a run against the packet reference of the same trace."""
    from workloads import SIM_WORKLOADS

    workload = SIM_WORKLOADS.get(name)
    if workload is None:
        return {}  # the sweep has no FCT
    if not workload.has_twin:
        return {"fct_mean_err": 0.0, "fct_group_err_max": 0.0}  # it *is* the packet run
    ref = _load("reference.json").get(name)
    if ref is None or scale != 1.0 or ref["config"] != workload_config(workload):
        return {}
    errs = {}
    for group, rec in stats["groups"].items():
        want = ref["groups"].get(group)
        if want and want["count"] and rec["count"]:
            errs[group] = abs(rec["mean_us"] - want["mean_us"]) / want["mean_us"]
    return {
        "fct_mean_err": errs["all"],
        "fct_group_err_max": max(v for g, v in errs.items() if g != "all"),
    }


# ----------------------------------------------------------------------
# one workload, measured in this process
# ----------------------------------------------------------------------
def check_rep(name: str, stats: dict) -> list:
    """Output checks after every untraced rep; returns what is wrong."""
    bad = []
    if not stats["all_done"] or stats["n_done"] != stats["n_flows"]:
        bad.append(f"{stats['n_flows'] - stats['n_done']} of {stats['n_flows']} not completed")
    if name == SWEEP:
        if stats["warm_hit_ratio"] != 1.0 or stats["serve_warm_hit_ratio"] != 1.0:
            bad.append("warm run not served entirely from cache")
        if not stats["serve_identical"]:
            bad.append("served / warm result differs from the local cold result")
        return bad
    if stats["delivered_bytes"] != stats["offered_bytes"]:
        bad.append(f"delivered {stats['delivered_bytes']} B of {stats['offered_bytes']} B offered")
    if stats["drops"]:
        bad.append(f"{stats['drops']} drops on a lossless fabric")
    if stats.get("drain_failures"):
        bad.append(f"{stats['drain_failures']} fluid drain failures")
    if name == "incast_pfc" and not stats["pfc_pauses"]:
        bad.append("incast raised no PFC pause")
    return bad


def _rep_fn(name: str):
    if name == SWEEP:
        from sweep_exp import sweep_rep

        return sweep_rep
    from workloads import SIM_WORKLOADS, sim_rep

    return functools.partial(sim_rep, SIM_WORKLOADS[name])


def _rss_peak_mb() -> float:
    """Peak resident set of this process since exec, or of its largest child.

    Not ``RUSAGE_SELF.ru_maxrss``: Linux carries that across ``exec``, so a
    28 MB run started by a 37 MB parent would read 37 MB.  ``VmHWM`` belongs
    to the address space and starts afresh."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass  # no procfs: the inherited floor is the best there is
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def _timed_reps(name: str, seed: int, scale: float, seconds: float):
    """Fresh-world reps until ``seconds`` have passed; also the peak RSS after
    the first one (what one run of the workload costs: later reps only add
    allocator history, and their number depends on the host's speed)."""
    rep = _rep_fn(name)
    reps = [rep(seed, scale)]
    rss_mb = _rss_peak_mb()
    t0 = perf_counter() - reps[0]["setup_s"] - reps[0]["wall_s"]
    while perf_counter() - t0 < seconds:
        reps.append(rep(seed, scale))
    return reps, rss_mb


def _setup_samples(name: str, seed: int, scale: float, reps: list) -> list:
    samples = [r["setup_s"] for r in reps]
    if name == SWEEP:
        return samples
    from workloads import SIM_WORKLOADS

    workload = SIM_WORKLOADS[name]
    t_stop = perf_counter() + 2.0
    while len(samples) < SETUP_SAMPLES and perf_counter() < t_stop:
        t0 = perf_counter()
        workload.build(seed, scale)
        samples.append(perf_counter() - t0)
    return samples


def _verify(name: str, seed: int, scale: float, reps: list) -> dict:
    """Checks over all reps + comparison with expected.json / reference.json."""
    failures = []
    failed = 0
    for rep in reps:
        bad = check_rep(name, rep["stats"])
        failures.extend(bad)
        stats = rep["stats"]
        failed += stats["n_flows"] if bad else stats["n_flows"] - stats["n_done"]
    attempted = sum(r["stats"]["n_flows"] for r in reps)
    digests = {sim_digest(r["stats"]) for r in reps}
    if len(digests) != 1:
        failures.append("simulated statistics differ between reps of one seed")
    digest = sim_digest(reps[0]["stats"])
    expected = _load("expected.json").get(name)
    digest_match = None
    if expected is not None and expected["seed"] == seed and scale == 1.0:
        digest_match = int(expected["digest"] == digest)
    return {
        "failures": sorted(set(failures)),
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "digest_match": digest_match,
        "fidelity": fidelity(name, reps[0]["stats"], scale),
    }


def measure_untraced(name: str, seed: int, scale: float, seconds: float) -> dict:
    reps, rss_mb = _timed_reps(name, seed, scale, seconds)
    setups = _setup_samples(name, seed, scale, reps)
    out = _verify(name, seed, scale, reps)
    out["metrics"] = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "rss_peak_mb": rss_mb,
    }
    out["n_reps"] = len(reps)
    out["rep_wall_s"] = [r["wall_s"] for r in reps]
    out["stats"] = reps[0]["stats"]
    return out


def _count_metrics(name: str, stats: dict, wall_s: float) -> dict:
    """Per-layer metrics read from public state after an untraced run."""
    if name == SWEEP:
        return {
            "runner.points": stats["n_flows"],
            "cache.hit_ratio": stats["warm_hit_ratio"],
            "cache.warm_wall_ms": stats["warm_wall_s"] * 1e3,
            "serve.boot_s": stats["serve_boot_s"],
            "serve.cold_wall_s": stats["serve_cold_wall_s"],
            "serve.warm_wall_ms": stats["serve_warm_wall_s"] * 1e3,
            "serve.dispatch_overhead_ms": (stats["serve_cold_wall_s"] - wall_s) / stats["n_flows"] * 1e3,
        }
    out = {
        "engine.events": stats["events"],
        "engine.events_per_s": stats["events"] / wall_s,
        "buffer_pfc.pfc_pauses": stats["pfc_pauses"],
        "buffer_pfc.drops": stats["drops"],
        "sim.sim_ms": stats["sim_ns"] / 1e6,
    }
    if "epochs" in stats:
        out["fluid_driver.epochs"] = stats["epochs"]
        out["fluid_driver.fluid_sim_share"] = stats["fluid_ns"] / stats["sim_ns"]
        out["fluid_driver.drain_failures"] = stats["drain_failures"]
        out["fluid_driver.handoff_fresh_starts"] = stats["handoff_fresh_starts"]
    if "admitted" in stats:
        out["admission.admitted"] = stats["admitted"]
        out["admission.live_peak"] = stats["live_peak"]
        out["reduction.samples"] = stats["reduction_samples"]
    return out


def measure_traced(name: str, seed: int, scale: float, seconds: float) -> dict:
    """Untraced reps for the counts and the overhead base, then one traced rep."""
    from repro.runner.bench_core import calibrate
    from schema import LAYERS
    from tracing import Tracer
    from workloads import SIM_WORKLOADS

    calib_mops = calibrate() / 1e6
    # the traced rep costs ~3 untraced ones: spend a third of the budget before it
    reps, _ = _timed_reps(name, seed, scale, seconds / 3.0)
    out = _verify(name, seed, scale, reps)
    base_wall = statistics.median(r["wall_s"] for r in reps)
    metrics = _count_metrics(name, reps[0]["stats"], base_wall)

    if name == SWEEP:
        import sweep_exp

        untraced_s = sweep_exp.serial_pass(seed, scale)
        metrics["runner.exec_s_sum"] = untraced_s
        metrics["runner.dispatch_overhead_s"] = base_wall - untraced_s / sweep_exp.JOBS
        metrics["runner.jobs1_wall_s"] = sweep_exp.jobs1_wall(seed, scale)

    tracer = Tracer()
    tracer.install()
    try:
        if name == SWEEP:
            # the pool's workers are out of reach: trace the same points inline
            run_wall_traced = traced_s = sweep_exp.serial_pass(seed, scale, tracer)
        else:
            traced = _rep_fn(name)(seed, scale, tracer)
            if sim_digest(traced["stats"]) != out["digest"]:
                out["failures"].append("tracing changed the simulated statistics")
            traced_s = traced["setup_s"] + traced["wall_s"]
            untraced_s = statistics.median(r["setup_s"] + r["wall_s"] for r in reps)
            run_wall_traced = traced["wall_s"]
    finally:
        tracer.uninstall()

    layers = tracer.by_layer()
    root_s = tracer.root_s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_share"] = layers[layer]["self_s"] / root_s
    accounted = sum(layers[layer]["self_s"] for layer in LAYERS)
    if abs(accounted - root_s) > 0.02 * root_s:
        out["failures"].append(f"layer self times sum to {accounted:.3f}s of a {root_s:.3f}s traced run")
    if any(rec["self_s"] < -1e-6 for rec in layers.values()):
        out["failures"].append("negative layer self time")
    if name != SWEEP and not SIM_WORKLOADS[name].has_twin and tracer.calls_of("model.solve_rates"):
        out["failures"].append("solve_rates called on a packet workload")
    metrics["transport.data_pkts"] = tracer.calls_of("FlowReceiver.on_packet")
    metrics["transport.acks"] = tracer.calls_of("FlowSender.on_packet")
    metrics["transport.rto_fires"] = tracer.calls_of("dispatch:FlowSender._on_rto")
    metrics["cc.probe_acks"] = tracer.calls_of("PrioPlusCC.on_probe_ack")
    metrics["fluid_driver.packet_wall_share"] = tracer.incl_of("Simulator.run") / run_wall_traced
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["machine.calib_mops"] = calib_mops
    if out["digest_match"] is not None:
        metrics["sim.digest_match"] = out["digest_match"]
    metrics.update(out["fidelity"])
    metrics["failed_ratio"] = out["failed"] / out["attempted"]
    out["metrics"] = metrics
    out["n_reps"] = len(reps)
    out["slots"] = tracer.by_slot()
    return out


def _unit_of(name: str) -> str:
    from schema import END_TO_END, PER_LAYER

    return END_TO_END[name].unit if name in END_TO_END else PER_LAYER[name].unit


def driver_main(args) -> int:
    """``--workload``: measure here, print the detail line and the result line."""
    from schema import WORKLOADS, driver_end_to_end, driver_per_layer

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    traced = bool(args.trace)
    measure = measure_traced if traced else measure_untraced
    out = measure(args.workload, args.seed, args.scale, args.seconds)
    names = driver_per_layer() if traced else driver_end_to_end()
    # a metric that does not apply to this workload (fluid counters on a
    # packet run, FCT error of the sweep) reads 0 in the result line; the
    # detail line lists only what was measured
    result = {
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            n: {"value": out["metrics"].get(n, 0.0), "unit": _unit_of(n)} for n in names
        },
    }
    for failure in out["failures"]:
        print(f"perf bench: {args.workload}: {failure}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(out, sort_keys=True))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the ledger: rounds of subprocesses
# ----------------------------------------------------------------------
def _child(name: str, args, traced: bool, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--scale", str(args.scale),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: run exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = next(l for l in reversed(lines) if l.startswith(DETAIL_PREFIX))
    return json.loads(detail[len(DETAIL_PREFIX):])


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def run_set(names: list, args) -> dict:
    """``--rounds`` interleaved untraced rounds, then one traced round."""
    from repro.runner.bench_core import calibrate
    from schema import END_TO_END, PER_LAYER

    untraced = {name: [] for name in names}
    calib = []
    for rnd in range(args.rounds):
        calib.append(calibrate() / 1e6)
        for name in names:
            print(f"[round {rnd + 1}/{args.rounds}] {name}", file=sys.stderr, flush=True)
            untraced[name].append(_child(name, args, False, args.seconds))
    warnings = [
        f"round {i + 1}: machine.calib_mops {v:.2f} is >15% below the set's best {max(calib):.2f}"
        for i, v in enumerate(calib) if v < 0.85 * max(calib)
    ]
    result = {"workloads": {}, "calib_mops": calib, "warnings": warnings, "failures": []}
    for name in names:
        print(f"[traced] {name}", file=sys.stderr, flush=True)
        traced = _child(name, args, True, args.seconds)
        runs = untraced[name] + [traced]
        e2e = {}
        for metric, spec in END_TO_END.items():
            if spec.in_driver:
                values = [r["metrics"][metric] for r in untraced[name]]
            elif metric == "failed_ratio":
                values = [r["failed"] / r["attempted"] for r in runs]
            else:
                values = [r["fidelity"][metric] for r in runs if metric in r["fidelity"]]
            if values:
                e2e[metric] = {
                    "unit": spec.unit, "median": statistics.median(values),
                    "min": min(values), "max": max(values), "n": len(values),
                }
        per_layer = {
            metric: {"unit": spec.unit, "value": traced["metrics"][metric]}
            for metric, spec in PER_LAYER.items() if metric in traced["metrics"]
        }
        digests = {r["digest"] for r in runs}
        failures = sorted({f for r in runs for f in r["failures"]})
        if len(digests) != 1:
            failures.append("sim.digest differs between runs of one seed")
        result["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": per_layer,
            "digest": traced["digest"],
            "digest_match": traced["digest_match"],
            "reps_per_run": [r["n_reps"] for r in untraced[name]],
            "slots": traced["slots"],
        }
        result["failures"].extend(f"{name}: {f}" for f in failures)
    return result


def check_set(result: dict, seed: int) -> list:
    """What ``--check`` adds on top of the per-rep output checks."""
    from workloads import SIM_WORKLOADS

    failures = []
    for name, rec in result["workloads"].items():
        workload = SIM_WORKLOADS.get(name)
        if rec["end_to_end"]["failed_ratio"]["max"] != 0:
            failures.append(f"{name}: failed_ratio is not 0")
        if rec["digest_match"] is None:
            failures.append(f"{name}: no expected.json entry for seed {seed}")
        elif workload is not None and workload.packet_core and not rec["digest_match"]:
            failures.append(f"{name}: packet-core digest differs from expected.json")
        if workload is not None and workload.has_twin and "fct_group_err_max" not in rec["end_to_end"]:
            failures.append(f"{name}: no packet reference in reference.json")
    return failures


def print_set(result: dict) -> None:
    for name, rec in result["workloads"].items():
        print(f"\n== {name}  (sim.digest {rec['digest'][:16]}, reps/run {rec['reps_per_run']})")
        print(f"  {'end-to-end metric':34s} {'unit':7s} {'median':>12s} {'min':>12s} {'max':>12s} {'n':>3s}")
        for metric, m in rec["end_to_end"].items():
            print(
                f"  {metric:34s} {m['unit']:7s} {m['median']:12.5g} {m['min']:12.5g} "
                f"{m['max']:12.5g} {m['n']:3d}"
            )
        print(f"  {'per-layer metric (traced run)':34s} {'unit':7s} {'value':>12s}")
        for metric, m in rec["per_layer"].items():
            print(f"  {metric:34s} {m['unit']:7s} {m['value']:12.5g}")
    for warning in result["warnings"]:
        print(f"warning: {warning}")


def history_line(result: dict, env: dict, args) -> dict:
    line = dict(env, seed=args.seed, rounds=args.rounds, seconds=args.seconds, workloads={})
    for name, rec in result["workloads"].items():
        entry = {metric: m["median"] for metric, m in rec["end_to_end"].items()}
        per_layer = rec["per_layer"]
        if "engine.events_per_s" in per_layer:
            entry["engine.events_per_s"] = per_layer["engine.events_per_s"]["value"]
        entry.update(
            {metric: m["value"] for metric, m in per_layer.items() if metric.endswith(".self_share")}
        )
        line["workloads"][name] = entry
    return line


def selftest(first: dict, second: dict) -> list:
    """Set 2 must be within every end-to-end bound of set 1."""
    from schema import COUNT_METRICS, DETERMINISTIC, worse_by

    failures = []
    for name, rec1 in first["workloads"].items():
        rec2 = second["workloads"][name]
        for metric, m1 in rec1["end_to_end"].items():
            m2 = rec2["end_to_end"][metric]
            if metric in DETERMINISTIC:
                if m1["median"] != m2["median"]:
                    failures.append(f"{name}: {metric} {m1['median']} then {m2['median']}")
            elif worse_by(metric, m1["median"], m2["median"]) is not None:
                failures.append(
                    f"{name}: {metric} {m1['median']:.5g} then {m2['median']:.5g}: past its bound"
                )
        if rec1["digest"] != rec2["digest"]:
            failures.append(f"{name}: sim.digest differs between the two sets")
        for metric in COUNT_METRICS:
            v1 = rec1["per_layer"].get(metric, {}).get("value")
            v2 = rec2["per_layer"].get(metric, {}).get("value")
            if v1 != v2:
                failures.append(f"{name}: count {metric} {v1} then {v2}")
    return failures


def rebaseline(names: list, args) -> None:
    expected = _load("expected.json")
    for name in names:
        detail = _child(name, args, False, 0)
        stats = {k: v for k, v in detail["stats"].items() if k in _DIGEST_KEYS or k == "result_digest"}
        expected[name] = {"seed": args.seed, "digest": detail["digest"], "stats": stats}
        print(f"{name}: {detail['digest']}")
    _dump("expected.json", expected)


def make_reference(names: list, args) -> None:
    """Run the pure-packet twin of each hybrid workload (minutes each)."""
    from workloads import SIM_WORKLOADS, sim_rep

    reference = _load("reference.json")
    for name in names:
        workload = SIM_WORKLOADS.get(name)
        if workload is None or not workload.has_twin:
            continue
        print(f"{name}: running the pure-packet twin ...", file=sys.stderr, flush=True)
        rep = sim_rep(workload, args.seed, 1.0, packet_twin=True)
        bad = check_rep(name, rep["stats"])
        if bad:
            raise SystemExit(f"{name}: packet twin failed its output checks: {bad}")
        reference[name] = {
            "seed": args.seed,
            "git_sha": _git_sha(),
            "config": workload_config(workload),
            "wall_s": rep["wall_s"],
            "n_flows": rep["stats"]["n_flows"],
            "events": rep["stats"]["events"],
            "groups": rep["stats"]["groups"],
        }
        print(f"{name}: {rep['wall_s']:.1f} s, mean FCT {rep['stats']['groups']['all']['mean_us']:.2f} us")
    _dump("reference.json", reference)


def ledger_main(args) -> int:
    from schema import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: {', '.join(WORKLOADS)}")
    if args.make_reference:
        make_reference(names, args)
        return 0
    if args.rebaseline:
        rebaseline(names, args)
        return 0

    env = _environment()
    full = names == list(WORKLOADS) and args.scale == 1.0
    sets = [run_set(names, args)]
    if args.selftest:
        sets.append(run_set(names, args))
    failures = []
    for result in sets:
        print_set(result)
        failures.extend(result["failures"])
        if args.check:
            failures.extend(check_set(result, args.seed))
        if full:
            with open(HERE / "history.ndjson", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(history_line(result, env, args), sort_keys=True) + "\n")
    if args.selftest:
        failures.extend(selftest(*sets))
    payload = dict(env, schema="repro-perf-ledger/1", seed=args.seed, rounds=args.rounds,
                   seconds=args.seconds, scale=args.scale, **sets[-1])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if full and args.seed == 42:
        _dump("latest.json", payload)
    for failure in sorted(set(failures)):
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests); no digests or references apply")
    driver = parser.add_argument_group("one workload, one result line")
    driver.add_argument("--workload", help="measure this workload in this process")
    driver.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        help="1: print the per-layer metrics of a traced run")
    ledger = parser.add_argument_group("the ledger")
    ledger.add_argument("--rounds", type=int, default=5)
    ledger.add_argument("--workloads", help="comma-separated subset")
    ledger.add_argument("--check", action="store_true",
                        help="also fail on a packet-core digest change or a missing reference")
    ledger.add_argument("--out", metavar="FILE", help="write the full result as JSON")
    ledger.add_argument("--selftest", action="store_true",
                        help="two sets back to back; fail unless set 2 is within bounds of set 1")
    ledger.add_argument("--rebaseline", action="store_true", help="rewrite expected.json")
    ledger.add_argument("--make-reference", action="store_true",
                        help="run the pure-packet twins and rewrite reference.json")
    args = parser.parse_args(argv)

    _import_program()
    from schema import RUN_SECONDS

    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.workload:
        return driver_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
