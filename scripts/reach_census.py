#!/usr/bin/env python3
"""Reach census: which functions under ``src/repro`` does any run reach?

``tests/test_probe.py::test_every_public_name_has_a_caller`` asks whether a
name has a caller; a caller that never runs passes it.  This script asks the
runs themselves.  It runs a fixed list of *roots* — the paper verdict tests,
every example, every CI command outside tier-1 ``pytest``, the scripts at
their CI sizes — each as a subprocess under a profile hook, then lists every
function and class body in ``src/repro`` that none of them entered.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH`` in a
temporary directory, so pool workers, forked children and the serve daemon
count too.  ``sys.setprofile`` and ``threading.setprofile`` append each code
object under ``src/repro`` the first time it starts to one file per process
(a forked child reopens its own, ``os.register_at_fork``).  Every
``src/repro`` file is then compiled and its named code objects listed:
every function and class body, but no module body, ``<lambda>``,
``<genexpr>`` or other ``<...>``.  ``__repr__`` is exempt by rule.

Each root runs in a fresh temporary directory, so every ``--cache`` starts
empty and no output file lands in the tree.  CI's ``perf-ledger`` job is
not a root: a full ``benchmarks/perf/run.py`` round rewrites committed files,
and the job's self-tests drive the same script; what only the ledger
calls is allowlisted.  Nor is
``tests/cost_ratchet.py``: it counts bytecodes with its own trace hook.

Usage:
    python scripts/reach_census.py            # run every root, print the census
    python scripts/reach_census.py --check    # and fail on what ALLOWLIST does not hold

``--check`` fails on an unreached function missing from ``ALLOWLIST``, on a
stale entry (reached, or naming no function), and on any root that exits
non-zero: a broken root silently reaches less.  ``ALLOWLIST`` only shrinks.
Hooked, the whole list takes ~13 min on a 2-core VM.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``module::qualname`` -> why no root reaches it (module relative to
#: src/repro); an entry covers what is nested under it, a class's methods too
ALLOWLIST = {
    # the frozen perf ledger names or calls them (ROADMAP item 1)
    "sim/port.py::Port.kick": "the perf ledger's tracer wraps it by name",
    "fluid/hybrid.py::HybridDriver.run": "the perf ledger's hybrid workloads call it",
    "runner/bench_core.py::calibrate": "only the perf ledger's run.py calls it",
    # they run only on a failure
    "audit/auditor.py::AuditViolation": "built only on an invariant violation",
    "audit/auditor.py::Auditor.violation": "runs only on an invariant violation",
    "audit/auditor.py::Auditor._find_cycle": "runs only on a PFC deadlock",
    "telemetry/recorder.py::Recorder.audit_violation": "hears only an invariant violation",
    "telemetry/export.py::PerfettoWriter._audit": "draws only an invariant violation",
    "runner/pool.py::point_error": "runs only when a point raises",
    "runner/scheduler.py::WorkerFleet._rotate_pool": "runs only when a worker dies",
    "runner/scheduler.py::_prewarm_probe": "runs only when a worker fails to warm",
    "client.py::ServeError": "raised only on a daemon error reply",
    "serve/server.py::_RequestRejected": "raised only on a malformed request",
    "serve/protocol.py::error_event": "sent only for a failed run",
    "sim/engine.py::Simulator._to_tick": "runs only for a time in the past or not an int",
    # no run degrades a link under the hybrid driver (ROADMAP item 4(c))
    "fluid/hybrid.py::HybridDriver._reread_caps": "no run degrades a link in a fluid epoch",
    # timeout and probe hooks no root's flows reach
    "cc/base.py::CongestionControl.on_probe_ack": "default; PrioPlusCC, the one prober, overrides it",
    "cc/base.py::CongestionControl.fluid_sync": "default; every hybrid root drives PrioPlusCC",
    "cc/hpcc.py::Hpcc.on_timeout": "no root times out an HPCC flow",
    "cc/ledbat.py::Ledbat.on_timeout": "no root times out a LEDBAT flow",
    "core/start_strategies.py::StartRampCC.on_timeout": "no root times out a ramping flow",
    "experiments/fig6_dualrtt.py::_FixedWindow.on_timeout": "fig6 never times out its flow",
    # protocol bases: their subclasses run
    "faults/actors.py::FaultActor.inject": "abstract; the link actors run",
    "faults/actors.py::FaultActor.clear": "abstract; the link actors run",
    "experiments/registry.py::Experiment.points": "abstract; FunctionExperiment runs",
    "experiments/registry.py::Experiment.run_point": "abstract; FunctionExperiment runs",
    "experiments/registry.py::Experiment.quick": "abstract; FunctionExperiment runs",
    # full presets: only a run without --quick reaches them
    "tune/channel_env.py::_eval_flowsched_full": "tune_channels' full preset",
    # the library API docs/API.md documents (tests/test_probe.py _NO_CALLER_YET)
    "audit/auditor.py::current_auditor": "docs/API.md: the installed auditor",
    "obs/profiler.py::current_profiler": "docs/API.md: the installed profiler",
    "api.py::cache_info": "docs/API.md: the facade's local-cache inspection",
    "runner/cache.py::ResultCache.info": "what api.cache_info returns",
    "serve/server.py::BackgroundServer": "the in-process daemon the serve tests boot",
    "serve/server.py::ExperimentServer.start_tcp": "serve --port; CI serves on a unix socket",
    # a world forks by copy.deepcopy (docs/SIMULATOR.md); only tests fork one
    "probe.py::Probe.__deepcopy__": "a world fork shares the inert probe",
    "transport/receiver.py::Filled.__reduce__": "a world fork copies an idle bitmap by value",
    "transport/receiver.py::Filled.__len__": "the bytearray protocol Filled stands in for",
}

#: the name exempt by rule, wherever it is defined
EXEMPT = "__repr__"


# ----------------------------------------------------------------------
# the hook
# ----------------------------------------------------------------------
_SITECUSTOMIZE = '''\
import os, sys, threading

_DIR = os.environ["REACH_CENSUS_OUT"]
_SRC = os.environ["REACH_CENSUS_SRC"]
_seen = set()
_keep = []  # holds every seen code object, so no id is reused
_out = None


def _open():
    global _out
    _out = open(os.path.join(_DIR, "%d.tsv" % os.getpid()), "a")


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen.add(id(code))
            _keep.append(code)
            if code.co_filename.startswith(_SRC):
                _out.write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name))
                _out.flush()


_open()
os.register_at_fork(after_in_child=_open)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


# ----------------------------------------------------------------------
# the roots: name -> interpreter argv lists, run in order in one fresh
# temporary directory with {repo} filled in; a trailing ">", FILE writes
# the command's stdout to FILE
# ----------------------------------------------------------------------
_HYBRID_STRICT = """
from repro.audit import audit_scope
from tests.hybrid_twins import HYBRID_WORLDS
for name, run in HYBRID_WORLDS.items():
    with audit_scope("strict") as aud:
        run()
    assert aud.report.ok and aud.report.checks["fluid_ledger"] > 0, name
"""

_HYBRID_SINKS = """
import json
from repro.audit import Auditor
from repro.obs import ChannelInspector, EngineProfiler, PacketTracer, TimeSeriesSampler
from repro.probe import installed
from repro.telemetry import PerfettoWriter, Recorder
from tests.golden_battery import canonical
from tests.hybrid_twins import HYBRID_GOLDEN_PATH, HYBRID_WORLDS
golden = json.loads(HYBRID_GOLDEN_PATH.read_text())
for name, run in HYBRID_WORLDS.items():
    tracer = PacketTracer(sample_every=16)
    recorder = Recorder(PerfettoWriter(f"hybrid_{name}.json", tracer=tracer))
    auditor, sampler = Auditor("strict"), TimeSeriesSampler(stride_ns=50_000)
    with installed(recorder, auditor, tracer, ChannelInspector(), sampler, EngineProfiler()):
        result = run()
    tracer.finalize()
    sampler.finalize()
    recorder.close()
    assert json.loads(canonical(result)) == golden[name], name
    assert auditor.finalize().ok, name
    assert recorder.snapshot()["event_counts"]["regime"] > 0, name
    assert sampler.snapshot()["regime_rows"] > 0, name
"""

_PAPER_POINT = """
from repro.experiments.registry import REGISTRY
from repro.runner.scheduler import execute_point
exp = REGISTRY.get("fig11_paper").quick()
row = execute_point(exp, exp.points()[0])
assert row["fluid"]["fluid_epochs"] >= 1, row["fluid"]
"""

_FAULT_PLANS = """
import json
def plan(kind, target, at_ns, duration_ns, seed, **params):
    schedule = {"kind": "oneshot", "at_ns": at_ns, "duration_ns": duration_ns}
    return {"seed": seed, "specs": [dict(kind=kind, target=target, schedule=schedule, **params)]}
json.dump(plan("link_down", ["tor1", "spine1"], 2_200_000, 500_000, 1), open("cut.json", "w"))
json.dump(plan("link_degrade", ["core", "recv"], 200_000, 700_000, 7, drop_prob=0.02),
          open("lossy.json", "w"))
"""

_SERVE = """
import os, signal, subprocess, sys, time
from repro.client import ServeClient
repro = [sys.executable, "-m", "repro"]
daemon = subprocess.Popen(repro + ["serve", "--unix", "./serve.sock", "--jobs", "2",
                                   "--cache", "serve-cache"], stdout=subprocess.DEVNULL)
try:
    deadline = time.monotonic() + 180  # the hook slows the daemon's boot
    while not os.path.exists("serve.sock"):
        assert daemon.poll() is None and time.monotonic() < deadline, "daemon did not bind"
        time.sleep(0.2)
    served = subprocess.run(repro + ["run", "fig6", "--quick", "--server", "./serve.sock",
                                     "--progress"], stdout=subprocess.PIPE, check=True).stdout
    local = subprocess.run(repro + ["run", "fig6", "--quick"],
                           stdout=subprocess.PIPE, check=True).stdout
    assert served == local
    subprocess.run(repro + ["status", "--server", "./serve.sock"], check=True)
    ServeClient("./serve.sock").shutdown()
    assert daemon.wait(timeout=60) == 0
finally:
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)
"""


def _py(code: str) -> list:
    return ["-c", textwrap.dedent(code)]


_REPRO = ["-m", "repro"]

ROOTS = {
    "verdicts": [["-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "{repo}/benchmarks", "--ignore={repo}/benchmarks/perf"]],
    **{f"examples/{p.name}": [[str(p)]] for p in sorted((ROOT / "examples").glob("*.py"))},
    "faults-smoke": [
        _REPRO + ["run", "fault_flap", "--quick", "--jobs", "2", "--cache", "cache-flap"],
        _REPRO + ["run", "fault_degrade", "--quick", "--jobs", "2", "--cache", "cache-degrade"],
        _py(_FAULT_PLANS),
        _REPRO + ["run", "fault_flap", "--quick", "--jobs", "2", "--faults", "cut.json"],
    ],
    "audit-smoke": [
        ["{repo}/tests/golden_battery.py", "--audit=strict"],
        _py(_HYBRID_STRICT),
        _REPRO + ["run", "fault_flap", "--quick", "--jobs", "2", "--audit=strict"],
    ],
    "obs-smoke": [
        ["{repo}/tests/golden_battery.py", "--obs", "all"],
        ["{repo}/tests/golden_battery.py", "--obs", "profile"],
        ["{repo}/tests/golden_battery.py", "--audit=strict", "--obs", "all"],
        _py(_HYBRID_SINKS),
        _REPRO + ["quickstart", "--trace", "trace.json", "--trace-packets", "spans.jsonl",
                  "--trace-every", "8", "--sample", "samples.csv", "--inspect", "channel.json",
                  "--profile", ">", "result.json"],
        _REPRO + ["report", "--result", "result.json", "--samples", "samples.csv",
                  "--spans", "spans.jsonl", "--channel", "channel.json", "--out", "dash.html"],
        _py(_FAULT_PLANS),
        _REPRO + ["fault_degrade", "--quick", "--faults", "lossy.json", "--trace", "f.json",
                  "--trace-packets", "s.jsonl", "--trace-every", "1", "--audit=strict"],
        _REPRO + ["fig6", "--quick", "--metrics", "--progress"],
        _REPRO + ["headroom", "--quick", "--trace", "pfc.json", "--audit=strict"],
        _REPRO + ["fig10b", "--quick", "--trace", "fig10b_trace.json"],
        _REPRO + ["fig10b", "--quick", "--events", "fig10b_events.jsonl"],
    ],
    "serve-smoke": [_py(_SERVE)],
    "scale-smoke": [
        _py(_PAPER_POINT),
        _REPRO + ["run", "fig13", "--quick", "--jobs", "2"],
        _REPRO + ["run", "headroom", "--quick", "--jobs", "2"],
        ["{repo}/scripts/regime_components.py", "--load", "0.002", "--ms", "20"],
        ["{repo}/scripts/packet_floor_sweep.py", "--scale", "0.01",
         "--settings", "15:100:800,100:100:100"],
        ["{repo}/scripts/solver_replay.py", "--world", "bulk_fluid", "--scale", "0.05",
         "--rounds", "1"],
        ["{repo}/tests/hybrid_twins.py", "--check"],
    ],
    "run_all_experiments": [["{repo}/scripts/run_all_experiments.py", "--only", "quickstart",
                             "--serial", "--out", "results"]],
}


def run_roots(roots, out_dir: Path) -> dict:
    """Run every root hooked, recording into ``out_dir/records/<root>``;
    ``{root: failing command or None}``."""
    hook_dir = out_dir / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    records = out_dir / "records"
    records.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src"), str(ROOT)])
    env["REACH_CENSUS_SRC"] = str(SRC) + os.sep
    failed = {}
    for name, commands in roots.items():
        failed[name] = None
        t0 = time.monotonic()
        env["REACH_CENSUS_OUT"] = str(records / name.replace("/", "_"))
        os.mkdir(env["REACH_CENSUS_OUT"])
        with tempfile.TemporaryDirectory(prefix="reach-root-") as cwd:
            for argv in commands:
                stdout = "stdout"
                if argv[-2:-1] == [">"]:
                    argv, stdout = argv[:-2], argv[-1]
                argv = [sys.executable] + [a.replace("{repo}", str(ROOT)) for a in argv]
                # files, not pipes: a child left running must not hang the census
                with open(Path(cwd, stdout), "w") as out, open(Path(cwd, "stderr"), "w+") as err:
                    code = subprocess.run(argv, cwd=cwd, env=env, stdout=out, stderr=err).returncode
                    if code != 0:
                        failed[name] = f"{' '.join(argv[1:])[:120]} -> exit {code}"
                        err.seek(0)
                        print(err.read()[-2000:], file=sys.stderr)
                        break
        status = "ok" if failed[name] is None else f"FAILED: {failed[name]}"
        print(f"[{time.monotonic() - t0:7.1f} s] {name}: {status}", file=sys.stderr, flush=True)
    return failed


def reached(records: Path) -> set:
    """``(path relative to src/repro, first line, name)`` of every code object
    any root entered."""
    seen = set()
    for path in records.rglob("*.tsv"):
        for line in path.read_text().splitlines():
            filename, lineno, name = line.split("\t")
            seen.add((Path(filename).resolve().relative_to(SRC).as_posix(), int(lineno), name))
    return seen


def named_functions() -> dict:
    """``{(module, first line, name): "module::qualname"}`` for every
    function and class body ``src/repro`` compiles to, lambdas and
    comprehensions aside."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not hasattr(const, "co_code"):
                    continue
                if not const.co_name.startswith("<"):
                    key = (module, const.co_firstlineno, const.co_name)
                    found[key] = f"{module}::{prefix}{const.co_name}"
                function = const.co_flags & 0x1  # CO_OPTIMIZED: a function, not a class body
                stack.append((const, f"{prefix}{const.co_name}" + (".<locals>." if function else ".")))
    return found


def census(seen: set) -> tuple:
    """``(functions, unreached, exempt)``: every named code object's
    ``module::qualname`` by key, and the sorted names of those no root
    entered, ``EXEMPT`` apart."""
    functions = named_functions()
    missed = sorted((name, key[2] == EXEMPT) for key, name in functions.items() if key not in seen)
    return functions, [n for n, ex in missed if not ex], [n for n, ex in missed if ex]


def allowed(name: str):
    """The ``ALLOWLIST`` entry covering ``name``, or ``None``."""
    for entry in ALLOWLIST:
        if name == entry or name.startswith(entry + "."):
            return entry
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail on an unreached function missing from ALLOWLIST, a stale "
                    "entry, or a root that exits non-zero")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        failed = run_roots(ROOTS, Path(tmp))
        seen = reached(Path(tmp) / "records")
    functions, unreached, exempt = census(seen)
    print(f"{len(functions)} named functions and class bodies, "
          f"{len(functions) - len(unreached) - len(exempt)} reached, "
          f"{len(unreached)} unreached, {len(exempt)} unreached but exempt ({EXEMPT})")
    module = None
    for name in unreached:
        if name.split("::")[0] != module:
            module = name.split("::")[0]
            print(f"\n{module}")
        entry = allowed(name)
        print(f"  {name.split('::')[1]}" + (f"  [allowed: {ALLOWLIST[entry]}]" if entry else ""))
    if not args.check:
        return 0
    problems = [f"root {name} failed: {how}" for name, how in failed.items() if how]
    problems += [f"unreached and not allowlisted: {name}" for name in unreached
                 if allowed(name) is None]
    problems += [f"stale allowlist entry (reached, or no such function): {entry}"
                 for entry in sorted(set(ALLOWLIST) - {allowed(name) for name in unreached})]
    problems += [f"allowlist entry without a reason: {name}"
                 for name, reason in ALLOWLIST.items() if not reason.strip()]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
