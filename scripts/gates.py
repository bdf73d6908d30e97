#!/usr/bin/env python3
"""The gate commands: one table, job -> step -> commands, that CI, the reach
census and the verify notes read.

``JOBS`` maps each job of ``.github/workflows/ci.yml`` to its steps, named as
its CI steps.  A command is a Python argv, written as one string and run as
``python ARGV`` with ``src`` on ``PYTHONPATH`` (``{repo}`` is the repo root;
a trailing ``> FILE`` writes its stdout to FILE), or a check function of this
module, called in process.  A job's steps run in one working directory,
``.ci-out/<job>`` under the repo root unless ``--dir`` names another: a step
reads what the steps before it wrote, and no output lands in the checkout.
A step with ``census=False`` is no root of ``scripts/reach_census.py``, whose
docstring says why.

Usage:
    python scripts/gates.py                        # print the table
    python scripts/gates.py JOB "STEP"             # run one step, as CI does
    python scripts/gates.py --dir DIR JOB "STEP"   # ... in DIR
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


#: one step of a job: its CI name, its commands, and whether it is a census root
Step = namedtuple("Step", "name commands census", defaults=(True,))


def _python(*argv, out=None, err=None):
    """``python ARGV``, stdout / stderr to the files named; raises on failure."""
    with open(out, "w") if out else nullcontext() as o:
        with open(err, "w") if err else nullcontext() as e:
            subprocess.run([sys.executable, *argv], stdout=o, stderr=e, check=True)


def _read(path):
    return Path(path).read_text()


def _process(events, name):
    """The events of the Perfetto process called ``name``."""
    (pid,) = [e["pid"] for e in events if e["ph"] == "M" and e["args"]["name"] == name]
    return [e for e in events if e["pid"] == pid]


# the checks, run in the job's working directory
def fault_plan():
    """A --faults plan file (one link_down on fault_flap's other spine, after
    the run's own flap) must move the result."""
    schedule = {"kind": "oneshot", "at_ns": 2_200_000, "duration_ns": 500_000}
    spec = {"kind": "link_down", "target": ["tor1", "spine1"], "schedule": schedule}
    Path("cut.json").write_text(json.dumps({"seed": 1, "specs": [spec]}))
    _python("-m", "repro", "run", "fault_flap", "--quick", out="healthy.json")
    _python("-m", "repro", "run", "fault_flap", "--quick", "--jobs", "2", "--faults", "cut.json",
            out="faulted.json")
    healthy, faulted = (json.loads(_read(p))["modes"] for p in ("healthy.json", "faulted.json"))
    assert healthy != faulted, "the --faults plan moved nothing"


def obs_artifacts():
    """The traced quickstart's files parse and the dashboard has every section."""
    packets = [e for e in json.loads(_read("trace.json"))["traceEvents"] if e.get("pid") == 6]
    assert packets, "Perfetto trace has no packets process"
    spans = [json.loads(line) for line in _read("spans.jsonl").splitlines()]
    assert any(r.get("kind") == "summary" for r in spans)
    json.loads(_read("channel.json"))
    assert json.loads(_read("result.json"))["profile"]["events"] > 0
    html = _read("dashboard.html")
    for section in ("Per-flow goodput", "Per-hop latency", "PrioPlus state timeline",
                    "Engine profile"):
        assert section in html, f"dashboard missing {section}"
    print("obs artifacts OK:", len(packets), "packet trace events,", len(spans), "span lines")


def pfc_track():
    """headroom's pfc process holds balanced PAUSE spans; no flow/port/pfc span nests."""
    events = json.loads(_read("pfc.json"))["traceEvents"]
    pfc = _process(events, "pfc")
    phases = [e["ph"] for e in pfc]
    pauses = sum(1 for e in pfc if e.get("name") == "PAUSE")
    assert pauses >= 1, "no PAUSE span in the pfc process"
    assert phases.count("B") == phases.count("E"), "unbalanced PAUSE spans"
    spanned = {e["pid"] for e in events
               if e["ph"] == "M" and e["args"]["name"] in ("flows", "ports", "pfc")}
    depth = {}
    for e in events:
        if e["pid"] in spanned and e["ph"] in ("B", "E"):
            track = (e["pid"], e["tid"])
            depth[track] = depth.get(track, 0) + (1 if e["ph"] == "B" else -1)
            assert 0 <= depth[track] <= 1, f"nested or unmatched span on {track}"
    assert all(d == 0 for d in depth.values()), "a span left open"
    print("pfc track OK:", pauses, "PAUSE spans;", len(depth), "span tracks, none nested")


def fault_track():
    """fault_degrade's trace holds a fault span and a corrupted packet; its audit is clean."""
    faults = _process(json.loads(_read("f.json"))["traceEvents"], "faults")
    spans = sum(1 for e in faults if e["ph"] == "B" and e.get("cat") == "fault")
    assert spans >= 1, "no span on the fault track"
    corrupted = sum(1 for line in _read("s.jsonl").splitlines()
                    if json.loads(line).get("disposition") == "corrupted")
    assert corrupted >= 1, "no corrupted packet in the span lines"
    assert json.loads(_read("fault.json"))["audit"]["ok"]
    print("fault track OK:", spans, "fault spans,", corrupted, "corrupted packets")


def metrics_progress():
    """--metrics embeds the telemetry; --progress reports on stderr."""
    _python("-m", "repro", "fig6", "--quick", "--metrics", "--progress",
            out="metrics.json", err="progress.txt")
    assert re.search(r"^\[runner\] fig6 1/1", _read("progress.txt"), re.M)
    telemetry = json.loads(_read("metrics.json"))["telemetry"]
    assert telemetry["event_counts"], telemetry


def trace_rss():
    """--trace peaks within 10 % of --events on fig10b --quick."""
    def peak_mb(*flags):
        child = subprocess.Popen([sys.executable, "-m", "repro", "fig10b", "--quick", *flags],
                                 stdout=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(child.pid, 0)
        assert status == 0, (flags, status)
        return usage.ru_maxrss / 1024

    trace = peak_mb("--trace", "fig10b_trace.json")
    events = peak_mb("--events", "fig10b_events.jsonl")
    print(f"fig10b --quick peak RSS: --trace {trace:.1f} MB, --events {events:.1f} MB")
    assert trace <= 1.10 * events, (trace, events)


def serve():
    """A daemon on a unix socket must bind, serve a run byte-identical to the
    local one with its progress relayed, report its stats, and exit 0 on
    POST /v1/shutdown."""
    from repro.client import ServeClient

    Path("serve.sock").unlink(missing_ok=True)
    daemon = subprocess.Popen([sys.executable, "-m", "repro", "serve", "--unix", "./serve.sock",
                               "--jobs", "2", "--cache", ".serve-cache"], stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 180  # the census's hook slows the daemon's boot
        while not os.path.exists("serve.sock"):
            assert daemon.poll() is None and time.monotonic() < deadline, "daemon did not bind"
            time.sleep(0.2)
        _python("-m", "repro", "run", "fig6", "--quick", "--server", "./serve.sock", "--progress",
                out="served.json", err="progress.txt")
        assert re.search(r"^\[serve\] fig6: ", _read("progress.txt"), re.M)
        _python("-m", "repro", "run", "fig6", "--quick", out="local.json")
        assert _read("served.json") == _read("local.json"), "served and local runs differ"
        _python("-m", "repro", "status", "--server", "./serve.sock")
        ServeClient("./serve.sock").shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            daemon.wait(timeout=60)


def paper_point():
    """One quick fig11_paper point on the 320-host fabric went fluid, withdrew
    packets in flight and left each epoch once."""
    from repro.experiments.registry import REGISTRY
    from repro.runner.scheduler import execute_point

    exp = REGISTRY.get("fig11_paper").quick()
    row = execute_point(exp, exp.points()[0])
    assert row["n_hosts"] == 320, row
    assert "fluid" in row, "hybrid driver did not engage"
    fluid = row["fluid"]
    print(json.dumps(fluid, indent=1))
    assert fluid["fluid_epochs"] >= 1, "the fabric never went fluid"
    assert fluid["withdrawn_packets"] >= 1, "fluid entry withdrew no packet in flight"
    assert sum(fluid["exit_reasons"].values()) == fluid["fluid_epochs"], \
        "an epoch left fluid other than once"


def write_back():
    """The traced bulk_fluid rep wrote each flow back at most once per epoch."""
    line = next(row for row in _read("bulk_fluid.out").splitlines() if row.startswith("#detail "))
    detail = json.loads(line[len("#detail "):])
    assert detail["failed"] == 0 and detail["failures"] == [], detail["failures"]
    n_flows = detail["attempted"] // detail["n_reps"]
    epochs = detail["metrics"]["fluid_driver.epochs"]
    calls = detail["slots"]["FlowSender.fluid_advance"]["calls"]
    print(f"FlowSender.fluid_advance: {calls} calls, {n_flows} flows x {epochs} epochs")
    assert calls <= n_flows * epochs, (calls, n_flows, epochs)


def per_flow_state():
    """Sender, receiver and port constructors allocate no per-flow container,
    and FlowSender has __slots__ without __dict__."""
    def klass(path, cls):
        (node,) = [n for n in ast.parse((SRC / "repro" / path).read_text()).body
                   if isinstance(n, ast.ClassDef) and n.name == cls]
        return node

    def init_calls(path, cls, names):
        (init,) = [f for f in klass(path, cls).body
                   if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
        return [f"{path}:{n.lineno} {n.func.id}(" for n in ast.walk(init)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in names]

    for path, cls in (("transport/sender.py", "FlowSender"),
                      ("transport/receiver.py", "FlowReceiver")):
        bad = init_calls(path, cls, ("bytearray", "deque", "set"))
        assert not bad, f"{cls}.__init__ allocates per-flow state: {bad}"
    bad = init_calls("sim/port.py", "Port", ("deque",))
    assert not bad, f"Port.__init__ allocates queues before their first enqueue: {bad}"
    slots = [ast.literal_eval(n.value) for n in klass("transport/sender.py", "FlowSender").body
             if isinstance(n, ast.Assign)
             and any(getattr(t, "id", None) == "__slots__" for t in n.targets)]
    assert slots and "__dict__" not in slots[0], "FlowSender must define __slots__ without __dict__"
    print("per-flow state: constructors allocate none; ports queue on first use; "
          "FlowSender is slotted")


def _wc(path: Path) -> int:
    return path.read_bytes().count(b"\n")  # what wc -l counts


def performance_doc():
    """docs/PERFORMANCE.md stays within 600 lines, and no heading names a PR."""
    path = ROOT / "docs" / "PERFORMANCE.md"
    assert _wc(path) <= 600, f"{path.name}: {_wc(path)} lines"
    bad = [h for h in _read(path).splitlines() if re.match(r"#+ .*\bPR ?[0-9]", h)]
    assert not bad, bad


def fluid_modules():
    """No module of the hybrid core is past 600 lines."""
    over = [f"{p.name}: {_wc(p)}" for p in (SRC / "repro" / "fluid").rglob("*.py") if _wc(p) > 600]
    assert not over, f"over 600 lines: {over}"


#: names cut from the tree that must not grow back: (extended regex, paths
#: searched (globs), whole words only as grep -w, the commit that cut them,
#: what they were).  This file, which spells every pattern, is not searched.
DELETED = (
    ("pfc_listeners|pfc_signal|PfcLogger|PortTracer|occupancy_stats",
     "src tests scripts examples docs", False, "c78cbd9", "PFC hooks beside the one probe event"),
    ("RolloutBackend|TuneEvalExperiment|ChannelTuningEnv|_run_points",
     "src tests docs", False, "ef18f16", "the daemon's copy of the point pipeline, the gym view"),
    ("exit_on_contention|backlog_enter_bytes|attach_telemetry|telemetry_section|_DcqcnFactory"
     "|big_buffer|d2tcp_ddl_factors|swift_target_step_ns|call_after",
     "src tests docs", False, "4761182", "knobs and entry points only tests called"),
    (r"benchmark\.pedantic|import _run_|FunctionExperiment\(",
     "benchmarks/test_*.py", False, "5c38865", "verdict presets and timing wrappers"),
    (r"run_table2_validation|ci_config\(",
     "src tests scripts docs", False, "5c38865", "src copies of runs only verdict tests called"),
    ("_build_routes_to|_port_index", "src", False, "c2ac2cd", "the per-host BFS, now an oracle"),
    ("tune_main|RandomSearch|OPTIMIZERS|checkpoint_path|load_checkpoint|BoxSpace|TuneSpec"
     "|make_spec",
     "src tests docs README.md", False, "0d26e5d", "the tune verb, checkpoints, random search"),
    (r"snapshot_world|fork_world|WorldSnapshot|SnapshotHookError|sim\.snapshot",
     "src tests docs scripts examples", False, "512d954", "the world-snapshot API"),
    (r"/v1/(submit|stream|result|health|experiments|cache)|api\.(submit|stream|result|connect)"
     r"\b|JobStatus|_submit_main|job_status",
     "src tests docs scripts examples README.md", False, "f29d802", "the daemon's job-id surface"),
    ("JsonlEventStream|write_events_jsonl|write_perfetto|to_perfetto|_StreamList|keep_events"
     "|jain_index|write_series_csv|NoNoise",
     "src docs scripts examples README.md DESIGN.md", False, "ed12438",
     "the buffered exporters, the events= knob"),
    ('"seed"', "src/repro/experiments/paper_scale.py", False, "046fdf2", "a seed nested in cfgs"),
    (r'\.get\("seed"', "src/repro/experiments/registry.py", False, "046fdf2", "a default seed"),
    ("Timely|PowerTcp|POWERTCP|LEDBAT_TARGETS|export_fault_timelines|thresholds_for|is_control"
     "|link_rate_bps|completed_ids|hash_salt|_PATH_CACHE_MAX|path_cache_evictions|_path_cache"
     "|_drained|_DRAIN_TIMEOUT_RTTS|_DRAIN_TIMEOUT_SLACK_NS|incast_flows|file_requests"
     "|file_requests_iter|load_trace|save_trace|TraceFormatError|FctStats|trace_io|from_json"
     "|to_json|is_idle|export_state|shared_threshold|mean_ns|ideal_fct_ns|_SEVERITY",
     "src tests docs scripts examples README.md DESIGN.md", True, "d72469c",
     "code with no caller outside the tests"),
    (r"def (save|slowdown|buckets)\b|\.(save|slowdown|buckets)\(",
     "src tests docs scripts examples README.md DESIGN.md", False, "d72469c",
     "uncalled methods named by common words"),
    ("packet_floor_sweep|TRACE_SEED =", "scripts tests docs", False, "331a033", "a second judge"),
    ("HYBRID_WORLD[S]", ".github/workflows/ci.yml scripts", False, "79c0733", "a copied loop"),
    ("trace_scope|inspect_scope|sample_scope|current_auditor",
     "src tests docs", False, "79c0733", "per-sink scope wrappers"),
    (r"switch_reboot|pfc_storm|SwitchRebootActor|PfcStormActor|power_on|_norm_ppf|sim\._live"
     r"|\.pending\b", "src tests docs README.md", False, "ad43e2a", "code no run reached"),
    ("<<", ".github/workflows/ci.yml", False, "this table", "a CI heredoc kept by hand"),
)


def deleted_names():
    """No ``DELETED`` pattern matches in its paths; prints every offending line."""
    hits = 0
    for pattern, paths, word, cut, what in DELETED:
        regex = re.compile(rf"(?<!\w)(?:{pattern})(?!\w)" if word else pattern)
        files = [f for p in paths.split() for top in sorted(ROOT.glob(p))
                 for f in (sorted(top.rglob("*")) if top.is_dir() else [top])
                 if f.is_file() and "__pycache__" not in f.parts and f != Path(__file__).resolve()]
        for file in files:
            for n, line in enumerate(file.read_text(errors="replace").splitlines(), 1):
                if regex.search(line):
                    hits += 1
                    print(f"{file.relative_to(ROOT)}:{n}: {line.strip()}  [cut in {cut}: {what}]")
    assert hits == 0, f"{hits} lines name what was cut"
    print(f"deleted names: {len(DELETED)} patterns, none grew back")


# the table
_BATTERY = "{repo}/tests/golden_battery.py"

JOBS = {
    "test": (
        Step("Run tests", ("-m pytest -x -q {repo}/tests",), False),
    ),
    "verdicts": (
        Step("Paper verdicts (each registered experiment's --quick run, ~90 s)",
             ("-m pytest -q -p no:cacheprovider {repo}/benchmarks"
              " --ignore={repo}/benchmarks/perf",)),
    ),
    "perf-ledger": (
        Step("Ledger self-tests", ("-m pytest -q {repo}/benchmarks/perf/test_perf_bench.py",),
             False),
        Step("Perf ledger (one round, five workloads, checked against BENCHMARK.json bounds)",
             ("{repo}/benchmarks/perf/run.py --rounds 1 --seconds 3 --check"
              " --out perf_ledger.json",),
             False),
    ),
    "faults-smoke": (
        Step("Fault robustness experiments (quick scale, sharded, cached)",
             ("-m repro run fault_flap --quick --jobs 2 --cache .ci-cache",
              "-m repro run fault_degrade --quick --jobs 2 --cache .ci-cache")),
        Step("A fault plan from the command line (--faults)", (fault_plan,)),
    ),
    "audit-smoke": (
        Step("Both golden batteries under the invariant auditor", (f"{_BATTERY} --audit=strict",)),
        Step("Audited fault experiment (quick scale, sharded)",
             ("-m repro run fault_flap --quick --jobs 2 --audit=strict",)),
    ),
    "obs-smoke": (
        Step("Both golden batteries with all introspection subsystems live",
             (f"{_BATTERY} --obs all",)),
        Step("Both golden batteries under the profiler alone", (f"{_BATTERY} --obs profile",)),
        Step("Both golden batteries with every sink live on one probe",
             (f"{_BATTERY} --audit=strict --obs all",)),
        Step("Traced quickstart + dashboard",
             ("-m repro quickstart --trace trace.json --trace-packets spans.jsonl --trace-every 8"
              " --sample samples.csv --inspect channel.json --profile > result.json",
              "-m repro report --result result.json --samples samples.csv --spans spans.jsonl"
              " --channel channel.json --out dashboard.html")),
        Step("Verify artifacts exist and parse", (obs_artifacts,)),
        Step("PFC track of a pausing experiment",
             ("-m repro headroom --quick --trace pfc.json --audit=strict > headroom.json",
              pfc_track)),
        Step("Fault track and corrupted packets of a traced, audited fault run",
             ("-m repro fault_degrade --quick --trace f.json --trace-packets s.jsonl"
              " --trace-every 1 --audit=strict > fault.json", fault_track)),
        Step("Metrics and progress of a run (--metrics, --progress)", (metrics_progress,)),
        Step("A trace costs the memory of an event stream", (trace_rss,)),
    ),
    "serve-smoke": (
        Step("Boot a daemon and drive it over the CLI", (serve,)),
    ),
    "scale-smoke": (
        Step("Paper-scale point under the hybrid core (k=6, 320 hosts, short trace)",
             (paper_point,)),
        Step("Folded experiments, sharded (quick scale)",
             ("-m repro run fig13 --quick --jobs 2", "-m repro run headroom --quick --jobs 2")),
        Step("Regime components at a contention exit (ROADMAP item 2, step 0)",
             ("{repo}/scripts/regime_components.py --load 0.002 --ms 20",)),
        Step("Packet-floor sweep against the twin ratchet (ROADMAP item 28)",
             ("{repo}/tests/hybrid_twins.py --sweep 15:100:800,100:100:100",)),
        Step("Fluid solves replayed at a tiny size",
             ("{repo}/scripts/solver_replay.py --world bulk_fluid --scale 0.05 --rounds 1",)),
        Step("Packet twins of the hybrid golden worlds", ("{repo}/tests/hybrid_twins.py --check",)),
        Step("Cost ratchet (ROADMAP item 19)", ("{repo}/tests/cost_ratchet.py --check",), False),
        Step("One fluid write-back per flow per epoch (traced bulk_fluid)",
             ("{repo}/benchmarks/perf/run.py --workload bulk_fluid --seed 123 --seconds 3 --trace 1"
              " > bulk_fluid.out", write_back), False),
    ),
    "reach-census": (
        Step("Every function some run reaches, every knob some run turns (ROADMAP item 27)",
             ("{repo}/scripts/reach_census.py --check",), False),
    ),
    "lint": (
        Step("Lint", ("-m ruff check {repo}/src {repo}/tests",), False),
        Step("Per-flow state is allocated at start", (per_flow_state,), False),
        Step("Deleted names stay deleted", (deleted_names,), False),
        Step("Docs that describe the system as it is", (performance_doc,), False),
        Step("Fluid modules stay under 600 lines", (fluid_modules,), False),
    ),
}


def show(command) -> str:
    return f"gates.{command.__name__}()" if callable(command) else f"python {command}"


def run(command) -> None:
    """Run one command in the working directory; raises on failure."""
    print(f"$ {show(command)}", flush=True)
    if callable(command):
        return command()
    argv, out = [a.replace("{repo}", str(ROOT)) for a in shlex.split(command)], None
    if argv[-2:-1] == [">"]:
        argv, out = argv[:-2], argv[-1]
    _python(*argv, out=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("job", nargs="?", choices=list(JOBS), help="a CI job")
    ap.add_argument("step", nargs="?", help="one step of the job, by its CI name")
    ap.add_argument("--dir", type=Path, help="the working directory (default: .ci-out/JOB)")
    args = ap.parse_args(argv)
    if args.job is None:
        for job, steps in JOBS.items():
            print(job)
            for step in steps:
                print(f"  {step.name}" + ("" if step.census else "  [no census root]"))
                print("".join(f"    {show(c)}\n" for c in step.commands), end="")
        return 0
    step = next((s for s in JOBS[args.job] if s.name == args.step), None)
    if step is None:
        ap.error(f"{args.step!r} is no step of {args.job} (run with no argument to list them)")
    workdir = args.dir or ROOT / ".ci-out" / args.job
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    path = [os.environ.get("PYTHONPATH"), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    sys.path.insert(0, str(SRC))  # for the checks that import repro
    print(f"== {args.job}: {step.name}", flush=True)
    for command in step.commands:
        run(command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
