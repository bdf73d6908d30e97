"""The cost ratchet: bytecodes per simulated event, per ledger layer.

Wall time on a small shared host cannot resolve a change under ~20 %, and the
ledger's per-layer shares are shares of wall.  This script counts instead:
it runs five tiny worlds — one per ledger workload shape — under
``sys.settrace`` with ``f_trace_opcodes`` and attributes every executed
bytecode and every Python call to the ledger layer of the module whose code
ran.  Code outside ``src/repro`` (the standard library, generated
``dataclass`` methods) counts toward the layer that called it; the harness
itself (``tests/``, ``benchmarks/``) is ``harness``.  Two layers extend the
ledger's list: ``runner`` (runner, cache, daemon) and ``instrumentation``
(probe, sinks, auditor).

Every world runs in a fresh interpreter with ``PYTHONHASHSEED=0`` and the
cyclic collector off, because a second run in one process reads fewer
bytecodes (process-wide caches are warm).  The counts are then exact: two
runs give the same numbers.  They depend on the interpreter's minor version,
so ``tests/golden/cost_ratchet.json`` holds one section per version.

The four simulation worlds are the ledger's own builders
(``benchmarks/perf/workloads.py``, imported read-only) at a tiny scale; the
fifth is one ``sweep_runner`` point run through ``execute_point``.  Set-up
and run are counted as two phases, as the ledger times ``setup_s`` apart
from ``wall_s``, so a fall in one cannot hide a rise in the other.  A
simulation world's set-up is its ``build``; the sweep point's ends at its
first ``Simulator.run``.  Set-up is compared as bytecodes per layer (it does
not scale with the events), the run as bytecodes per layer per event.

Usage::

    PYTHONPATH=src python tests/cost_ratchet.py --check [WORLD ...]
    PYTHONPATH=src python tests/cost_ratchet.py --write [--allow-rise] [WORLD ...]

``--check`` fails when any layer's count rose by more than 0.1 % in either
phase against the committed counts.  ``--write`` records a world only if no
count rose; ``--allow-rise`` records it anyway (say why in CHANGES.md: a
correctness fix may cost bytecodes, a refactor may not).  Bytecodes miss
C-level work (heap operations, allocation), so a speed claim quotes this
count for the direction and interleaved wall for the size.  The run-cost
table in docs/PERFORMANCE.md is the 3.11 section's run phase, and
``tests/test_experiments_record.py`` fails until a ``--write`` that moves
it is copied there.

All five worlds take ~20 s per interpreter on one core of a Xeon VM;
``sweep_point``, the cheapest (~1 s), is the one tier-1 checks.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERF = ROOT / "benchmarks" / "perf"
GOLDEN_PATH = Path(__file__).parent / "golden" / "cost_ratchet.json"

#: a layer's count may rise by this share before --check fails; the counts
#: repeat exactly, and one ``None`` check in ``Port.enqueue`` reads +0.2 %
TOLERANCE = 0.001

#: the two counted phases, in order
PHASES = ("setup", "run")

#: (module prefix, layer), longest prefix first wins; the ledger's layer names
#: (``benchmarks/perf/tracing.py``) plus runner and instrumentation
_LAYER_OF_MODULE = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.port", "port"),
    ("repro.sim.packet", "port"),
    ("repro.sim.switch", "switch"),
    ("repro.sim.network", "switch"),
    ("repro.sim.buffer", "buffer_pfc"),
    ("repro.sim.pfc", "buffer_pfc"),
    ("repro.sim.host", "host"),
    ("repro.transport", "transport"),
    ("repro.noise", "transport"),
    ("repro.cc", "cc"),
    ("repro.core", "cc"),
    ("repro.fluid.model", "fluid_solver"),
    ("repro.fluid", "fluid_driver"),
    ("repro.experiments.launch", "admission"),
    ("repro.analysis.streaming", "reduction"),
    ("repro.workloads", "workload"),
    ("repro.runner", "runner"),
    ("repro.serve", "runner"),
    ("repro.api", "runner"),
    ("repro.probe", "instrumentation"),
    ("repro.obs", "instrumentation"),
    ("repro.telemetry", "instrumentation"),
    ("repro.audit", "instrumentation"),
    ("repro", "harness"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYER_OF_MODULE))

#: world -> (ledger workload, scale); ``sweep_point`` is the sweep's point
WORLDS = {
    "sweep_point": None,
    "flowsched_packet": ("flowsched_packet", 0.07),
    "incast_pfc": ("incast_pfc", 0.05),
    "longtrace_hybrid": ("longtrace_hybrid", 0.01),
    "bulk_fluid": ("bulk_fluid", 0.05),
}
#: the sweep_runner point: the cheapest of its ten point functions
SWEEP_POINT = "cardinality_on#1"


# ----------------------------------------------------------------------
# counting (runs in the child process)
# ----------------------------------------------------------------------
def _own_layer(filename: str):
    """The layer index of a code object's file, or None if it inherits."""
    path = Path(filename)
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        if path.is_relative_to(ROOT):
            return LAYERS.index("harness")
        return None  # the standard library, or generated code: the caller's
    module = ".".join(rel.with_suffix("").parts)
    for prefix, layer in _LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return LAYERS.index(layer)
    return LAYERS.index("harness")


def _traced(fn):
    """Run ``fn(next_phase)`` under the opcode tracer, where ``fn`` calls
    ``next_phase()`` once, where set-up ends: per phase, (bytecodes, calls)
    per layer."""
    n = len(LAYERS)
    harness = LAYERS.index("harness")
    phases = []
    ops = calls = None

    def next_phase():
        nonlocal ops, calls
        ops, calls = [0] * n, [0] * n
        phases.append((ops, calls))

    def local_for(i):
        def local(frame, event, arg):
            if event == "opcode":
                ops[i] += 1
            return local

        return local

    locals_ = [local_for(i) for i in range(n)]
    index_of = {f: i for i, f in enumerate(locals_)}
    layer_of_code = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in layer_of_code:
            i = layer_of_code[code]
        else:
            i = layer_of_code[code] = _own_layer(code.co_filename)
        if i is None:
            back = frame.f_back
            i = index_of.get(back.f_trace if back is not None else None, harness)
        calls[i] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return locals_[i]

    next_phase()
    # Python 3.12 turns opcode events on at settrace() only if some frame
    # asked for them before
    sys._getframe().f_trace_opcodes = True
    sys.settrace(on_call)
    try:
        fn(next_phase)
    finally:
        sys.settrace(None)
    if len(phases) != len(PHASES):
        raise RuntimeError(f"{len(phases)} phases counted, want {len(PHASES)}")
    return phases


def _world(name: str):
    """A callable ``run(next_phase)`` that builds and runs world ``name``.

    Every module of the package is imported first, so no import runs inside
    the count."""
    import pkgutil

    import repro
    from repro.sim.engine import Simulator

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(mod.name)
    sys.path.insert(0, str(PERF))
    spec = WORLDS[name]
    if spec is None:
        import sweep_exp

        from repro.runner.scheduler import execute_point

        exp = sweep_exp.sweep_experiment(42)
        (point,) = [p for p in exp.points() if p.name == SWEEP_POINT]

        def run_point(next_phase):
            sim_run = Simulator.run

            def first_run(self, *args, **kwargs):
                Simulator.run = sim_run
                next_phase()
                return sim_run(self, *args, **kwargs)

            Simulator.run = first_run
            try:
                execute_point(exp, point)
            finally:
                Simulator.run = sim_run

        return run_point
    import workloads

    workload = workloads.SIM_WORKLOADS[spec[0]]

    def run(next_phase):
        world = workload.build(42, spec[1])
        next_phase()
        if not workload.run(world):
            raise RuntimeError(f"{name}: flows left unfinished")

    return run


def count_world(name: str) -> dict:
    """Engine events, and per phase the bytecodes and Python calls per layer,
    of one world."""
    from repro.sim.engine import Simulator

    run = _world(name)
    sims = []
    init = Simulator.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    Simulator.__init__ = counted_init
    gc.collect()
    gc.disable()
    try:
        phases = _traced(run)
    finally:
        gc.enable()
        Simulator.__init__ = init
    record = {"events": sum(sim.events_processed for sim in sims)}
    for phase, (ops, calls) in zip(PHASES, phases):
        record[phase] = {
            layer: {"bytecodes": ops[i], "calls": calls[i]}
            for i, layer in enumerate(LAYERS)
            if ops[i] or calls[i]
        }
    return record


# ----------------------------------------------------------------------
# comparing (runs in the parent)
# ----------------------------------------------------------------------
def version_key() -> str:
    return "%d.%d" % sys.version_info[:2]


def measure(name: str) -> dict:
    """:func:`count_world` in a fresh interpreter with ``PYTHONHASHSEED=0``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        f"from cost_ratchet import count_world; print(json.dumps(count_world({name!r})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"counting {name} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def costs(record: dict) -> dict:
    """``(phase, layer)`` -> set-up bytecodes, or run bytecodes per event."""
    events = record["events"]
    out = {("setup", layer): c["bytecodes"] for layer, c in record["setup"].items()}
    out.update((("run", layer), c["bytecodes"] / events) for layer, c in record["run"].items())
    return out


def rises(committed: dict, now: dict, tolerance: float = TOLERANCE) -> list:
    """``(phase, layer, committed, current)`` for every count that rose by
    more than ``tolerance``."""
    old, new = costs(committed), costs(now)
    return [
        (phase, layer, old.get((phase, layer), 0.0), value)
        for (phase, layer), value in sorted(new.items())
        if value > old.get((phase, layer), 0.0) * (1 + tolerance)
    ]


def table(name: str, committed, now: dict) -> str:
    old = costs(committed) if committed else {}
    new = costs(now)
    lines = [f"{name}: {now['events']} events"]
    for phase, unit in zip(PHASES, ("bytecodes", "bytecodes/event")):
        for layer in LAYERS:
            key = (phase, layer)
            if key not in old and key not in new:
                continue
            a, b = old.get(key), new.get(key, 0.0)
            delta = "" if not a else f"  {100 * (b / a - 1):+.2f} %"
            was = "-" if a is None else f"{a:.2f}"
            lines.append(f"  {phase:5s} {layer:16s} {was:>12s} -> {b:12.2f} {unit}{delta}")
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help=f"fail on a rise over {100 * TOLERANCE:g} %%")
    mode.add_argument("--write", action="store_true", help=f"record falls in {GOLDEN_PATH.name}")
    parser.add_argument("--allow-rise", action="store_true", help="with --write: record rises too")
    parser.add_argument("worlds", nargs="*", metavar="WORLD", help=f"default: all of {', '.join(WORLDS)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.worlds) - set(WORLDS))
    if unknown:
        parser.error(f"unknown world(s): {', '.join(unknown)}")
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    section = golden.setdefault(version_key(), {})
    failed = False
    for name in args.worlds or WORLDS:
        now = measure(name)
        committed = section.get(name)
        print(table(name, committed, now))
        rose = rises(committed, now, 0.0 if args.write else TOLERANCE) if committed else []
        for phase, layer, a, b in rose:
            print(f"  rise: {phase} {layer} {a:.2f} -> {b:.2f}", file=sys.stderr)
        if args.check:
            if committed is None:
                print(f"{name}: no committed counts for Python {version_key()}", file=sys.stderr)
            failed |= committed is None or bool(rose)
        elif not rose or args.allow_rise:
            section[name] = now
        else:
            failed |= bool(rises(committed, now))
            print(f"{name}: kept the committed counts (--allow-rise records a rise)", file=sys.stderr)
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
