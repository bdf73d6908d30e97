#!/usr/bin/env python3
"""Reach census: which functions under ``src/repro`` does any run reach, and
which of their defaulted parameters does any run set to a second value?

``tests/test_probe.py::test_every_public_name_has_a_caller`` asks whether a
name has a caller; a caller that never runs passes it.  This script asks the
runs themselves.  It runs a fixed list of *roots*, each as a subprocess
under a profile hook: one per CI job, running that job's steps of the gate
table ``scripts/gates.py`` in order (the paper verdict tests, the smoke jobs,
the scripts at their CI sizes); every example; ``run_all_experiments.py``;
and one untimed rep of each frozen perf-ledger workload.  It then lists every
function and class body in ``src/repro`` that none of them entered.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH`` in a
temporary directory, so pool workers, forked children and the serve daemon
count too.  ``sys.setprofile`` and ``threading.setprofile`` append each code
object under ``src/repro`` the first time it starts to one file per process
(a forked child reopens its own, ``os.register_at_fork``).  Every
``src/repro`` file is then compiled and its named code objects listed:
every function and class body, but no module body, ``<lambda>``,
``<genexpr>`` or other ``<...>``.  ``__repr__`` is exempt by rule.

The knob half.  The same hook reads, at every call of a function with a
defaulted parameter (a dataclass's fields count as its ``__init__``'s), the
value each such parameter holds, and writes a parameter's first value and
its first different one: scalars and tuples of scalars compare by ``repr``,
a callable by its qualname, any other object by its type.  Every call is
checked until a parameter has shown two values.  One more root runs
nothing: each full and quick point of every registered experiment counts as
a call of its point function with the point's kwargs, and a parameter a
point names is exempt by rule (``tests/golden/experiment_points.json`` and
the seed contract pin it).  A parameter that took one value is a knob no
run turns: it becomes a constant, unless ``KNOB_ALLOWLIST`` says why not.

Each root runs in a fresh temporary directory (``gates.py --dir .``), so
every ``--cache`` starts empty and no output file lands in the tree.  A gate
step with ``census=False`` is no root: tier-1 ``pytest`` (a test may call
anything; the census asks what runs reach); the full ledger round (it
rewrites committed files under ``benchmarks/perf``; ``ledger-reps`` runs the
same workloads in driver mode, which writes none); the ledger self-tests and
the traced ``bulk_fluid`` write-back run (a traced ledger rep calls the
ledger's ``calibrate()``, whose ``n`` would then need a ``KNOB_ALLOWLIST``
entry); ``tests/cost_ratchet.py`` (it counts bytecodes with its own trace
hook); the census itself; and the ``lint`` steps (they read the tree and run
no ``repro`` code).

Usage:
    python scripts/reach_census.py            # run every root, print the census
    python scripts/reach_census.py --check    # and fail on what the allowlists do not hold

``--check`` fails on an unreached function missing from ``ALLOWLIST``, on a
one-value parameter neither exempt nor in ``KNOB_ALLOWLIST``, on a stale
entry of either (reached or turned, or naming nothing), on a reached
function's parameter that recorded no value (a gap in the hook), and on any
root that exits non-zero: a broken root silently reaches less.  Both
allowlists only shrink.  Hooked, the whole list takes ~15 min on a 2-core VM.
"""

from __future__ import annotations

import argparse
import ast
import functools
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import gates  # noqa: E402  (the CI gate table)

SRC = ROOT / "src" / "repro"

#: ``module::qualname`` -> why no root reaches it (module relative to
#: src/repro); an entry covers what is nested under it, a class's methods too
ALLOWLIST = {
    # the frozen perf ledger names or calls them (ROADMAP item 1)
    "sim/port.py::Port.kick": "the perf ledger's tracer wraps it by name",
    "obs/profiler.py::profile_scope": "only the perf ledger's tracer (--trace 1) calls it",
    "fluid/hybrid.py::HybridDriver.run": "the perf ledger's tracer wraps it by name; no workload calls it",
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
    "fluid/epoch.py::_Epoch._reread_caps": "no run degrades a link in a fluid epoch",
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
    # full presets: only a run without --quick reaches them
    "tune/channel_env.py::_eval_flowsched_full": "tune_channels' full preset",
    # the library API docs/API.md documents (tests/test_probe.py _NO_CALLER_YET)
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

#: ``module::qualname(parameter)`` -> why its default stays a default though
#: every run passes it one value: input from outside the program, deployment
#: settings, failure paths, or what the frozen perf ledger passes
KNOB_ALLOWLIST = {
    # input from outside the program: the CLI's argv, the serve wire and
    # --faults plan files
    "__main__.py::main(argv)": "the CLI's argv",
    "obs/report.py::report_main(argv)": "the CLI's argv (repro report)",
    "serve/server.py::serve_main(argv)": "the CLI's argv (repro serve)",
    "obs/report.py::build_dashboard(result)": "repro report --result, optional on the CLI",
    "obs/report.py::build_dashboard(samples)": "repro report --samples, optional on the CLI",
    "obs/report.py::build_dashboard(spans)": "repro report --spans, optional on the CLI",
    "obs/report.py::build_dashboard(channel)": "repro report --channel, optional on the CLI",
    "obs/report.py::build_dashboard(title)": "repro report --title",
    "audit/auditor.py::Auditor.__init__(mode)": "the CLI's --audit=strict|warn",
    "audit/auditor.py::audit_scope(mode)": "the CLI's --audit=strict|warn",
    "client.py::ServeClient.run(audit)": "the CLI's --audit, sent over the serve wire",
    "client.py::ServeClient.run(faults)": "the CLI's --faults plan, sent over the serve wire",
    "serve/protocol.py::SubmitRequest.__init__(audit)": "a field of the serve wire's run request",
    "serve/protocol.py::SubmitRequest.__init__(faults)": "a field of the serve wire's run request",
    "serve/protocol.py::SubmitRequest.__init__(version)": "the serve wire's protocol version",
    "serve/protocol.py::ServerStats.__init__(workers)": "a field of the serve wire's status reply",
    "serve/protocol.py::ServerStats.__init__(inflight_now)": "a field of the serve wire's status reply",
    "serve/protocol.py::ServerStats.__init__(version)": "the serve wire's protocol version",
    "faults/plan.py::Schedule.__init__(mtbf_ns)": "a field of a --faults plan file",
    "faults/plan.py::Schedule.__init__(mttr_ns)": "a field of a --faults plan file",
    "faults/plan.py::Schedule.__init__(until_ns)": "a field of a --faults plan file",
    # deployment settings
    "client.py::ServeClient.__init__(timeout)": "deployment: the client's socket timeout",
    "serve/server.py::ExperimentServer.__init__(jobs)": "deployment: repro serve --jobs",
    # failure paths
    "audit/auditor.py::Auditor.__init__(recorder)": "read only on an invariant violation",
    # what the frozen perf ledger passes (benchmarks/perf/workloads.py,
    # sweep_exp.py)
    "experiments/launch.py::launch_specs(mtu)": "the frozen perf ledger passes it",
    "experiments/launch.py::FlowAdmitter.__init__(mtu)": "the frozen perf ledger passes it",
    "experiments/launch.py::FlowAdmitter.__init__(noise)": "the frozen perf ledger passes it",
    "transport/sender.py::FlowSender.__init__(mtu)": "the frozen perf ledger's mtu=, forwarded by launch_specs and FlowAdmitter",
    "experiments/flowsched.py::FlowSchedConfig.__init__(link_delay_ns)": "the frozen perf ledger passes it in PAPER_LONG_CFG",
    "topology/builders.py::fat_tree(link_delay_ns)": "the frozen perf ledger passes it",
    "topology/builders.py::paper_fabric(rate_bps)": "the frozen perf ledger passes it",
    "topology/builders.py::paper_fabric(link_delay_ns)": "the frozen perf ledger passes it",
    "experiments/fig8_testbed.py::run_staircase(seed)": "the frozen perf ledger's sweep passes seeds 1-3 (one at --scale 0.05)",
}

#: the name exempt by rule, wherever it is defined
EXEMPT = "__repr__"


# ----------------------------------------------------------------------
# the hook
# ----------------------------------------------------------------------
#: how a value is told apart from another; the hook and the points root
#: share it
_VALUE_KEY = '''\
import enum as _enum

_SCALARS = (type(None), bool, int, float, complex, str, bytes)


def _key(value):
    # scalars and tuples of scalars by repr, a callable by its qualname, any
    # other object by its type
    kind = type(value)
    if kind in _SCALARS or isinstance(value, _enum.Enum):
        return repr(value)
    if kind is tuple and all(type(v) in _SCALARS for v in value):
        return repr(value)
    if callable(value):
        name = getattr(value, "__qualname__", None) or type(value).__qualname__
        return "<callable %s.%s>" % (getattr(value, "__module__", None) or kind.__module__, name)
    return "<%s.%s>" % (kind.__module__, kind.__qualname__)
'''

_SITECUSTOMIZE = _VALUE_KEY + '''
import dis, json, os, sys, threading

_DIR = os.environ["REACH_CENSUS_OUT"]
_SRC = os.environ["REACH_CENSUS_SRC"]
with open(os.environ["REACH_CENSUS_KNOBS"]) as fh:
    _KNOBS = {(f, line, name): (fn, params) for f, line, name, fn, params in json.load(fh)}
_GENERATOR = 0x20 | 0x80 | 0x200  # CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR
#: every code object seen (so no id is reused) -> None, or
#: [function, {parameter: first value key}, generator's first offset or -1]
_state = {}
_out = _values = None


def _open():
    global _out, _values
    _out = open(os.path.join(_DIR, "%d.tsv" % os.getpid()), "a")
    _values = open(os.path.join(_DIR, "%d.val" % os.getpid()), "a")


def _first(frame, code):
    entry = None
    if code.co_filename.startswith(_SRC):
        _out.write("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name))
        _out.flush()
        entry = _KNOBS.get((code.co_filename, code.co_firstlineno, code.co_name))
    elif code.co_name == "__init__" and code.co_filename == "<string>":  # a dataclass's
        for cls in type(frame.f_locals.get("self")).__mro__:
            if getattr(vars(cls).get("__init__"), "__code__", None) is code:
                module = getattr(sys.modules.get(cls.__module__), "__file__", "")
                entry = _KNOBS.get((module, 0, cls.__qualname__))
                break
    watch = None
    if entry is not None:
        start = -1
        if code.co_flags & _GENERATOR:  # record the first entry, not each resume
            start = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        watch = [entry[0], dict.fromkeys(entry[1]), start]
    _state[code] = watch
    return watch


def _record(frame, code, watch):
    function, pending, start = watch
    if start >= 0 and frame.f_lasti != start:
        return
    local = frame.f_locals
    for param, first in list(pending.items()):
        key = _key(local.get(param))
        if first is None:
            pending[param] = key
        elif key != first:
            del pending[param]  # two values: it is a knob some run turns
        else:
            continue
        _values.write("%s\\t%s\\t%s\\n" % (function, param, key.replace("\\n", " ")))
        _values.flush()
    if not pending:
        _state[code] = None


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        try:
            watch = _state[code]
        except KeyError:
            watch = _first(frame, code)
        if watch is not None:
            _record(frame, code, watch)


_open()
os.register_at_fork(after_in_child=_open)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


# ----------------------------------------------------------------------
# the roots: name -> interpreter argv lists, run in order in one fresh
# temporary directory with {repo} filled in
# ----------------------------------------------------------------------
ROOTS = {
    **{job: [["{repo}/scripts/gates.py", "--dir", ".", job, step.name]
             for step in steps if step.census]
       for job, steps in gates.JOBS.items() if any(step.census for step in steps)},
    **{f"examples/{p.name}": [[str(p)]] for p in sorted((ROOT / "examples").glob("*.py"))},
    "run_all_experiments": [["{repo}/scripts/run_all_experiments.py", "--only", "quickstart",
                             "--serial", "--out", "results"]],
    # driver mode: one rep of each frozen workload, measured untimed; it
    # writes no file under benchmarks/perf
    "ledger-reps": [["{repo}/benchmarks/perf/run.py", "--workload", w["name"], "--seconds", "0",
                     "--scale", "0.05", "--trace", "0"]
                    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]],
}


def run_roots(roots, out_dir: Path) -> dict:
    """Run every root hooked, recording into ``out_dir/records/<root>``;
    ``{root: failing command or None}``."""
    hook_dir = out_dir / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    (hook_dir / "knobs.json").write_text(json.dumps(_hook_table()))
    records = out_dir / "records"
    records.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src"), str(ROOT)])
    env["REACH_CENSUS_SRC"] = str(SRC) + os.sep
    env["REACH_CENSUS_KNOBS"] = str(hook_dir / "knobs.json")
    failed = {}
    for name, commands in roots.items():
        failed[name] = None
        t0 = time.monotonic()
        env["REACH_CENSUS_OUT"] = str(records / name.replace("/", "_"))
        os.mkdir(env["REACH_CENSUS_OUT"])
        with tempfile.TemporaryDirectory(prefix="reach-root-") as cwd:
            for argv in commands:
                argv = [sys.executable] + [a.replace("{repo}", str(ROOT)) for a in argv]
                # files, not pipes: a child left running must not hang the census
                with open(Path(cwd, "stdout"), "w") as out, open(Path(cwd, "stderr"), "w+") as err:
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


# ----------------------------------------------------------------------
# the knob half: which defaulted parameter does any run set to a second value
# ----------------------------------------------------------------------
def _is_dataclass(node) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _field_has_default(value) -> bool:
    """A dataclass field's ``= value`` gives its ``__init__`` a default."""
    if not (isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field")):
        return True
    words = {k.arg: k.value for k in value.keywords}
    init = words.get("init")
    return ("default" in words or "default_factory" in words) and not (
        isinstance(init, ast.Constant) and init.value is False)


def defaulted_params() -> dict:
    """``{"module::qualname": [parameter, ...]}``: the parameters with a
    default of every named function in ``src/repro``, a dataclass's fields as
    the parameters of its ``__init__``."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                params = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                params += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if params:
                    found[f"{module}::{prefix}{child.name}"] = params
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    params = [st.target.id for st in child.body
                              if isinstance(st, ast.AnnAssign) and st.value is not None
                              and "ClassVar" not in ast.unparse(st.annotation)
                              and _field_has_default(st.value)]
                    if params:
                        found[f"{module}::{prefix}{child.name}.__init__"] = params
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return found


def _hook_table() -> list:
    """What the hook watches: ``[file, first line, code name, function,
    parameters]`` per function with a defaulted parameter; a dataclass is
    keyed ``file, 0, class qualname``."""
    defaulted, functions = defaulted_params(), named_functions()
    table = []
    for (module, line, name), function in functions.items():
        if function in defaulted:
            table.append([str(SRC / module), line, name, function, defaulted[function]])
    for function, params in defaulted.items():
        module, qualname = function.split("::")
        if qualname.endswith(".__init__") and function not in functions.values():
            table.append([str(SRC / module), 0, qualname[: -len(".__init__")], function, params])
    return table


def point_calls(records: Path) -> set:
    """The points root, which runs nothing: each full and quick point of
    every registered experiment counts as one call of its function with the
    point's kwargs.  Writes the values like a hooked root and returns the
    ``function(parameter)`` a point names: exempt by rule, since
    ``tests/golden/experiment_points.json`` and the seed contract pin them."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.registry import REGISTRY

    scope = {}
    exec(_VALUE_KEY, scope)
    functions, defaulted = named_functions(), defaulted_params()
    exempt, lines = set(), []
    for experiment in REGISTRY.experiments():
        for variant in (experiment, experiment.quick()):
            for fn, kwargs in variant._spec.values():
                args, words = (), dict(kwargs)
                while isinstance(fn, functools.partial):
                    args, words, fn = fn.args + args, {**fn.keywords, **words}, fn.func
                code = fn.__code__
                module = Path(code.co_filename).resolve().relative_to(SRC).as_posix()
                function = functions[(module, code.co_firstlineno, code.co_name)]
                signature = inspect.signature(fn)
                bound = signature.bind_partial(*args, **words).arguments
                for param in defaulted.get(function, ()):
                    value = bound.get(param, signature.parameters[param].default)
                    lines.append(f"{function}\t{param}\t{scope['_key'](value)}\n")
                exempt |= {f"{function}({p})" for p in kwargs if p in defaulted.get(function, ())}
    (records / "points").mkdir()
    (records / "points" / "points.val").write_text("".join(lines))
    return exempt


def values(records: Path) -> dict:
    """``{"function(parameter)": {value key, ...}}`` over every root."""
    seen = {}
    for path in records.rglob("*.val"):
        for line in path.read_text().splitlines():
            function, param, key = line.split("\t", 2)
            seen.setdefault(f"{function}({param})", set()).add(key)
    return seen


def knob_census(functions: dict, seen: set, taken: dict, exempt: set) -> tuple:
    """``(knobs, one, silent)``: every defaulted parameter; those that took
    exactly one value (``{knob: value}``), exempt ones included; and those of
    a reached function that recorded no value, which only a gap in the hook
    explains."""
    reached_functions = {functions[key] for key in seen if key in functions}
    knobs = [f"{fn}({p})" for fn, params in defaulted_params().items() for p in params]
    one = {k: next(iter(taken[k])) for k in knobs if len(taken.get(k, ())) == 1}
    silent = [k for k in knobs if k not in taken and k.split("(")[0] in reached_functions]
    return knobs, one, silent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail on an unreached function missing from ALLOWLIST, a one-value "
                    "parameter missing from KNOB_ALLOWLIST, a stale entry, or a root that "
                    "exits non-zero")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        failed = run_roots(ROOTS, Path(tmp))
        t0 = time.monotonic()
        point_exempt = point_calls(Path(tmp) / "records")
        print(f"[{time.monotonic() - t0:7.1f} s] points: ok", file=sys.stderr, flush=True)
        seen = reached(Path(tmp) / "records")
        taken = values(Path(tmp) / "records")
    functions, unreached, exempt = census(seen)
    knobs, one, silent = knob_census(functions, seen, taken, point_exempt)
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
    called = [k for k in knobs if k in taken]
    frozen = [k for k in one if k not in point_exempt]
    print(f"\n{len(knobs)} defaulted parameters: {len(called) - len(one)} took two or more "
          f"values, {len(one)} one value ({len(one) - len(frozen)} named in a registered point, "
          f"{sum(k in KNOB_ALLOWLIST for k in frozen)} allowlisted), "
          f"{len(knobs) - len(called)} never called")
    module = None
    for knob in frozen:
        if knob.split("::")[0] != module:
            module = knob.split("::")[0]
            print(f"\n{module}")
        reason = KNOB_ALLOWLIST.get(knob)
        print(f"  {knob.split('::')[1]} = {one[knob]}" + (f"  [allowed: {reason}]" if reason else ""))
    if not args.check:
        return 0
    problems = [f"root {name} failed: {how}" for name, how in failed.items() if how]
    problems += [f"unreached and not allowlisted: {name}" for name in unreached
                 if allowed(name) is None]
    problems += [f"stale allowlist entry (reached, or no such function): {entry}"
                 for entry in sorted(set(ALLOWLIST) - {allowed(name) for name in unreached})]
    problems += [f"allowlist entry without a reason: {name}"
                 for name, reason in {**ALLOWLIST, **KNOB_ALLOWLIST}.items() if not reason.strip()]
    problems += [f"one value and not allowlisted: {knob} = {one[knob]}" for knob in frozen
                 if knob not in KNOB_ALLOWLIST]
    problems += [f"stale knob allowlist entry (two values, exempt, or no such parameter): {k}"
                 for k in sorted(set(KNOB_ALLOWLIST) - set(frozen))]
    problems += [f"reached but no value recorded (a gap in the hook): {knob}" for knob in silent]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
