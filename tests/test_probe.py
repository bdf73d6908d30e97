"""The one instrumentation seam (repro.probe).

Pins what every consumer of the seam relies on:

* the dependency points sinks -> probe <- core (import boundary), and
  ``runner/`` names no figure module;
* the engine's per-dispatch hook is selected apart from ``probe.on``, and the
  profiler contract ``benchmarks/perf/tracing.py`` builds on holds;
* snapshot-at-construction: a simulator keeps the probe it was built with,
  and a deep copy of an uninstrumented one shares the inert probe;
* zero feedback, for every sink set at once: results are byte-identical
  whatever is installed (the per-subsystem copies of this test used to live
  in test_telemetry / test_audit / test_obs);
* runner workers start inert whatever the parent had installed.
"""

from __future__ import annotations

import ast
import copy
import importlib.util
import pathlib

import pytest

import repro
from repro import probe
from repro.audit import Auditor
from repro.experiments.registry import FunctionExperiment
from repro.experiments.quickstart import run_quickstart
from repro.obs import (
    ChannelInspector,
    PacketTracer,
    TimeSeriesSampler,
    profile_scope,
)
from repro.obs.profiler import current_profiler
from repro.probe import INERT, Probe, installed
from repro.runner import run_experiment
from repro.sim.engine import Simulator
from repro.telemetry import Recorder

from tests.golden_battery import OBS, canonical, deaf, pfc_incast, run
from tests.hybrid_twins import HYBRID_WORLDS

SRC = pathlib.Path(repro.__file__).parent


# ----------------------------------------------------------------------
# (a) import boundary: the core never imports a sink package
# ----------------------------------------------------------------------
def _imported_modules(path: pathlib.Path):
    """Absolute dotted names of everything ``path`` imports."""
    package = ("repro",) + path.relative_to(SRC).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield module
            for alias in node.names:  # ``from .. import telemetry``
                yield f"{module}.{alias.name}"


def test_core_imports_no_sink_package():
    sinks = ("repro.telemetry", "repro.audit", "repro.obs")
    offenders = []
    for layer in ("sim", "transport", "core", "cc", "fluid"):
        for path in sorted((SRC / layer).rglob("*.py")):
            for module in _imported_modules(path):
                if module.startswith(sinks):
                    offenders.append(f"{path.relative_to(SRC)} imports {module}")
    assert not offenders, offenders


def test_src_never_imports_numpy():
    """``src/repro`` is stdlib-only.  numpy lives in ``tests/fluid_reference.py``
    (the solver oracle) and nowhere under ``src``; the dynamic half is
    ``tests/test_fluid.py::test_hybrid_world_runs_with_numpy_blocked``."""
    offenders = [
        f"{path.relative_to(SRC)} imports {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in _imported_modules(path)
        if module.split(".")[0] == "numpy"
    ]
    assert not offenders, offenders


def test_runner_imports_no_figure_module():
    """The dispatch layer runs experiments; it never names one.

    The only door from ``runner/``, ``serve/``, ``api.py`` and
    ``client.py`` into ``repro.experiments`` is ``registry`` (the
    FunctionExperiment / Point types and REGISTRY).  Importing a figure module is
    how a timing harness would grow back inside ``src/repro``; speed is
    measured in ``benchmarks/perf``.
    """
    allowed = ("repro.experiments", "repro.experiments.registry")
    paths = sorted((SRC / "runner").rglob("*.py")) + sorted((SRC / "serve").rglob("*.py"))
    paths += [SRC / "api.py", SRC / "client.py"]
    offenders = []
    for path in paths:
        for module in _imported_modules(path):
            if module.startswith("repro.experiments") and not (
                module in allowed or module.startswith("repro.experiments.registry.")
            ):
                offenders.append(f"{path.relative_to(SRC)} imports {module}")
    assert not offenders, offenders


def test_registry_imports_nothing_from_repro():
    """Naming an experiment must not drag in the simulator."""
    imported = list(_imported_modules(SRC / "experiments" / "registry.py"))
    assert not [m for m in imported if m.startswith("repro")], imported


def test_common_is_only_the_ledgers_import_surface():
    """``experiments/common.py`` re-exports for the frozen ``benchmarks/perf``;
    nothing under ``src/repro`` imports it, and every name it offers is the
    very object its home module defines (so the ledger's patches of
    ``common.launch_specs`` / ``common.FlowAdmitter._on_done`` land on the
    code the experiments run)."""
    importers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "experiments" / "common.py"
        and any(m.startswith("repro.experiments.common") for m in _imported_modules(path))
    ]
    assert not importers, importers

    from repro.experiments import common, launch, modes, registry

    homes = (launch, modes, registry)
    for name in common.__all__:
        owners = [home for home in homes if name in home.__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(common, name) is getattr(owners[0], name), name
    ledger_uses = {
        "CCFactory", "Mode", "REGISTRY", "FunctionExperiment",
        "launch_specs", "run_until_flows_done", "FlowAdmitter", "run_admitter",
    }
    assert ledger_uses == set(common.__all__)


def test_registry_holds_the_only_experiment_class():
    """Experiments are declared as ``FunctionExperiment(name, {point: (fn,
    kwargs)})`` data, anywhere in the package; a subclass of it (or of a
    base grown back above it) is how eleven ways to say one shape grew last
    time."""
    subclasses = [
        f"{path.relative_to(SRC)}: {node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any("Experiment" in ast.unparse(base) for base in node.bases)
    ]
    assert subclasses == [], subclasses


def test_no_builtin_hash_where_results_are_made():
    """``hash()`` of a str is salted per process (``PYTHONHASHSEED``): a result
    computed from it differs between a serial run and a worker, and a cached
    entry stops being the result of its key."""
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for layer in ("experiments", "workloads", "mlsim")
        for path in sorted((SRC / layer).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    ]
    assert not offenders, offenders


#: public names (top-level, or ``Class.method`` for a public method or
#: property of a public class) that nothing outside tests/ calls, by module,
#: and why each stays; the list only shrinks (a stale entry fails too)
_NO_CALLER_YET = {
    # the facade's local-cache inspection (docs/API.md)
    "api.py": {"cache_info"},
    # the in-process daemon the serve tests boot; leaves with the serve
    # cut (ROADMAP item 12)
    "serve/server.py": {"BackgroundServer"},
}


def _identifiers(tree, skip=()) -> set:
    """Every name ``tree`` mentions outside the nodes in ``skip``: as a name,
    an attribute, an import, or a string equal to it (``getattr`` dispatch,
    or a patch by name as the perf ledger's tracer wraps ``Port.kick``).
    ``__all__`` lists export, they do not call."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _outside_tests() -> dict:
    """Path -> parsed module of the code that may call a public name: ``src/``
    (package re-exports do not count), ``scripts/``, ``examples/`` and
    ``benchmarks/``."""
    root = SRC.parents[1]
    return {
        path: ast.parse(path.read_text())
        for top in ("src", "scripts", "examples", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
        if not (top == "src" and path.name == "__init__.py")
    }


def _fixpoint(users: dict) -> set:
    """The keys whose every user is itself such a key (``None``, a caller
    that is not a candidate, never is)."""
    uncalled = set()
    while True:
        more = {key for key, by in users.items() if key not in uncalled and by <= uncalled}
        if not more:
            return uncalled
        uncalled |= more


def _uncalled_public_names(trees) -> set:
    """``module::name`` of every public top-level def or class under
    ``src/repro`` that no code outside ``tests/`` reaches, nor its own
    module's code other than uncalled names."""
    outside = {path: _identifiers(tree) for path, tree in trees.items()}
    # candidate -> its own module's top-level statements that name it, as
    # their def/class name (None: a module-level statement, which is a caller)
    owners = {}
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        tops = [(getattr(node, "name", None), _identifiers(node)) for node in tree.body]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if any(node.name in ids for other, ids in outside.items() if other != path):
                continue
            module = str(path.relative_to(SRC))
            owners[f"{module}::{node.name}"] = {
                None if name is None else f"{module}::{name}"
                for name, ids in tops
                if name != node.name and node.name in ids
            }
    return _fixpoint(owners)


def _uncalled_public_methods(trees) -> set:
    """``module::Class.method`` of every public method or property of a
    public class under ``src/repro`` whose name no code outside ``tests/``
    mentions, other than its own definitions and uncalled methods.  By name,
    not by type: every method of one name shares that name's callers."""
    defs = {}  # key -> its def nodes (a property's setter shares its key)
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    key = f"{path.relative_to(SRC)}::{cls.name}.{node.name}"
                    defs.setdefault(key, []).append(node)
    bodies = {node for nodes in defs.values() for node in nodes}
    free = set().union(*(_identifiers(tree, skip=bodies) for tree in trees.values()))
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rpartition(".")[2], []).append(key)
    # method -> the methods whose bodies name it (None: any other code)
    users = {key: {None} if key.rpartition(".")[2] in free else set() for key in defs}
    for key, nodes in defs.items():
        for name in set().union(*map(_identifiers, nodes)) & by_name.keys():
            for other in by_name[name]:
                if other != key:
                    users[other].add(key)
    return _fixpoint(users)


def test_every_public_name_has_a_caller():
    """A public function, class, method or property exists because a
    workload, script, example or benchmark runs it.  Code only tests call is
    how TIMELY, PowerTCP and a trace format nothing loaded grew: a new one
    fails here, as does an allowlist entry that has been cut or gained a
    caller."""
    trees = _outside_tests()
    uncalled = _uncalled_public_names(trees) | _uncalled_public_methods(trees)
    allowed = {f"{module}::{name}" for module, names in _NO_CALLER_YET.items() for name in names}
    assert sorted(uncalled - allowed) == [], "no caller outside tests/"
    assert sorted(allowed - uncalled) == [], "stale _NO_CALLER_YET entry"


def _reach_census():
    path = SRC.parents[1] / "scripts" / "reach_census.py"
    spec = importlib.util.spec_from_file_location("_reach_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_every_reach_census_allowlist_entry_names_a_function():
    """``scripts/reach_census.py`` runs every root hooked (~15 min, CI
    ``reach-census``); its allowlist is checked here with no root run, so a
    rename or a cut that leaves an entry behind fails in seconds."""
    census = _reach_census()
    names = set(census.named_functions().values())
    assert sorted(set(census.ALLOWLIST) - names) == [], "allowlist entry naming no function"
    assert [name for name, why in census.ALLOWLIST.items() if not why.strip()] == []


def test_every_knob_allowlist_entry_names_a_defaulted_parameter():
    """The census's knob half keeps a default that every run passes one
    value only by ``KNOB_ALLOWLIST``; a renamed or cut parameter, or an
    entry with no reason, fails here without running a root."""
    census = _reach_census()
    knobs = {f"{fn}({p})" for fn, params in census.defaulted_params().items() for p in params}
    assert sorted(set(census.KNOB_ALLOWLIST) - knobs) == [], "entry naming no defaulted parameter"
    assert [name for name, why in census.KNOB_ALLOWLIST.items() if not why.strip()] == []


# ----------------------------------------------------------------------
# subscription: a sink is whatever defines a method named after an event
# ----------------------------------------------------------------------
def _emitted_events():
    """Names called on a probe (``p.x(...)``, ``probe.x(...)``,
    ``self.probe.x(...)``) anywhere under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id in ("p", "probe")) or (
                isinstance(owner, ast.Attribute) and owner.attr == "probe"
            ):
                yield node.func.attr


def test_every_event_has_an_emit_site_and_an_in_tree_handler():
    """A fold that leaves an event behind leaves it dead: no site emits it,
    or no sink shipped with the package hears it."""
    sinks = (Recorder, Auditor, PacketTracer, ChannelInspector, TimeSeriesSampler)
    emitted = set(_emitted_events())
    assert [e for e in probe.EVENTS if e not in emitted] == []
    assert [e for e in probe.EVENTS if not any(hasattr(s, e) for s in sinks)] == []


def test_probe_binds_events_to_subscribers_in_install_order():
    calls = []

    class Links:
        def link(self, t, port, busy):
            calls.append(("a", t, port, busy))

    class AlsoLinks:
        def link(self, t, port, busy):
            calls.append(("b", t, port, busy))

        def rto(self, t, sender):
            calls.append(("rto", t))

    a, b = Links(), AlsoLinks()
    p = Probe([a, b])
    assert p.on and p.sinks == (a, b)
    p.link(5, "sw.p0", True)
    p.rto(6, None)
    p.pause(7, "sw.p0", 0, True)  # nobody listens: a no-op, not an error
    assert calls == [("a", 5, "sw.p0", True), ("b", 5, "sw.p0", True), ("rto", 6)]
    assert p.rto == b.rto  # a lone subscriber is called directly, no fan-out


def test_probe_rejects_a_sink_attribute_shadowing_an_event():
    class Bad:
        link = "not callable"

    with pytest.raises(TypeError, match="shadows probe event 'link'"):
        Probe([Bad()])


def test_installed_composes_and_replaces_same_type():
    rec, trc1, trc2 = Recorder(), PacketTracer(), PacketTracer()
    with installed(rec, trc1) as outer:
        assert probe.active is outer and outer.sinks == (rec, trc1)
        with installed(trc2) as inner:  # two tracers would fight over pkt.trace
            assert inner.sinks == (rec, trc2)
        assert probe.active is outer
    assert probe.active is INERT
    with installed() as same:  # nothing to add: the inert singleton stays
        assert same is INERT


# ----------------------------------------------------------------------
# (b) + (c) the profiler contract benchmarks/perf/tracing.py relies on
# ----------------------------------------------------------------------
def test_profile_scope_record_rebound_after_entry_sees_every_dispatch():
    assert current_profiler() is None
    seen = []
    with profile_scope() as prof:
        assert current_profiler() is prof
        prof.record = lambda fn, dt: seen.append((fn, dt))  # after entry, before Simulator()
        sim = Simulator(1)
        fired = []
        for i in range(7):
            sim.call_at(10 * i, fired.append, i)
        doomed = sim.at(35, fired.append, "cancelled")
        sim.at(36, fired.append, "handle")
        doomed.cancel()
        sim.run(until=40)
        sim.run()
    assert current_profiler() is None
    assert len(seen) == sim.events_processed == 8
    assert all(callable(fn) and dt >= 0.0 for fn, dt in seen)
    assert prof.events == 0  # the replacement, not the class method, was called


def test_profiler_alone_keeps_site_hooks_cold():
    with profile_scope():
        sim = Simulator(1)
    assert sim.probe.sinks and not sim.probe.on
    assert sim.probe.dispatch_hook(sim) is not None
    with installed(Recorder()):
        sim = Simulator(1)
    assert sim.probe.on and sim.probe.dispatch_hook(sim) is None


def test_ledger_tracer_targets_resolve():
    """Every entry point the ledger's tracer patches is where it looks.

    ``benchmarks/perf/tracing.py`` (frozen between benchmark PRs; loaded here
    by path, read-only) takes ``vars(owner)[attr]`` on a class, so a rename —
    or a method moved to a base class — crashes ``--trace 1`` before it
    prints a result.  This fails first.
    """
    path = SRC.parents[1] / "benchmarks" / "perf" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_ledger_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets, _ = tracing._targets()
    assert len(targets) > 20
    missing = []
    for owner, attr, layer in targets:
        try:
            found = tracing._raw(owner, attr)
        except (KeyError, AttributeError):
            found = None
        if not callable(getattr(found, "__func__", found)) or layer not in tracing.LAYERS:
            missing.append((getattr(owner, "__name__", owner), attr, layer))
    assert not missing, missing


# ----------------------------------------------------------------------
# (d) snapshot-at-construction
# ----------------------------------------------------------------------
def test_simulator_keeps_its_probe_after_the_scope_exits():
    rec = Recorder()
    with installed(rec) as live:
        sim = Simulator(1)
    assert probe.active is INERT
    assert sim.probe is live
    late = Simulator(1)
    assert late.probe is INERT
    assert copy.deepcopy(late).probe is INERT  # a world copy shares the inert probe
    for s in (sim, late):
        s.at(10, lambda: None)
        s.run()
    assert rec.metrics.counter("sim.events").value == 1  # only the early sim reports


# ----------------------------------------------------------------------
# zero feedback: byte-identical results whatever is installed
# ----------------------------------------------------------------------
#: a cheap core battery (PrioPlus probing; PFC pause/resume) and the three
#: cheap hybrid golden worlds (fluid entries withdraw packets in flight and
#: exits hand flows back)
_MINI = {
    "core": {
        "quickstart": lambda: run_quickstart(low_bytes=300_000, high_bytes=100_000),
        "pfc_incast": pfc_incast,
    },
    "hybrid": {name: HYBRID_WORLDS[name] for name in ("star", "midscale", "midscale_contended")},
}

_KINDS = {
    "recorder": ("record",),
    "auditor": ("strict",),
    "obs": OBS,
    "all": ("record", "strict") + OBS,
}


@pytest.mark.parametrize(
    "kinds, battery",
    [pytest.param(kinds, "core", id=name) for name, kinds in _KINDS.items()]
    + [pytest.param(kinds, "hybrid", id=f"hybrid-{name}") for name, kinds in _KINDS.items()],
)
def test_results_byte_identical_with_sinks(kinds, battery):
    """The golden harness's sinks, installed and finalized its one way: no
    result moves, the audit is clean and every sink heard the run."""
    plain, _ = run(_MINI[battery])
    instrumented, heard = run(_MINI[battery], kinds)
    assert canonical(instrumented) == canonical(plain)
    assert deaf(battery, heard) == []


# ----------------------------------------------------------------------
# runner workers start inert (worker_init used to reset five of six defaults)
# ----------------------------------------------------------------------
def _report_worker_probe(seed=0):
    return {
        "active_is_inert": probe.active is INERT,
        "sim_sinks": [type(s).__name__ for s in Simulator(seed).probe.sinks],
    }


def test_worker_under_live_recorder_and_auditor_adopts_inert_probe():
    exp = FunctionExperiment("probe-in-worker", {"p": (_report_worker_probe, {"seed": 0})})
    with installed(Recorder(), Auditor("warn")):
        assert _report_worker_probe()["sim_sinks"] == ["Recorder", "Auditor"]
        result = run_experiment(exp, jobs=2)  # one point, executed in a forked worker
    assert result == {"active_is_inert": True, "sim_sinks": []}
