"""The import surface ``benchmarks/perf`` was frozen against — nothing lives here.

The experiment machinery is in :mod:`.registry` (``Point`` / ``Experiment`` /
``REGISTRY``), :mod:`.modes` (``Mode`` / ``CCFactory``), :mod:`.launch`
(binder, admission, drive loop) and :mod:`.samplers`; no module under
``src/repro`` imports this one.  It stays because the perf ledger may not
change between benchmark PRs and reaches the layer by this path: it imports
``CCFactory``, ``Mode``, ``REGISTRY`` and ``FunctionExperiment`` from here,
calls ``common.launch_specs`` / ``run_until_flows_done`` / ``FlowAdmitter`` /
``run_admitter`` through it, and ``benchmarks/perf/tracing._targets()``
patches ``common.launch_specs`` and ``common.FlowAdmitter._on_done`` on it —
the same arrangement as ``runner/bench_core.calibrate``.  Every name is the
same object as in its home module (pinned by ``tests/test_probe.py``).
"""

from .launch import (
    FlowAdmitter,
    bind_flow,
    launch_specs,
    run_admitter,
    run_until,
    run_until_flows_done,
)
from .modes import CCFactory, Mode
from .registry import (
    REGISTRY,
    Experiment,
    ExperimentRegistry,
    FunctionExperiment,
    Point,
    experiment_names,
    get_experiment,
    register,
)
from .samplers import DelaySampler, RateSampler

__all__ = [
    "Mode",
    "CCFactory",
    "launch_specs",
    "FlowAdmitter",
    "run_admitter",
    "RateSampler",
    "DelaySampler",
    "run_until_flows_done",
    "Point",
    "Experiment",
    "FunctionExperiment",
    "ExperimentRegistry",
    "REGISTRY",
    "register",
    "get_experiment",
    "experiment_names",
    "bind_flow",
    "run_until",
]
