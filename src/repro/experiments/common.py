"""The import surface ``benchmarks/perf`` was frozen against — nothing lives here.

The experiment machinery is in :mod:`.registry` (``Point`` /
``FunctionExperiment`` / ``REGISTRY``), :mod:`.modes` (``Mode`` /
``CCFactory``), :mod:`.launch` (binder, admission, drive loop) and
:mod:`.samplers`; no module under
``src/repro`` imports this one.  It stays because the perf ledger may not
change between benchmark PRs and reaches the layer by this path: it imports
``CCFactory``, ``Mode``, ``REGISTRY`` and ``FunctionExperiment`` from here,
calls ``common.launch_specs`` / ``run_until_flows_done`` / ``FlowAdmitter`` /
``run_admitter`` through it, and ``benchmarks/perf/tracing._targets()``
patches ``common.launch_specs`` and ``common.FlowAdmitter._on_done`` on it —
the same arrangement as ``runner/bench_core.calibrate``.  It offers exactly
those eight names, each the same object as in its home module (pinned by
``tests/test_probe.py``).
"""

from .launch import FlowAdmitter, launch_specs, run_admitter, run_until_flows_done
from .modes import CCFactory, Mode
from .registry import REGISTRY, FunctionExperiment

__all__ = [
    "CCFactory",
    "Mode",
    "REGISTRY",
    "FunctionExperiment",
    "launch_specs",
    "run_until_flows_done",
    "FlowAdmitter",
    "run_admitter",
]
