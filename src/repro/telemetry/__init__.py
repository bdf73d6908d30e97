"""Observability layer: structured event tracing, metrics, trace export.

Quick taste::

    from repro import Simulator, installed
    from repro.telemetry import Recorder, write_perfetto

    rec = Recorder()
    with installed(rec):            # BEFORE building simulators/topologies
        sim = Simulator(seed=1)     # adopts the probe carrying the recorder
        ...build topology, run...
    write_perfetto(rec, "run.json")  # open in ui.perfetto.dev
    print(rec.snapshot()["metrics"]["counters"])

See ``docs/OBSERVABILITY.md`` for the probe events and channel taxonomy.
"""

from .export import JsonlEventStream, to_perfetto, write_events_jsonl, write_perfetto
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import CHANNELS, Recorder, current_recorder

__all__ = [
    "CHANNELS",
    "Recorder",
    "current_recorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "JsonlEventStream",
    "to_perfetto",
    "write_perfetto",
    "write_events_jsonl",
]
