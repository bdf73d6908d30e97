"""Observability layer: structured event channels, metrics, trace writers.

Quick taste::

    from repro import Simulator, installed
    from repro.telemetry import PerfettoWriter, Recorder

    rec = Recorder(PerfettoWriter("run.json"))   # open in ui.perfetto.dev
    with installed(rec):            # BEFORE building simulators/topologies
        sim = Simulator(seed=1)     # adopts the probe carrying the recorder
        ...build topology, run...
    rec.close()                     # ends open spans, closes the file
    print(rec.snapshot()["metrics"]["counters"])

See ``docs/OBSERVABILITY.md`` for the probe events and channel taxonomy.
"""

from .export import JsonlWriter, PerfettoWriter
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import CHANNEL_FIELDS, CHANNELS, Recorder, current_recorder

__all__ = [
    "CHANNELS",
    "CHANNEL_FIELDS",
    "Recorder",
    "current_recorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "JsonlWriter",
    "PerfettoWriter",
]
