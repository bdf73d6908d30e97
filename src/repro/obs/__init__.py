"""Introspection layer: packet tracing, channel inspection, sampling, profiling.

Four :mod:`repro.probe` sinks, installed with ``repro.probe.installed``
*before* simulators are built, and none feeding back into simulation results:

* :mod:`repro.obs.tracer` — causal packet tracing with per-hop latency
  breakdown (queueing vs PFC pause vs serialization vs propagation),
* :mod:`repro.obs.inspector` — PrioPlus state-machine transcript, channel
  occupancy and virtual-priority-inversion detection,
* :mod:`repro.obs.sampler` — fixed-stride time series of queue depths,
  buffer occupancy and per-flow rates into bounded ring buffers,
* :mod:`repro.obs.profiler` — wall-time/event-count attribution per engine
  callback.

``repro.obs.report`` aggregates runner results, samples and traces into a
static HTML dashboard (``python -m repro report``).
"""

from .inspector import ChannelInspector
from .profiler import EngineProfiler, current_profiler, profile_scope
from .sampler import TimeSeriesSampler
from .tracer import HopRecord, PacketTrace, PacketTracer

__all__ = [
    "ChannelInspector",
    "EngineProfiler",
    "HopRecord",
    "PacketTrace",
    "PacketTracer",
    "TimeSeriesSampler",
    "current_profiler",
    "profile_scope",
]
