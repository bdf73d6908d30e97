"""Engine self-profiler: wall-time and event counts per callback.

A :mod:`repro.probe` sink that subscribes to no site event, only to the
engine's dispatch hook: every event dispatch is wrapped in a
``perf_counter()`` pair and the elapsed wall time attributed to the
callback's qualified name (``Port._tx_wake``, ``FlowSender._send_seq``, ...).
The result is a cheap flat profile of where a run's real time goes —
answering "which event type dominates?" without an external profiler.

Wall-clock measurements obviously differ run to run, but the profiler never
touches virtual time, the event queue, or the RNG, so simulation *results*
stay byte-identical (golden battery ``--obs profile``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from ..probe import current, installed

__all__ = ["EngineProfiler", "current_profiler", "profile_scope"]


class EngineProfiler:
    """Accumulates per-callback event counts and wall time."""

    def __init__(self):
        #: qualname -> [count, total_seconds]
        self.stats: Dict[str, List[float]] = {}
        self.events = 0
        self.wall_s = 0.0
        self.finalized = False

    def record(self, fn, dt: float) -> None:
        """Attribute one dispatched event taking ``dt`` seconds to ``fn``."""
        name = getattr(fn, "__qualname__", None) or repr(fn)
        cell = self.stats.get(name)
        if cell is None:
            cell = self.stats[name] = [0, 0.0]
        cell[0] += 1
        cell[1] += dt
        self.events += 1
        self.wall_s += dt

    def finalize(self) -> None:
        """Idempotent; exists for symmetry with the other obs subsystems."""
        self.finalized = True

    def snapshot(self) -> dict:
        """JSON-safe profile, callbacks sorted by name for stable diffs."""
        callbacks = {}
        for name in sorted(self.stats):
            count, total = self.stats[name]
            callbacks[name] = {
                "count": count,
                "wall_s": total,
                "mean_us": (total / count * 1e6) if count else 0.0,
            }
        return {
            "callbacks": callbacks,
            "events": self.events,
            "wall_s": self.wall_s,
        }


def current_profiler() -> Optional[EngineProfiler]:
    """The installed :class:`EngineProfiler`, or ``None`` when off."""
    return current(EngineProfiler)


@contextmanager
def profile_scope(**kwargs):
    """Install a fresh :class:`EngineProfiler` for the ``with`` block."""
    prof = EngineProfiler(**kwargs)
    try:
        with installed(prof):
            yield prof
    finally:
        prof.finalize()
