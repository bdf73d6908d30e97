"""Time-series probes of the micro-benchmark figures.

:class:`RateSampler` / :class:`DelaySampler` schedule their own tick events,
so results (and goldens) depend on them being attached.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..sim.engine import MICROSECOND, Simulator
from ..transport.sender import FlowSender

__all__ = ["RateSampler", "DelaySampler"]


class RateSampler:
    """Periodic goodput samples, grouped by a key function over senders."""

    def __init__(
        self,
        sim: Simulator,
        senders: Sequence[FlowSender],
        key: Callable[[FlowSender], object],
        interval_ns: int = 100 * MICROSECOND,
    ):
        self.sim = sim
        self.senders = list(senders)
        self.key = key
        self.interval_ns = interval_ns
        self._last: Dict[int, int] = {id(s): 0 for s in self.senders}
        #: key -> list of (time_ns, rate_bps)
        self.series: Dict[object, List[Tuple[int, float]]] = {}
        sim.after(interval_ns, self._tick)

    def _tick(self) -> None:
        per_key: Dict[object, int] = {}
        for s in self.senders:
            delta = s.acked_payload - self._last[id(s)]
            self._last[id(s)] = s.acked_payload
            k = self.key(s)
            per_key[k] = per_key.get(k, 0) + delta
        t = self.sim.now
        for k, delta in per_key.items():
            rate = delta * 8e9 / self.interval_ns
            self.series.setdefault(k, []).append((t, rate))
        self.sim.after(self.interval_ns, self._tick)

    def average_rate_bps(self, key: object, t_from: int = 0, t_to: int = 1 << 62) -> float:
        points = [r for (t, r) in self.series.get(key, []) if t_from <= t <= t_to]
        return sum(points) / len(points) if points else 0.0


class DelaySampler:
    """Periodic samples of a sender's most recent delay measurement."""

    def __init__(self, sim: Simulator, sender: FlowSender, interval_ns: int = 10 * MICROSECOND):
        self.sim = sim
        self.sender = sender
        self.interval_ns = interval_ns
        self.series: List[Tuple[int, int]] = []
        sim.after(interval_ns, self._tick)

    def _tick(self) -> None:
        self.series.append((self.sim.now, self.sender.last_rtt))
        self.sim.after(self.interval_ns, self._tick)

    def values(self, t_from: int = 0, t_to: int = 1 << 62) -> List[int]:
        return [d for (t, d) in self.series if t_from <= t <= t_to]
