"""Fault injector: schedules a plan's windows onto one simulator.

:meth:`FaultInjector.arm` does all the nondeterminism-sensitive work up
front: targets are resolved to actors, every schedule is expanded into
concrete ``(t_down, t_up)`` windows from a dedicated ``random.Random``
seeded by the plan, and plain allocation-free engine events
(``Simulator.call_at``) are queued for each edge.  After arming, the only
RNG the subsystem touches during the run is the per-spec impairment RNG,
which is driven by packet transmissions — deterministic in the event order.

Reconvergence model: route-affecting edges (``link_down``, both inject
*and* clear) do **not** rebuild routes immediately.  The control plane
notices ``plan.detection_ns`` later and only then calls
``Network.rebuild_routes()`` (which also flushes the switches' memoised ECMP
picks), so traffic blackholes into the failed element for the detection
window, exactly as in a real fabric.  Each rebuild emits a
``reconverge`` telemetry event on the ``fault`` channel.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .actors import build_actor
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class _Armed:
    """One spec bound to its actor and expanded windows."""

    __slots__ = ("spec", "actor", "windows")

    def __init__(self, spec, actor, windows):
        self.spec = spec
        self.actor = actor
        self.windows: List[Tuple[int, int]] = windows


class FaultInjector:
    """Applies one :class:`~repro.faults.plan.FaultPlan` to one network."""

    def __init__(self, sim, net, plan: FaultPlan):
        self.sim = sim
        self.net = net
        self.plan = plan
        self.armed: List[_Armed] = []
        self._is_armed = False
        #: pending route rebuilds (coalesces back-to-back detections)
        self._reconverge_due = 0
        self.injected = 0
        self.cleared = 0
        self.reconverges = 0
        self.dropped_at_inject = 0

    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Resolve targets, expand schedules, queue every fault edge.

        Idempotent; returns ``self`` for chaining.  Each spec gets its own
        derived RNG (plan seed + spec index) for schedule expansion and any
        wire impairment, so adding a spec never shifts another's draws.
        """
        if self._is_armed:
            return self
        self._is_armed = True
        sim = self.sim
        for i, spec in enumerate(self.plan.specs):
            rng = random.Random(self.plan.seed * 1_000_003 + i)
            actor = build_actor(self.net, spec, rng)
            windows = spec.schedule.windows(rng)
            entry = _Armed(spec, actor, windows)
            self.armed.append(entry)
            for t_down, t_up in windows:
                sim.call_at(t_down, self._inject, entry)
                sim.call_at(t_up, self._clear, entry)
        return self

    # ------------------------------------------------------------------
    def _inject(self, entry: _Armed) -> None:
        dropped = entry.actor.inject()
        self.injected += 1
        self.dropped_at_inject += dropped
        p = self.sim.probe
        if p.on:
            p.fault(self.sim.now, entry.spec.kind, entry.spec.label(), "inject")
        if entry.actor.reroutes:
            self._schedule_reconverge()

    def _clear(self, entry: _Armed) -> None:
        entry.actor.clear()
        self.cleared += 1
        p = self.sim.probe
        if p.on:
            p.fault(self.sim.now, entry.spec.kind, entry.spec.label(), "clear")
        if entry.actor.reroutes:
            self._schedule_reconverge()

    def _schedule_reconverge(self) -> None:
        """Route rebuild after detection latency, coalescing duplicates.

        Multiple edges inside one detection window produce one rebuild at
        the *latest* due time — the control plane converges on the final
        topology, not on every intermediate one.
        """
        due = self.sim.now + self.plan.detection_ns
        self._reconverge_due = due
        self.sim.call_at(due, self._reconverge, due)

    def _reconverge(self, due: int) -> None:
        if due != self._reconverge_due:
            return  # superseded by a later edge inside the detection window
        self.net.rebuild_routes()
        self.reconverges += 1
        p = self.sim.probe
        if p.on:
            p.fault(self.sim.now, "routes", "fabric", "reconverge")

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Summary safe to embed in experiment results (JSON-stable)."""
        corrupted = delayed = 0
        for entry in self.armed:
            for imp in getattr(entry.actor, "impairments", ()):
                corrupted += imp.corrupted
                delayed += imp.delayed
        return {
            "plan_hash": self.plan.plan_hash(),
            "windows": sum(len(e.windows) for e in self.armed),
            "injected": self.injected,
            "cleared": self.cleared,
            "reconverges": self.reconverges,
            "dropped_at_inject": self.dropped_at_inject,
            "wire_corrupted": corrupted,
            "wire_delayed": delayed,
        }
