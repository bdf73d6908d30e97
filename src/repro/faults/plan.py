"""Declarative fault plans: typed specs + schedules, fully deterministic.

A :class:`FaultPlan` is data, not behaviour: a list of :class:`FaultSpec`
entries (what breaks) each carrying a :class:`Schedule` (when it breaks), plus
a plan-level RNG seed and the control plane's failure-detection latency.  The
plan round-trips through JSON (``to_dict``/``from_dict``, and ``load`` of a
file) so it can ride the CLI (``--faults plan.json``), enter the runner's cache key
(:meth:`FaultPlan.plan_hash`), and cross process-pool boundaries.

Nothing here reads the wall clock.  Stochastic schedules are expanded into
concrete down/up windows *once*, at arm time, from a dedicated
``random.Random`` derived from the plan seed — so results are byte-identical
across repeat runs, worker counts, and telemetry on/off (the expansion never
interleaves with simulation-driven draws).

The process-wide *default plan* works like ``repro.probe.installed``:
:func:`set_default_fault_plan` installs a plan that every
subsequently built :class:`~repro.sim.network.Network` arms automatically in
``build_routes()``.  This is how ``--faults`` applies to any experiment
without per-experiment plumbing.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "FAULT_KINDS",
    "SCHEDULE_KINDS",
    "FaultPlan",
    "FaultSpec",
    "Schedule",
    "current_fault_plan",
    "plan_dict",
    "set_default_fault_plan",
]

#: every fault kind an actor exists for (see repro.faults.actors)
FAULT_KINDS: Tuple[str, ...] = ("link_down", "link_degrade")

#: supported schedule shapes
SCHEDULE_KINDS: Tuple[str, ...] = ("oneshot", "flap", "stochastic")


class Schedule:
    """When a fault is active: one-shot, periodic flap, or stochastic process.

    * ``oneshot`` — down at ``at_ns``, cleared ``duration_ns`` later.
    * ``flap`` — ``count`` cycles starting at ``at_ns``: down for
      ``duration_ns``, then up until the next ``period_ns`` boundary
      (``duration_ns < period_ns``).
    * ``stochastic`` — a renewal process from ``at_ns`` to ``until_ns``:
      exponential time-to-failure with mean ``mtbf_ns``, exponential repair
      with mean ``mttr_ns``, drawn from the RNG handed to :meth:`windows`.
    """

    __slots__ = ("kind", "at_ns", "duration_ns", "period_ns", "count", "until_ns", "mtbf_ns", "mttr_ns")

    def __init__(
        self,
        kind: str,
        at_ns: int = 0,
        duration_ns: int = 0,
        period_ns: int = 0,
        count: int = 1,
        until_ns: int = 0,
        mtbf_ns: int = 0,
        mttr_ns: int = 0,
    ):
        if kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {kind!r} (expected one of {SCHEDULE_KINDS})")
        if at_ns < 0:
            raise ValueError("at_ns must be non-negative")
        if kind in ("oneshot", "flap") and duration_ns <= 0:
            raise ValueError(f"{kind} schedule needs a positive duration_ns")
        if kind == "flap":
            if count < 1:
                raise ValueError("flap schedule needs count >= 1")
            if period_ns <= duration_ns:
                raise ValueError("flap needs period_ns > duration_ns (some up-time each cycle)")
        if kind == "stochastic":
            if mtbf_ns <= 0 or mttr_ns <= 0:
                raise ValueError("stochastic schedule needs positive mtbf_ns and mttr_ns")
            if until_ns <= at_ns:
                raise ValueError("stochastic schedule needs until_ns > at_ns")
        self.kind = kind
        self.at_ns = int(at_ns)
        self.duration_ns = int(duration_ns)
        self.period_ns = int(period_ns)
        self.count = int(count)
        self.until_ns = int(until_ns)
        self.mtbf_ns = int(mtbf_ns)
        self.mttr_ns = int(mttr_ns)

    # ------------------------------------------------------------------
    def windows(self, rng: random.Random) -> List[Tuple[int, int]]:
        """Concrete, non-overlapping ``(t_down, t_up)`` windows, sorted.

        ``rng`` is only consulted for ``stochastic`` schedules; expansion
        happens once at arm time so the draw order never depends on traffic.
        """
        if self.kind == "oneshot":
            return [(self.at_ns, self.at_ns + self.duration_ns)]
        if self.kind == "flap":
            return [
                (self.at_ns + i * self.period_ns, self.at_ns + i * self.period_ns + self.duration_ns)
                for i in range(self.count)
            ]
        out: List[Tuple[int, int]] = []
        t = self.at_ns
        while True:
            t += max(1, int(rng.expovariate(1.0 / self.mtbf_ns)))
            if t >= self.until_ns:
                break
            up = min(t + max(1, int(rng.expovariate(1.0 / self.mttr_ns))), self.until_ns)
            out.append((t, up))
            t = up
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d: Dict[str, int] = {"kind": self.kind, "at_ns": self.at_ns}
        if self.kind in ("oneshot", "flap"):
            d["duration_ns"] = self.duration_ns
        if self.kind == "flap":
            d["period_ns"] = self.period_ns
            d["count"] = self.count
        if self.kind == "stochastic":
            d["until_ns"] = self.until_ns
            d["mtbf_ns"] = self.mtbf_ns
            d["mttr_ns"] = self.mttr_ns
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return cls(**d)


class FaultSpec:
    """One fault: what breaks (kind + target) and when (:class:`Schedule`).

    Targets are resolved by *node name* at arm time, so a spec written for
    one topology applies to any fabric using the same names: ``target`` is
    the two endpoint node names of a full-duplex link, e.g.
    ``["tor0", "spine1"]``.

    ``link_degrade`` parameters: ``rate_factor`` scales link capacity (0.5 =
    half rate), ``drop_prob`` corrupts that fraction of packets on the wire,
    ``delay_spike_ns`` adds a uniform ``[0, N]`` per-packet delay (reusing
    the :mod:`repro.noise` uniform model) with FIFO order preserved.
    """

    __slots__ = ("kind", "target", "schedule", "rate_factor", "drop_prob", "delay_spike_ns")

    def __init__(
        self,
        kind: str,
        target: Union[str, Sequence[str]],
        schedule: Schedule,
        rate_factor: float = 1.0,
        drop_prob: float = 0.0,
        delay_spike_ns: int = 0,
    ):
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (expected one of {FAULT_KINDS})")
        if isinstance(target, str) or len(target) != 2:
            raise ValueError(f"{kind} target must be a pair of node names, got {target!r}")
        target = (str(target[0]), str(target[1]))
        if not 0.0 < rate_factor <= 1.0:
            raise ValueError("rate_factor must be in (0, 1]")
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if delay_spike_ns < 0:
            raise ValueError("delay_spike_ns must be non-negative")
        if kind == "link_degrade" and rate_factor == 1.0 and drop_prob == 0.0 and delay_spike_ns == 0:
            raise ValueError("link_degrade with no degradation parameters is a no-op")
        self.kind = kind
        self.target = target
        self.schedule = schedule
        self.rate_factor = float(rate_factor)
        self.drop_prob = float(drop_prob)
        self.delay_spike_ns = int(delay_spike_ns)

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Stable identity used in telemetry events and stats."""
        return f"{self.target[0]}<->{self.target[1]}"

    def to_dict(self) -> dict:
        d: Dict[str, object] = {
            "kind": self.kind,
            "target": list(self.target),
            "schedule": self.schedule.to_dict(),
        }
        if self.kind == "link_degrade":
            d["rate_factor"] = self.rate_factor
            d["drop_prob"] = self.drop_prob
            d["delay_spike_ns"] = self.delay_spike_ns
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        d = dict(d)
        d["schedule"] = Schedule.from_dict(d["schedule"])
        return cls(**d)


class FaultPlan:
    """An ordered list of :class:`FaultSpec` plus plan-wide knobs.

    ``seed`` drives every stochastic draw the subsystem makes (schedule
    expansion, wire corruption, delay spikes) through RNGs derived from it —
    wall-clock time is never consulted.  ``detection_ns`` models the control
    plane: after a topology-affecting fault (and after its repair) routes are
    only rebuilt ``detection_ns`` later, so in-flight traffic blackholes
    realistically in the interim.
    """

    __slots__ = ("specs", "seed", "detection_ns")

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0, detection_ns: int = 50_000):
        if detection_ns < 0:
            raise ValueError("detection_ns must be non-negative")
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self.detection_ns = int(detection_ns)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "detection_ns": self.detection_ns,
            "specs": [s.to_dict() for s in self.specs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(
            specs=[FaultSpec.from_dict(s) for s in d.get("specs", [])],
            seed=d.get("seed", 0),
            detection_ns=d.get("detection_ns", 50_000),
        )

    def canonical(self) -> str:
        """Canonical JSON form — the basis of cache keys and golden pins."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def plan_hash(self) -> str:
        """Short content hash; enters the runner's result-cache key."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def plan_dict(faults: Union[str, FaultPlan, dict, None]) -> Optional[dict]:
    """Canonicalise any accepted faults form into a validated plan dict.

    A path is loaded, a dict is parsed (so a malformed plan fails here, with
    ``ValueError``, not later inside a worker) and everything comes back as
    ``to_dict()`` — the form cache keys, workers and the wire all carry.
    """
    if faults is None:
        return None
    if isinstance(faults, str):
        faults = FaultPlan.load(faults)
    if isinstance(faults, dict):
        try:
            faults = FaultPlan.from_dict(faults)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fault plan: {exc!r}") from exc
    if isinstance(faults, FaultPlan):
        return faults.to_dict()
    raise TypeError(f"faults must be a plan, dict, path or None, got {type(faults).__name__}")


# ----------------------------------------------------------------------
# process-wide default plan, armed by Network.build_routes()
# ----------------------------------------------------------------------
_default_plan: Optional[FaultPlan] = None


def set_default_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` so every subsequently built Network arms it.

    Pass ``None`` to disarm.  As with probe sinks, install *before*
    building topologies — arming happens inside ``Network.build_routes()``.
    """
    global _default_plan
    _default_plan = plan


def current_fault_plan() -> Optional[FaultPlan]:
    """The plan new networks arm, or ``None`` when fault injection is off."""
    return _default_plan
