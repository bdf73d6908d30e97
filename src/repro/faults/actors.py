"""Fault actors: the mutations a :class:`~repro.faults.plan.FaultSpec` makes.

Each actor owns one target and exposes ``inject()`` / ``clear()`` plus a
``reroutes`` flag telling the injector whether the control plane must
rebuild routes after the event (after detection latency).  Actors are built
once at arm time — name resolution and port lookup happen there, so a typo
in a plan fails fast instead of mid-simulation.

:class:`LinkImpairment` is the wire-level half of ``link_degrade``: installed
on ``Port.impairment`` (one per direction, keeping per-direction FIFO state),
it sees every packet at transmit time and may corrupt it (``drop_prob``) or
delay it (uniform spike via :class:`repro.noise.UniformNoise`).  Delivery
times are clamped monotonically per direction so a degraded link never
reorders — it is still one piece of fibre.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..noise import UniformNoise

__all__ = [
    "FaultActor",
    "LinkDegradeActor",
    "LinkDownActor",
    "LinkImpairment",
    "build_actor",
]


class LinkImpairment:
    """Per-direction wire impairment installed on ``Port.impairment``.

    ``transmit(t2)`` is called by the port for every packet with the nominal
    delivery time and returns the actual one — or a negative value, meaning
    the packet was corrupted on the wire (the port releases it; serialisation
    time was still consumed, as on a real link).
    """

    __slots__ = ("rng", "drop_prob", "noise", "_last_delivery", "corrupted", "delayed")

    def __init__(self, rng: random.Random, drop_prob: float, delay_spike_ns: int):
        self.rng = rng
        self.drop_prob = drop_prob
        self.noise = UniformNoise(delay_spike_ns) if delay_spike_ns > 0 else None
        self._last_delivery = 0
        self.corrupted = 0
        self.delayed = 0

    def transmit(self, t2: int) -> int:
        if self.drop_prob > 0.0 and self.rng.random() < self.drop_prob:
            self.corrupted += 1
            return -1
        if self.noise is not None:
            spike = self.noise.sample(self.rng)
            if spike:
                self.delayed += 1
                t2 += spike
        # FIFO wire: a later transmission never overtakes an earlier one
        if t2 < self._last_delivery:
            t2 = self._last_delivery
        self._last_delivery = t2
        return t2


class FaultActor:
    """Base: one target, symmetric inject/clear, optional route impact."""

    #: does the control plane need to rebuild routes after inject/clear?
    reroutes = False

    def inject(self) -> int:
        """Apply the fault; returns packets dropped at the instant (or 0)."""
        raise NotImplementedError

    def clear(self) -> int:
        """Undo the fault; returns packets dropped at the instant (or 0)."""
        raise NotImplementedError


class LinkDownActor(FaultActor):
    """Binary fibre cut of a full-duplex link (both directions)."""

    reroutes = True

    def __init__(self, net, a, b):
        self.net = net
        self.a = a
        self.b = b

    def inject(self) -> int:
        return self.net.set_link_state(self.a, self.b, up=False)

    def clear(self) -> int:
        return self.net.set_link_state(self.a, self.b, up=True)


class LinkDegradeActor(FaultActor):
    """Rate scaling + wire corruption + delay spikes on one link.

    The link stays up (routes unchanged), it just gets worse: both
    directions' serialisation rate is scaled by ``rate_factor`` (the port's
    ``ns_per_byte`` setter invalidates its memoised tx times) and a
    :class:`LinkImpairment` is installed per direction.  Both directions
    share one RNG — draws interleave in deterministic event order.
    """

    def __init__(
        self,
        ports,
        rate_factor: float,
        drop_prob: float,
        delay_spike_ns: int,
        rng: random.Random,
    ):
        self.ports = list(ports)
        self.rate_factor = rate_factor
        self.drop_prob = drop_prob
        self.delay_spike_ns = delay_spike_ns
        self.rng = rng
        self._base_ns_per_byte: List[float] = []
        self.impairments: List[LinkImpairment] = []

    def inject(self) -> int:
        self._base_ns_per_byte = [p.ns_per_byte for p in self.ports]
        self.impairments = []
        for port in self.ports:
            if self.rate_factor < 1.0:
                port.ns_per_byte = port.ns_per_byte / self.rate_factor
            if self.drop_prob > 0.0 or self.delay_spike_ns > 0:
                imp = LinkImpairment(self.rng, self.drop_prob, self.delay_spike_ns)
                port.impairment = imp
                self.impairments.append(imp)
        return 0

    def clear(self) -> int:
        for port, base in zip(self.ports, self._base_ns_per_byte):
            port.ns_per_byte = base
            port.impairment = None
        return 0


# ----------------------------------------------------------------------
def build_actor(net, spec, rng: random.Random) -> FaultActor:
    """Resolve ``spec``'s target against ``net`` and build its actor.

    Raises ``ValueError`` for unknown node names or a missing link, at arm
    time rather than mid-run.
    """
    a = _node_by_name(net, spec.target[0])
    b = _node_by_name(net, spec.target[1])
    ports = _link_ports(net, a, b)  # fail fast: the link must exist
    if spec.kind == "link_down":
        return LinkDownActor(net, a, b)
    return LinkDegradeActor(ports, spec.rate_factor, spec.drop_prob, spec.delay_spike_ns, rng)


def _node_by_name(net, name: str):
    for node in net.nodes:
        if node.name == name:
            return node
    known = ", ".join(sorted(n.name for n in net.nodes))
    raise ValueError(f"fault target {name!r} not found in network (nodes: {known})")


def _link_ports(net, a, b) -> Tuple:
    """Both directions' egress ports of the a<->b link."""
    ab = [port for port, peer in net._adj[a.node_id] if peer is b]
    ba = [port for port, peer in net._adj[b.node_id] if peer is a]
    if not ab or not ba:
        raise ValueError(f"no link between {a.name!r} and {b.name!r}")
    return (*ab, *ba)
