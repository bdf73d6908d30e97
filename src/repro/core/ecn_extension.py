"""Per-priority ECN marking — the Appendix-B extension, prototyped.

The paper's Appendix B sketches how PrioPlus's idea could reach ECN-based
CCs: make the switch's marking *threshold/probability depend on the flow's
priority*, so lower priorities receive congestion notification earlier and
back off first.  This requires a switch change (hence "not readily
deployable"), but is easy to prototype in the simulator.

This module computes per-virtual-priority marking thresholds and installs a
marking hook on switch ports.  The virtual priority rides in the packet's
``local_prio`` field, standing in for a DSCP codepoint the switch would
classify on.  Lower priorities get geometrically smaller thresholds::

    K_i = K_top * ratio^(top - i)        (i = virtual priority, larger = higher)

With DCTCP/D2TCP senders this yields approximate priority ordering from a
single queue — the experiment in
:mod:`repro.experiments.ecn_priority` quantifies how close it gets to
PrioPlus's strict channels.
"""

from __future__ import annotations

from ..sim.network import Network
from ..sim.packet import Packet
from ..sim.port import Port

__all__ = ["EcnPriorityConfig", "install_priority_marking"]


class EcnPriorityConfig:
    """Marking thresholds per virtual priority."""

    def __init__(self, k_top_bytes: int, ratio: float, n_priorities: int):
        if not 0 < ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if k_top_bytes <= 0:
            raise ValueError("top threshold must be positive")
        self.k_top_bytes = k_top_bytes
        self.ratio = ratio
        self.n_priorities = n_priorities

    def threshold(self, vpriority: int) -> float:
        """Marking threshold for virtual priority ``vpriority`` (1-based)."""
        if vpriority < 1:
            raise ValueError("virtual priorities are 1-based")
        steps = max(0, self.n_priorities - min(vpriority, self.n_priorities))
        return self.k_top_bytes * (self.ratio**steps)


def install_priority_marking(net: Network, cfg: EcnPriorityConfig) -> int:
    """Patch every switch egress port to mark by per-priority thresholds.

    Returns the number of ports patched.  The hook replaces the port's
    uniform `ecn_k` marking with: mark iff the queue (including this packet)
    exceeds the threshold of the packet's virtual priority.
    """
    patched = 0
    for switch in net.switches:
        for port in switch.ports:
            _patch_port(port, cfg)
            patched += 1
    return patched


def _patch_port(port: Port, cfg: EcnPriorityConfig) -> None:
    port.ecn_k = None  # the hook replaces the uniform marker

    def marker(pkt: Packet, queue_bytes: int) -> bool:
        vp = pkt.local_prio if pkt.local_prio >= 1 else 1
        return queue_bytes + pkt.size > cfg.threshold(vp)

    port.ecn_marker = marker
