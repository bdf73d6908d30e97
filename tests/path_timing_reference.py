"""Path timing by walking the path, kept as the oracle for the memo.

Before ``Network`` memoised path timing by fabric structure, every call
walked the canonical path: ``base_rtt_ns`` forward and back,
``bottleneck_rate_bps`` forward.  ``base_rtt_ns`` and
``bottleneck_rate_bps`` here are that code as it stood at 5bf05e4, as plain
functions of the network.  ``tests/test_path_timing.py`` holds the shipped
values to them with ``==``.
"""

from __future__ import annotations

from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.packet import HEADER_BYTES, MIN_PACKET_BYTES


def base_rtt_ns(
    net: Network,
    src: Host,
    dst: Host,
    data_bytes: int = 1000 + HEADER_BYTES,
    ack_bytes: int = MIN_PACKET_BYTES,
) -> int:
    """Unloaded RTT for a ``data_bytes`` packet and its ACK."""
    fwd = net.path_ports(src, dst)
    rtt = 0
    for port in fwd:
        rtt += port.prop_delay_ns + port.tx_time_ns(data_bytes)
    rev = net.path_ports(dst, src)
    for port in rev:
        rtt += port.prop_delay_ns + port.tx_time_ns(ack_bytes)
    return rtt


def bottleneck_rate_bps(net: Network, src: Host, dst: Host) -> float:
    return min(p.rate_bps for p in net.path_ports(src, dst))
