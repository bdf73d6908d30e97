"""Packet-level discrete-event network simulator."""

from .buffer import BufferStats, SharedBuffer
from .engine import MICROSECOND, MILLISECOND, SECOND, EventHandle, Simulator
from .host import Host
from .network import Network
from .packet import ACK, DATA, HEADER_BYTES, MIN_PACKET_BYTES, PROBE, PROBE_ACK, IntHop, Packet
from .pfc import PfcConfig, PfcIngressState
from .port import Port
from .switch import Switch, SwitchConfig, ecmp_hash

__all__ = [
    "Simulator",
    "EventHandle",
    "SECOND",
    "MILLISECOND",
    "MICROSECOND",
    "Packet",
    "IntHop",
    "DATA",
    "ACK",
    "PROBE",
    "PROBE_ACK",
    "HEADER_BYTES",
    "MIN_PACKET_BYTES",
    "Port",
    "SharedBuffer",
    "BufferStats",
    "PfcConfig",
    "PfcIngressState",
    "Switch",
    "SwitchConfig",
    "ecmp_hash",
    "Host",
    "Network",
]
