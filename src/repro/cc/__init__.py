"""Congestion-control algorithms.

Delay-based (PrioPlus-wrappable): Swift, LEDBAT.
ECN-based: DCTCP, D2TCP, DCQCN.  INT-based: HPCC.
Uncontrolled: NoCC.
"""

from .base import CongestionControl
from .dcqcn import Dcqcn
from .dctcp import D2tcp, Dctcp
from .hpcc import Hpcc
from .ledbat import Ledbat
from .nocc import NoCC
from .swift import Swift, SwiftParams

__all__ = [
    "CongestionControl",
    "Swift",
    "SwiftParams",
    "Dctcp",
    "D2tcp",
    "Dcqcn",
    "Ledbat",
    "Hpcc",
    "NoCC",
]
