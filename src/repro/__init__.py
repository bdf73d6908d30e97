"""repro: a full Python reproduction of PrioPlus (EuroSys 2025).

"Enabling Virtual Priority in Data Center Congestion Control" — Zhang et al.

The package contains a packet-level discrete-event datacenter network
simulator (:mod:`repro.sim`), the congestion-control baselines the paper
compares against (:mod:`repro.cc`), the PrioPlus enhancement itself
(:mod:`repro.core`), workload generators, the coflow and ML-training layers,
and one experiment runner per figure/table of the paper
(:mod:`repro.experiments`).

Quick taste::

    from repro import Simulator, star, Flow, FlowSender, Swift, SwiftParams
    from repro import ChannelConfig, PrioPlusCC

    sim = Simulator(seed=1)
    net, senders, recv = star(sim, n_senders=2, rate_bps=10e9)
    channels = ChannelConfig()
    flow = Flow(1, senders[0], recv, size_bytes=1_000_000, vpriority=2)
    cc = PrioPlusCC(Swift(SwiftParams(target_scaling=False)), channels, vpriority=2)
    FlowSender(sim, net, flow, cc)
    sim.run()
    print(flow.fct_ns() / 1e3, "us")
"""

from .cc import CongestionControl, D2tcp, Dcqcn, Dctcp, Hpcc, Ledbat, NoCC, Swift, SwiftParams
from .core import ChannelConfig, PrioPlusCC, StartTier
from .noise import LognormalNoise, UniformNoise, paper_noise
from .sim import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    Host,
    Network,
    PfcConfig,
    Simulator,
    Switch,
    SwitchConfig,
)
from .probe import installed
from .telemetry import Recorder
from .topology import fat_tree, leaf_spine, multi_rack, star
from .transport import DEFAULT_MTU, Flow, FlowSender

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Network",
    "Host",
    "Switch",
    "SwitchConfig",
    "PfcConfig",
    "SECOND",
    "MILLISECOND",
    "MICROSECOND",
    "Flow",
    "FlowSender",
    "DEFAULT_MTU",
    "CongestionControl",
    "Swift",
    "SwiftParams",
    "Dctcp",
    "D2tcp",
    "Ledbat",
    "Hpcc",
    "NoCC",
    "Dcqcn",
    "ChannelConfig",
    "PrioPlusCC",
    "StartTier",
    "LognormalNoise",
    "UniformNoise",
    "paper_noise",
    "star",
    "fat_tree",
    "leaf_spine",
    "multi_rack",
    "Recorder",
    "installed",
    "__version__",
]
