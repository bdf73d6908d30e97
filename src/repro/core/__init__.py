"""PrioPlus: virtual priority as a congestion-control enhancement.

Core algorithm (:class:`PrioPlusCC`, :class:`ChannelConfig`) plus the
paper's discussed extensions: weighted virtual priority (§7) and
per-priority ECN marking (Appendix B), and the start-strategy instruments
behind Table 2.
"""

from .channels import PAPER_A_NS, PAPER_B_NS, ChannelConfig
from .ecn_extension import EcnPriorityConfig, install_priority_marking
from .prioplus import W_LS_FRACTION, PrioPlusCC, StartTier
from .start_strategies import EXPONENTIAL, LINEAR, LINE_RATE, StartRampCC
from .planner import PlanError, QueuePlan, TrafficClass, plan_queues
from .weighted import WeightedPrioPlusCC, aggregate_floor_share

__all__ = [
    "ChannelConfig",
    "PAPER_A_NS",
    "PAPER_B_NS",
    "PrioPlusCC",
    "StartTier",
    "W_LS_FRACTION",
    "WeightedPrioPlusCC",
    "aggregate_floor_share",
    "EcnPriorityConfig",
    "install_priority_marking",
    "StartRampCC",
    "LINE_RATE",
    "EXPONENTIAL",
    "LINEAR",
    "TrafficClass",
    "QueuePlan",
    "PlanError",
    "plan_queues",
]
