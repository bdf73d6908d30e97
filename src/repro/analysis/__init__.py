"""Statistics and closed-form analysis used by the experiment harness."""

from .fct import SIZE_CLASSES, FctStats, group_by, percentile, size_class, speedup, summarize
from .streaming import P2Quantile, StreamingStats
from .switch_chips import SWITCH_CHIPS, buffer_bandwidth_ratios
from .theory import (
    channel_width_ns,
    linear_start_is_optimal,
    potential_backlog,
    start_strategy_costs,
    swift_fluctuation_ns,
)

__all__ = [
    "FctStats",
    "summarize",
    "group_by",
    "percentile",
    "speedup",
    "SIZE_CLASSES",
    "size_class",
    "P2Quantile",
    "StreamingStats",
    "SWITCH_CHIPS",
    "buffer_bandwidth_ratios",
    "start_strategy_costs",
    "potential_backlog",
    "linear_start_is_optimal",
    "swift_fluctuation_ns",
    "channel_width_ns",
]
