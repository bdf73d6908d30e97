"""Statistics and closed-form analysis used by the experiment harness."""

from .fct import percentile
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
    "percentile",
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
