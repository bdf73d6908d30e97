"""Figure 11: FCT vs number of priorities in the flow-scheduling scenario.

Sweeps the priority count for four systems — PrioPlus+Swift (virtual
priorities in one queue), Physical+Swift (real queues, PFC headroom consumes
buffer, max 8), Physical*+Swift (ideal queues) and Physical* w/o CC — and
reports mean/p99 FCT for all flows and per size class (total / small /
middle / large subplots a-d).

Paper shape to reproduce: PrioPlus tracks Physical* within ~10 % for small
and middle flows; real Physical degrades beyond ~6 priorities as headroom
starves the shared buffer and PFC fires; for large (low-priority) flows
PrioPlus beats Physical*+Swift because Swift collapses in starved queues
while PrioPlus relinquishes cleanly and linear-starts back.
"""

from __future__ import annotations

from .flowsched import grid_spec
from .modes import MAX_PHYSICAL_PRIORITIES, Mode
from .registry import FunctionExperiment, register

__all__ = ["FIG11_MODES"]

FIG11_MODES = (
    Mode.PRIOPLUS,
    Mode.PHYSICAL,
    Mode.PHYSICAL_IDEAL,
    Mode.PHYSICAL_IDEAL_NOCC,
)


register(
    FunctionExperiment(
        "fig11",
        description="flow-scheduling FCT vs number of priorities, four systems",
        **grid_spec(
            [
                (mode, n)
                for n in (2, 4, 6, 8, 10, 12)
                for mode in FIG11_MODES
                # the protocol/hardware ceiling (§2.2)
                if not (mode == Mode.PHYSICAL and n > MAX_PHYSICAL_PRIORITIES)
            ],
            {"rate_bps": 100e9, "duration_ns": 600_000, "size_scale": 0.1},
        ),
    )
)
