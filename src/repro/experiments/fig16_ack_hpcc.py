"""Figure 16 (Appendix A.3): ACK prioritisation sensitivity + HPCC baseline.

Replays the flow-scheduling scenario with

* ``PrioPlus*`` — ACKs travel in the *same* physical priority as data
  instead of the highest queue (reverse congestion can now distort RTTs);
* HPCC with physical priority queues.

Paper shape: PrioPlus* stays within ~10 % of PrioPlus; HPCC is ≥ 15 % worse
on mean FCT (≥ 11 % at p99) because it pins utilisation below capacity to
keep queues empty, starving medium/large flows.
"""

from __future__ import annotations

from .flowsched import grid_spec
from .modes import Mode
from .registry import FunctionExperiment, register

__all__ = ["FIG16_MODES"]

FIG16_MODES = (Mode.PRIOPLUS, Mode.PRIOPLUS_SAME_ACK, Mode.HPCC)


register(
    FunctionExperiment(
        "fig16",
        description="PrioPlus* (data-priority ACKs) and HPCC on the flow-scheduling scenario",
        **grid_spec(
            [(mode, 8) for mode in FIG16_MODES],
            {"rate_bps": 100e9, "duration_ns": 500_000, "size_scale": 0.1},
        ),
    )
)
