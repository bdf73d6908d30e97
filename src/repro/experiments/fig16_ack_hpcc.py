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

from typing import Dict, List, Optional, Sequence

from .common import Experiment, Mode, Point, register
from .flowsched import FlowSchedConfig, run_flowsched

__all__ = ["FIG16_MODES", "Fig16Experiment"]

FIG16_MODES = (Mode.PRIOPLUS, Mode.PRIOPLUS_SAME_ACK, Mode.HPCC)


def _run_fig16(
    n_priorities: int = 8,
    modes: Sequence[str] = FIG16_MODES,
    cfg: Optional[FlowSchedConfig] = None,
) -> List[Dict[str, object]]:
    return [run_flowsched(mode, n_priorities, cfg) for mode in modes]


class Fig16Experiment(Experiment):
    """ACK-priority sensitivity + HPCC baseline, one runner point per mode."""

    name = "fig16"
    description = "PrioPlus* (data-priority ACKs) and HPCC on the flow-scheduling scenario"

    def __init__(
        self,
        n_priorities: int = 8,
        modes: Sequence[str] = FIG16_MODES,
        cfg_kwargs: Optional[Dict[str, object]] = None,
    ):
        self.n_priorities = int(n_priorities)
        self.modes = list(modes)
        self.cfg_kwargs = dict(
            cfg_kwargs
            if cfg_kwargs is not None
            else {"rate_bps": 100e9, "duration_ns": 500_000, "size_scale": 0.1}
        )

    def points(self) -> List[Point]:
        seed = int(self.cfg_kwargs.get("seed", FlowSchedConfig().seed))
        return [
            Point(
                mode,
                {"mode": mode, "n_priorities": self.n_priorities, "cfg": dict(self.cfg_kwargs)},
                seed=seed,
            )
            for mode in self.modes
        ]

    def run_point(self, point: Point) -> dict:
        cfg = FlowSchedConfig(**point.config["cfg"])
        return run_flowsched(point.config["mode"], point.config["n_priorities"], cfg)

    def reduce(self, results: Dict[str, dict]) -> Dict[str, object]:
        return {"rows": [results[mode] for mode in self.modes]}


register(Fig16Experiment())
