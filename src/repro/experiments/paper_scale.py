"""Paper-scale reruns on the full k=6 / 320-host / 100 Gbps fabric (§6.1).

The seed repository ran the flow-scheduling figures on reduced fabrics
(k=4, 16 hosts) because a pure packet-level replay of the paper's 320-host
topology was compute-prohibitive (EXPERIMENTS.md caveats S1/S2).  These
experiments retire that caveat: they replay the *same* workloads on
:func:`repro.topology.paper_fabric` — the paper's actual scale — using the
hybrid fluid/packet core (:mod:`repro.fluid`) to skip the quiescent
stretches at fluid speed.

Three figure variants are registered:

* ``fig11_paper`` — Fig 11's FCT-vs-priority-count comparison (PrioPlus vs
  Physical*) at 320 hosts;
* ``fig11_long`` — the same comparison over a **multi-second trace**
  (``PAPER_LONG_CFG``: 2 s, paper-true flow sizes, streaming admission +
  P² reduction) so Swift's low-priority collapse has time to appear;
* ``fig16_paper`` — Fig 16's ACK-priority sensitivity (PrioPlus vs
  PrioPlus*) at 320 hosts.

Each point also reports the hybrid core's regime statistics (``"fluid"``
key) so results are auditable: how much virtual time ran fluid, how many
epochs, why each ended.
"""

from __future__ import annotations

from typing import Dict

from ..topology import paper_fabric
from .flowsched import FlowSchedConfig, grid_spec, run_flowsched
from .modes import Mode
from .registry import FunctionExperiment, register

__all__ = ["PAPER_LONG_CFG", "PAPER_SCALE_CFG", "paper_topology", "run_paper_scale"]

#: default knobs for a paper-scale point: full fabric, short trace.  The
#: duration is deliberately small (the fabric injects ~1 flow/µs at this
#: load) so a full mode sweep stays tractable; scale it up via cfg_kwargs.
PAPER_SCALE_CFG: Dict[str, object] = {
    "rate_bps": 100e9,
    "link_delay_ns": 1_000,
    "load": 0.5,
    "duration_ns": 60_000,
    "size_scale": 0.1,
}

#: knobs for a *long* paper-scale point: full fabric, multi-second trace,
#: paper-true (unscaled) flow sizes.  The paper runs this scenario at 50 %
#: load; that injects ~17M flows/s into 320 hosts, which no core — fluid or
#: packet — replays in CI-compatible time, so the long variant trades load
#: for duration instead of scaling flow sizes down (the honest re-scope
#: recorded in EXPERIMENTS.md §S1): ~0.4 % of the paper's arrival rate (load
#: 0.002 against 0.5) over a 2-second trace, enough that low-priority flows
#: live through hundreds of preemption/restart cycles while a run stays
#: inside the CI smoke budget.
PAPER_LONG_CFG: Dict[str, object] = {
    "rate_bps": 100e9,
    "link_delay_ns": 1_000,
    "load": 0.002,
    "duration_ns": 2_000_000_000,
    "size_scale": 1.0,
}


def paper_topology(rate_bps: float, link_delay_ns: int):
    """The ``topology=`` hook of ``run_flowsched`` / ``run_coflow_mode`` for
    :func:`repro.topology.paper_fabric` at the given link speed and delay."""

    def build(sim, switch_cfg):
        return paper_fabric(
            sim, rate_bps=rate_bps, link_delay_ns=link_delay_ns, switch_cfg=switch_cfg
        )

    return build


def run_paper_scale(
    mode: str,
    n_priorities: int,
    cfg: FlowSchedConfig,
    fluid: bool = True,
    streaming: bool = False,
) -> Dict[str, object]:
    """One flow-scheduling point on the 320-host fabric (hybrid by default).

    ``streaming=True`` selects staged admission and bounded-memory reduction
    — required for multi-second traces, where materializing the whole
    workload up front would hold every sender live at once.
    """
    result = run_flowsched(
        mode,
        n_priorities,
        cfg,
        topology=paper_topology(cfg.rate_bps, cfg.link_delay_ns),
        fluid=fluid,
        streaming=streaming,
    )
    result["n_hosts"] = 320
    return result


register(
    FunctionExperiment(
        "fig11_paper",
        description="Fig 11 flow-scheduling FCT on the full 320-host k=6 fabric (hybrid core)",
        **grid_spec(
            [(Mode.PRIOPLUS, 4), (Mode.PHYSICAL_IDEAL, 4), (Mode.PRIOPLUS, 8), (Mode.PHYSICAL_IDEAL, 8)],
            PAPER_SCALE_CFG,
            quick_cfg={"duration_ns": 20_000},
            quick_cells=2,
            run=run_paper_scale,
        ),
    )
)
# Fig 11 on multi-second traces: the S1-retirement experiment.
#
# The seed repo's short traces let physical-priority baselines ride on
# switch backlog scheduling, masking Swift's slow post-starvation recovery
# (caveat S1).  This variant replays a 2-second, paper-true-size trace at
# 320 hosts through the streaming admission + hybrid-fluid path and
# compares PrioPlus against both physical baselines at 8 priorities, where
# the paper's low-priority collapse claim lives.  Per-class percentiles in
# these rows are P² estimates (see ``repro.analysis.streaming``).
register(
    FunctionExperiment(
        "fig11_long",
        description="Fig 11 on a 2s paper-true-size trace, 320 hosts, streaming + hybrid core",
        **grid_spec(
            [(Mode.PRIOPLUS, 8), (Mode.PHYSICAL, 8), (Mode.PHYSICAL_IDEAL, 8)],
            PAPER_LONG_CFG,
            quick_cfg={"duration_ns": 100_000_000},
            quick_cells=1,
            run=run_paper_scale,
            streaming=True,
        ),
    )
)
register(
    FunctionExperiment(
        "fig16_paper",
        description="Fig 16 ACK-priority sensitivity on the full 320-host k=6 fabric (hybrid core)",
        **grid_spec(
            [(Mode.PRIOPLUS, 8), (Mode.PRIOPLUS_SAME_ACK, 8)],
            PAPER_SCALE_CFG,
            quick_cfg={"duration_ns": 20_000},
            quick_cells=1,
            run=run_paper_scale,
        ),
    )
)
