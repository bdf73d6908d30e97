"""Figures 12a/12b/15/17/18: the coflow-scheduling comparisons.

Thin wrappers over :mod:`repro.experiments.coflow_scenario`:

* :func:`_run_fig12ab` — PrioPlus+Swift vs Physical+Swift at 40 % and 70 %
  load (speedup over the no-priority Swift baseline, high-4/low-4 split);
  the same result dict carries the p99 tail numbers used by Fig 15.
* :func:`_run_fig17` — the 70 % point with PFC disabled and IRN-style loss
  recovery (fast retransmit + short RTO).
* :func:`_run_fig18` — adds HPCC and Physical* w/o CC.

Scale note (documented in EXPERIMENTS.md): at CI scale the physical-priority
baseline benefits from deep-buffer backlog scheduling that masks Swift's
slow post-starvation recovery, so PrioPlus's *relative* advantage over
physical queues from the paper's multi-second runs is not fully visible;
the directional claims (both beat the baseline; high priorities gain most;
lossless vs lossy parity for PrioPlus) are asserted instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim.engine import MILLISECOND
from .coflow_scenario import (
    CoflowConfig,
    build_workload,
    run_coflow_comparison,
    run_coflow_mode,
    speedup_summary,
)
from .modes import Mode
from .registry import Experiment, Point, register

__all__ = [
    "ci_config",
    "ci_config_kwargs",
    "paper_config_kwargs",
    "CoflowComparisonExperiment",
    "PaperCoflowComparisonExperiment",
]


def ci_config_kwargs(load: float = 0.7, lossy: bool = False, **overrides) -> Dict[str, object]:
    """The reduced-scale coflow preset, as plain :class:`CoflowConfig` kwargs.

    Kept as a JSON-safe dict so experiment points can carry it through the
    runner's cache key and across process boundaries.
    """
    params: Dict[str, object] = dict(
        n_racks=2,
        hosts_per_rack=3,
        host_rate_bps=25e9,
        core_rate_bps=100e9,
        load=load,
        duration_ns=2 * MILLISECOND,
        mean_flow_bytes=500_000,
        request_fanout=4,
        request_piece_bytes=300_000,
        link_delay_ns=300,
        lossy=lossy,
    )
    params.update(overrides)
    return params


def ci_config(load: float = 0.7, lossy: bool = False, **overrides) -> CoflowConfig:
    """The reduced-scale coflow preset used by the benchmarks."""
    return CoflowConfig(**ci_config_kwargs(load=load, lossy=lossy, **overrides))


def paper_config_kwargs(**overrides) -> Dict[str, object]:
    """Coflow knobs for the 320-host paper fabric over a multi-second trace.

    ``n_racks * hosts_per_rack`` is kept at 320 so workload host indices map
    onto :func:`repro.topology.paper_fabric` (which ignores the rack split —
    its layout is the k=6 fat-tree).  Load follows the same honest re-scope
    as ``PAPER_LONG_CFG``: the paper's 40–70 % load at 320 hosts ×
    100 Gbps × 2 s is a multi-terabyte trace no CI-budget replay carries,
    so the long variant keeps duration and fabric at paper scale and trades
    arrival rate, documented per-figure in EXPERIMENTS.md.
    """
    params: Dict[str, object] = dict(
        n_racks=16,
        hosts_per_rack=20,  # 16 x 20 = 320 = paper_fabric host count
        host_rate_bps=100e9,
        core_rate_bps=400e9,  # unused under the paper_fabric override
        load=0.002,
        duration_ns=2_000 * MILLISECOND,
        mean_flow_bytes=500_000,
        request_fanout=8,
        request_piece_bytes=300_000,
        link_delay_ns=1_000,
    )
    params.update(overrides)
    return params


def _run_fig12ab(
    load: float = 0.7, cfg: Optional[CoflowConfig] = None
) -> Dict[str, object]:
    cfg = cfg or ci_config(load=load)
    return run_coflow_comparison([Mode.PRIOPLUS, Mode.PHYSICAL], cfg)


def _run_fig17(cfg: Optional[CoflowConfig] = None) -> Dict[str, object]:
    cfg = cfg or ci_config(load=0.7, lossy=True)
    return run_coflow_comparison([Mode.PRIOPLUS, Mode.PHYSICAL], cfg)


def _run_fig18(cfg: Optional[CoflowConfig] = None) -> Dict[str, object]:
    cfg = cfg or ci_config(load=0.7)
    return run_coflow_comparison(
        [Mode.PRIOPLUS, Mode.HPCC, Mode.PHYSICAL_IDEAL_NOCC], cfg
    )


class CoflowComparisonExperiment(Experiment):
    """One coflow comparison, sharded per CC mode.

    Each mode (baseline included) replays the identical pre-built workload in
    its own simulation, so the modes are embarrassingly parallel.  The
    workload itself is rebuilt deterministically from the config seed both in
    the points and in ``reduce`` — it is never shipped between processes.
    """

    def __init__(
        self,
        name: str,
        modes: Sequence[str],
        cfg_kwargs: Dict[str, object],
        baseline: str = Mode.SWIFT,
        description: str = "",
    ):
        self.name = name
        self.modes = list(modes)
        self.cfg_kwargs = dict(cfg_kwargs)
        self.baseline = baseline
        self.description = description

    def points(self) -> List[Point]:
        seed = int(self.cfg_kwargs.get("seed", CoflowConfig().seed))
        return [
            Point(mode, {"mode": mode, "cfg": dict(self.cfg_kwargs)}, seed=seed)
            for mode in [self.baseline, *self.modes]
        ]

    def run_point(self, point: Point) -> dict:
        cfg = CoflowConfig(**point.config["cfg"])
        jobs, groups = build_workload(cfg)
        cct = run_coflow_mode(point.config["mode"], cfg, jobs, groups)
        return {"cct": {str(cid): ns for cid, ns in cct.items()}}

    def reduce(self, results: Dict[str, dict]) -> Dict[str, object]:
        cfg = CoflowConfig(**self.cfg_kwargs)
        jobs, groups = build_workload(cfg)
        ccts = {
            pname: {int(cid): ns for cid, ns in res["cct"].items()}
            for pname, res in results.items()
        }
        base_cct = ccts[self.baseline]
        return {
            "config": dict(self.cfg_kwargs),
            "n_jobs": len(jobs),
            "baseline": self.baseline,
            "speedups": {
                mode: speedup_summary(base_cct, ccts[mode], groups) for mode in self.modes
            },
        }


class PaperCoflowComparisonExperiment(CoflowComparisonExperiment):
    """A coflow comparison on the 320-host paper fabric, multi-second trace.

    Identical sharding and reduction to the parent; every point runs through
    staged admission + the hybrid fluid core on
    :func:`repro.topology.paper_fabric` instead of the reduced multi-rack
    CI fabric.
    """

    def run_point(self, point: Point) -> dict:
        from ..topology import paper_fabric

        cfg = CoflowConfig(**point.config["cfg"])

        def topology(sim, switch_cfg):
            return paper_fabric(
                sim,
                rate_bps=cfg.host_rate_bps,
                link_delay_ns=cfg.link_delay_ns,
                switch_cfg=switch_cfg,
            )

        jobs, groups = build_workload(cfg)
        cct = run_coflow_mode(
            point.config["mode"],
            cfg,
            jobs,
            groups,
            topology=topology,
            streaming=True,
            fluid=True,
        )
        return {"cct": {str(cid): ns for cid, ns in cct.items()}}


register(
    CoflowComparisonExperiment(
        "fig12",
        [Mode.PRIOPLUS, Mode.PHYSICAL],
        ci_config_kwargs(load=0.7, duration_ns=1_500_000),
        description="coflow speedups over the no-priority Swift baseline (70% load)",
    )
)
register(
    CoflowComparisonExperiment(
        "fig17",
        [Mode.PRIOPLUS, Mode.PHYSICAL],
        ci_config_kwargs(load=0.7, duration_ns=1_200_000, lossy=True),
        description="coflow speedups with PFC off and IRN-style loss recovery",
    )
)
register(
    CoflowComparisonExperiment(
        "fig18",
        [Mode.PRIOPLUS, Mode.HPCC, Mode.PHYSICAL_IDEAL_NOCC],
        ci_config_kwargs(load=0.7, duration_ns=1_200_000),
        description="coflow speedups incl. HPCC and Physical* without CC",
    )
)
register(
    PaperCoflowComparisonExperiment(
        "fig12_paper",
        [Mode.PRIOPLUS, Mode.PHYSICAL],
        paper_config_kwargs(),
        description="coflow speedups on the 320-host paper fabric, 2s trace",
    )
)
register(
    PaperCoflowComparisonExperiment(
        "fig18_paper",
        [Mode.PRIOPLUS, Mode.HPCC, Mode.PHYSICAL_IDEAL_NOCC],
        paper_config_kwargs(),
        description=(
            "coflow speedups incl. HPCC and Physical* w/o CC on the "
            "320-host paper fabric, 2s trace"
        ),
    )
)
