"""Figures 12a/12b/15/17/18: the coflow-scheduling comparisons.

Declarations over :mod:`repro.experiments.coflow_scenario`, each one
:func:`coflow_spec` (baseline + modes on the identical workload):

* ``fig12`` — PrioPlus+Swift vs Physical+Swift at 70 % load (speedup over
  the no-priority Swift baseline, high-4/low-4 split); the same result dict
  carries the p99 tail numbers used by Fig 15; ``fig12a`` is the same at 40 %.
* ``fig17`` — the 70 % point with PFC disabled and IRN-style loss recovery
  (fast retransmit + short RTO).
* ``fig18`` — adds HPCC and Physical* w/o CC.
* ``fig12_paper`` / ``fig18_paper`` — the same on the 320-host fabric.

Scale note (documented in EXPERIMENTS.md): at CI scale the physical-priority
baseline benefits from deep-buffer backlog scheduling that masks Swift's
slow post-starvation recovery, so PrioPlus's *relative* advantage over
physical queues from the paper's multi-second runs is not fully visible;
the directional claims (both beat the baseline; high priorities gain most;
lossless vs lossy parity for PrioPlus) are asserted instead.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Mapping, Sequence

from ..sim.engine import MILLISECOND
from .coflow_scenario import CoflowConfig, build_workload, run_coflow_mode, speedup_summary
from .modes import Mode
from .paper_scale import paper_topology
from .registry import FunctionExperiment, register

__all__ = [
    "ci_config_kwargs",
    "paper_config_kwargs",
    "coflow_point",
    "coflow_speedups",
    "coflow_spec",
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


def coflow_point(mode: str, cfg: Dict[str, object], paper_scale: bool = False) -> dict:
    """One CC mode over the workload rebuilt deterministically from ``cfg``.

    ``paper_scale`` runs it through staged admission + the hybrid fluid core
    on :func:`repro.topology.paper_fabric` instead of the reduced multi-rack
    CI fabric.
    """
    cfg = CoflowConfig(**cfg)
    run_kwargs = {}
    if paper_scale:
        run_kwargs = dict(
            topology=paper_topology(cfg.host_rate_bps, cfg.link_delay_ns),
            streaming=True,
            fluid=True,
        )
    jobs, groups = build_workload(cfg)
    cct = run_coflow_mode(mode, cfg, jobs, groups, **run_kwargs)
    return {"cct": {str(cid): ns for cid, ns in cct.items()}}


def coflow_speedups(
    results: Mapping[str, dict], cfg_kwargs: Dict[str, object], baseline: str = Mode.SWIFT
) -> Dict[str, object]:
    """Per-mode speedup summaries over the ``baseline`` point's CCTs."""
    jobs, groups = build_workload(CoflowConfig(**cfg_kwargs))
    ccts = {
        pname: {int(cid): ns for cid, ns in res["cct"].items()}
        for pname, res in results.items()
    }
    base_cct = ccts.pop(baseline)
    return {
        "config": dict(cfg_kwargs),
        "n_jobs": len(jobs),
        "baseline": baseline,
        "speedups": {
            mode: speedup_summary(base_cct, cct, groups) for mode, cct in ccts.items()
        },
    }


def coflow_spec(
    modes: Sequence[str],
    cfg_kwargs: Dict[str, object],
    baseline: str = Mode.SWIFT,
    paper_scale: bool = False,
) -> Dict[str, object]:
    """One coflow comparison, sharded per CC mode, as
    :class:`FunctionExperiment` keywords (``spec``, ``reduce_fn``).

    Each mode (baseline included) replays the identical workload in its own
    simulation, so the modes are embarrassingly parallel.  The workload is
    rebuilt from the config seed both in the points and in the reduction —
    it is never shipped between processes.
    """
    point = partial(coflow_point, paper_scale=paper_scale)
    return {
        "spec": {
            mode: (point, {"mode": mode, "cfg": dict(cfg_kwargs)})
            for mode in [baseline, *modes]
        },
        "reduce_fn": partial(coflow_speedups, cfg_kwargs=dict(cfg_kwargs), baseline=baseline),
    }


register(
    FunctionExperiment(
        "fig12a",
        description="coflow speedups over the no-priority Swift baseline (40% load)",
        **coflow_spec(
            [Mode.PRIOPLUS, Mode.PHYSICAL],
            ci_config_kwargs(load=0.4, duration_ns=1_500_000),
        ),
    )
)
register(
    FunctionExperiment(
        "fig12",
        description="coflow speedups over the no-priority Swift baseline (70% load)",
        **coflow_spec(
            [Mode.PRIOPLUS, Mode.PHYSICAL],
            ci_config_kwargs(load=0.7, duration_ns=1_500_000),
        ),
    )
)
register(
    FunctionExperiment(
        "fig17",
        description="coflow speedups with PFC off and IRN-style loss recovery",
        **coflow_spec(
            [Mode.PRIOPLUS, Mode.PHYSICAL],
            ci_config_kwargs(load=0.7, duration_ns=1_200_000, lossy=True),
        ),
    )
)
register(
    FunctionExperiment(
        "fig18",
        description="coflow speedups incl. HPCC and Physical* without CC",
        **coflow_spec(
            [Mode.PRIOPLUS, Mode.HPCC, Mode.PHYSICAL_IDEAL_NOCC],
            ci_config_kwargs(load=0.7, duration_ns=1_200_000),
        ),
    )
)
register(
    FunctionExperiment(
        "fig12_paper",
        description="coflow speedups on the 320-host paper fabric, 2s trace",
        **coflow_spec([Mode.PRIOPLUS, Mode.PHYSICAL], paper_config_kwargs(), paper_scale=True),
    )
)
register(
    FunctionExperiment(
        "fig18_paper",
        description=(
            "coflow speedups incl. HPCC and Physical* w/o CC on the "
            "320-host paper fabric, 2s trace"
        ),
        **coflow_spec(
            [Mode.PRIOPLUS, Mode.HPCC, Mode.PHYSICAL_IDEAL_NOCC],
            paper_config_kwargs(),
            paper_scale=True,
        ),
    )
)
