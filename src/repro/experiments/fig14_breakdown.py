"""Figure 14 (and §6.3): FCT breakdown by priority level and flow size.

Unlike the Fig 11 scenario, priorities are *not* derived from flow size:
each priority level carries a complete WebSearch workload (equal load per
level, 50 % total).  This isolates the question "does a higher delay
threshold hurt the flows that hold it?" — the paper's answer is no: the
highest priority's D_target is 60 µs yet its sub-RTT flows average 20.9 µs,
because the experienced delay is set by whoever currently holds the channel,
not by one's own threshold.

Results are normalised by Physical*+Swift per (priority tier x size bucket).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple

from ..analysis.fct import percentile
from ..core import StartTier
from ..noise import paper_noise
from ..sim.engine import Simulator
from ..topology import fat_tree
from ..workloads import poisson_flows
from .launch import launch_specs, run_until_flows_done
from .modes import CCFactory, Mode
from .registry import FunctionExperiment, register
from .flowsched import FlowSchedConfig

__all__ = ["run_fig14", "FIG14_MODES", "fig14_point", "fig14_normalized"]

FIG14_MODES = (Mode.PRIOPLUS, Mode.PHYSICAL_IDEAL, Mode.PHYSICAL_IDEAL_NOCC, Mode.D2TCP)


def run_fig14(
    mode: str,
    n_priorities: int = 12,
    cfg: Optional[FlowSchedConfig] = None,
) -> Dict[str, object]:
    cfg = cfg or FlowSchedConfig(load=0.5)
    sim = Simulator(cfg.seed)

    def tier_of_level_group(group: int) -> str:
        # group 0 = highest level; tiers per the paper: high / middle / low
        if group == 0:
            return StartTier.HIGH
        if group < n_priorities // 2:
            return StartTier.MEDIUM
        return StartTier.LOW

    factory = CCFactory(
        mode,
        n_priorities=n_priorities,
        tier_of_group=tier_of_level_group,
        probe_tiers=(StartTier.MEDIUM, StartTier.LOW),  # §6.3: probe for mid+low
    )
    switch_cfg = factory.switch_config(
        buffer_bytes=cfg.buffer_bytes(),
        headroom_per_port_per_prio=cfg.headroom_bytes(),
        pfc_enabled=cfg.pfc_enabled,
    )
    net, hosts = fat_tree(
        sim, k=cfg.k, rate_bps=cfg.rate_bps, link_delay_ns=cfg.link_delay_ns, switch_cfg=switch_cfg
    )
    rng = random.Random(cfg.seed)
    cdf = cfg.cdf_factory(cfg.size_scale)
    specs = poisson_flows(rng, len(hosts), cdf, cfg.load, cfg.rate_bps, cfg.duration_ns)
    # assign a priority level uniformly: every level sees the same workload
    levels = [rng.randrange(n_priorities) for _ in specs]
    level_of = dict(zip([id(s) for s in specs], levels))

    flows, senders = launch_specs(
        sim,
        net,
        specs,
        hosts,
        factory,
        group_of=lambda s: level_of[id(s)],
        mtu=cfg.mtu,
        noise=paper_noise(),
    )
    for f, lvl in zip(flows, levels):
        f.tag = ("level", n_priorities - 1 - lvl)  # paper labels: larger = higher
    run_until_flows_done(sim, flows, cfg.duration_ns * 40)

    # bucket by (priority tier, size bucket)
    small_cut = cfg.size_classes()[0][2]
    middle_cut = cfg.size_classes()[1][2]
    sub_rtt_cut = int(cfg.rate_bps * 12_000 / 8e9)  # ~one base-RTT of bytes

    def size_bucket(size: int) -> str:
        if size <= sub_rtt_cut:
            return "sub_rtt"
        if size <= small_cut:
            return "small"
        if size <= middle_cut:
            return "middle"
        return "large"

    def tier_name(level: int) -> str:
        # level here uses the paper's labels: 0..n-1 with larger = higher
        if level == n_priorities - 1:
            return "high"
        if level >= n_priorities // 2:
            return "middle"
        return "low"

    cells: Dict[Tuple[str, str], List[float]] = {}
    for f in flows:
        if not f.done:
            continue
        key = (tier_name(f.tag[1]), size_bucket(f.size_bytes))
        cells.setdefault(key, []).append(f.fct_ns())
    return {
        "mode": mode,
        "n_flows": len(flows),
        "n_done": sum(1 for f in flows if f.done),
        "cells": {
            k: {"mean_us": sum(v) / len(v) / 1e3, "p99_us": percentile(v, 99) / 1e3, "count": len(v)}
            for k, v in cells.items()
        },
    }


def fig14_point(mode: str, n_priorities: int, cfg: Dict[str, object]) -> dict:
    """:func:`run_fig14` with cell keys flattened to ``"tier/bucket"`` strings
    so the result survives the runner's JSON normalisation."""
    res = run_fig14(mode, n_priorities, FlowSchedConfig(**cfg))
    res["cells"] = {f"{tier}/{bucket}": v for (tier, bucket), v in res["cells"].items()}
    return res


def fig14_normalized(results: Mapping[str, dict]) -> Dict[str, object]:
    """Per-mode cells plus each cell's mean FCT over Physical*+Swift's."""
    base = results[Mode.PHYSICAL_IDEAL]["cells"]
    normalized: Dict[str, Dict[str, float]] = {}
    for mode, res in results.items():
        norm = {}
        for key, stats in res["cells"].items():
            if key in base and base[key]["mean_us"] > 0:
                norm[key] = stats["mean_us"] / base[key]["mean_us"]
        normalized[mode] = norm
    return {"results": dict(results), "normalized_to_physical": normalized}


_CFG = {"rate_bps": 100e9, "duration_ns": 700_000, "size_scale": 0.1, "load": 0.5}
_QUICK_CFG = dict(_CFG, duration_ns=400_000)

register(
    FunctionExperiment(
        "fig14",
        {
            mode: (fig14_point, {"mode": mode, "n_priorities": 12, "cfg": _CFG})
            for mode in FIG14_MODES
        },
        description="FCT breakdown by priority level and size, normalised to Physical*",
        reduce_fn=fig14_normalized,
        # --quick: PrioPlus and its Physical* reference at six levels, shorter trace
        quick_spec={
            mode: (fig14_point, {"mode": mode, "n_priorities": 6, "cfg": _QUICK_CFG})
            for mode in (Mode.PRIOPLUS, Mode.PHYSICAL_IDEAL)
        },
    )
)
