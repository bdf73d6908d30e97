"""Figure 12c: model-training speedup in a shared ML cluster.

Several data-parallel jobs (ResNet and VGG profiles) share a 2:1
oversubscribed leaf-spine fabric, their rings deliberately interleaved
across leaves so all-reduce traffic collides on the uplinks (the CASSINI
setting).  Prioritising each model's traffic interleaves the bursts:

* baseline — Swift, no prioritisation;
* PrioPlus — each model gets its own virtual priority in one queue;
* physical — each model gets its own physical queue.

Paper shape: PrioPlus accelerates *both* model families (+12 %/+15 %,
+13 % overall); physical priority speeds the favoured family (+16 %) but
*slows the lower-priority family* (−18 %) — strict starvation that PrioPlus
avoids thanks to fast reclaim of leftover bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..mlsim import RESNET50, VGG16, TrainingJob, scaled_model
from ..noise import paper_noise
from ..sim.engine import MILLISECOND, Simulator
from ..topology import leaf_spine
from .modes import CCFactory, Mode
from .registry import FunctionExperiment, register
from ..transport.flow import Flow

__all__ = ["MlTrainConfig", "run_mltrain_mode", "mltrain_point", "mltrain_speedups"]


class MlTrainConfig:
    """The shared training cluster: two ResNet and two VGG rings of four
    hosts on two leaves of four hosts and two spines (25 Gbps, 2:1
    oversubscribed, 500 ns links), models scaled to 0.4 %, 8 ms of
    training under the paper's delay noise."""

    n_resnet = 2
    n_vgg = 2
    hosts_per_job = 4
    n_leaves = 2
    hosts_per_leaf = 4
    n_spines = 2
    host_rate_bps = 25e9
    oversubscription = 2.0
    model_scale = 0.004
    duration_ns = 8 * MILLISECOND
    link_delay_ns = 500

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def n_jobs(self) -> int:
        return self.n_resnet + self.n_vgg


def _ring_hosts(cfg: MlTrainConfig, hosts: List, job_idx: int) -> List:
    """Spread each ring across leaves so all-reduce crosses the uplinks."""
    n = len(hosts)
    stride = max(1, cfg.hosts_per_leaf)
    return [hosts[(job_idx + k * stride) % n] for k in range(cfg.hosts_per_job)]


def run_mltrain_mode(mode: str, cfg: MlTrainConfig) -> Dict[str, object]:
    """Train all jobs under one mode; returns iterations per job."""
    sim = Simulator(cfg.seed)
    n_prios = cfg.n_jobs
    # collective flows are latency-sensitive and recur every phase: start
    # them with linear start, no probe (§4.4)
    factory = CCFactory(mode, n_priorities=max(n_prios, 2), probe_tiers=())
    switch_cfg = factory.switch_config(buffer_bytes=32 * 1024 * 1024)
    net, hosts = leaf_spine(
        sim,
        n_leaves=cfg.n_leaves,
        hosts_per_leaf=cfg.hosts_per_leaf,
        n_spines=cfg.n_spines,
        host_rate_bps=cfg.host_rate_bps,
        oversubscription=cfg.oversubscription,
        link_delay_ns=cfg.link_delay_ns,
        switch_cfg=switch_cfg,
    )
    noise = paper_noise()

    def profile(base):
        scaled = scaled_model(base, cfg.model_scale)
        scaled.compute_ns = int(base.compute_ns * cfg.model_scale)
        return scaled

    jobs: List[Tuple[str, TrainingJob]] = []
    profiles = [("resnet", profile(RESNET50))] * cfg.n_resnet
    profiles += [("vgg", profile(VGG16))] * cfg.n_vgg
    fid = 1
    for j, (family, profile) in enumerate(profiles):
        # job index = priority group: ResNet jobs come first and take the
        # higher priorities (paper: 4 higher to ResNet)
        ring = _ring_hosts(cfg, hosts, j)

        def cc_factory(flow: Flow, group=j):
            return factory.make(flow, group)

        job = TrainingJob(
            sim,
            net,
            ring,
            profile,
            cc_factory,
            flow_id_start=fid,
            priority=factory.data_priority(j),
            vpriority=factory.vpriority(j),
            noise=noise,
        )
        fid += 1_000_000
        jobs.append((family, job))

    sim.run(until=cfg.duration_ns)
    for _, job in jobs:
        job.stop()

    per_family: Dict[str, List[float]] = {}
    for family, job in jobs:
        per_family.setdefault(family, []).append(job.iterations_in_window(cfg.duration_ns))
    return {
        "mode": mode,
        "iters_per_job": {
            fam: sum(v) / len(v) for fam, v in per_family.items()
        },
        "total_iters": sum(sum(v) for v in per_family.values()),
    }


def mltrain_point(mode: str, seed: int) -> dict:
    return run_mltrain_mode(mode, MlTrainConfig(seed=seed))


def mltrain_speedups(results: Mapping[str, dict]) -> Dict[str, object]:
    """Per-family and overall iteration speedups over the Swift baseline."""
    base = results[Mode.SWIFT]
    speedups: Dict[str, Dict[str, float]] = {}
    for mode, res in results.items():
        if mode == Mode.SWIFT:
            continue
        per = {}
        for fam, iters in res["iters_per_job"].items():
            base_iters = base["iters_per_job"].get(fam, 0.0)
            per[fam] = iters / base_iters if base_iters > 0 else float("nan")
        per["overall"] = (
            res["total_iters"] / base["total_iters"] if base["total_iters"] > 0 else float("nan")
        )
        speedups[mode] = per
    return {"baseline": base, "speedups": speedups}


register(
    FunctionExperiment(
        "fig12c",
        # baseline first, then the compared modes
        {
            mode: (mltrain_point, {"mode": mode, "seed": 11})
            for mode in (Mode.SWIFT, Mode.PRIOPLUS, Mode.PHYSICAL)
        },
        description="ML-training iteration speedups in a shared cluster",
        reduce_fn=mltrain_speedups,
    )
)
