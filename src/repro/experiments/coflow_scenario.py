"""Coflow-scheduling scenario (Figs 12a, 12b, 15, 17, 18).

Cluster-computing traffic on a non-blocking multi-rack fabric: a 1:1 load
mix of shuffle coflows (synthetic Facebook-Hadoop shape) and file-request
incasts.  Jobs are sorted into 8 priority groups by total size (smaller =
higher priority).  The metric is the per-coflow **speedup ratio** of CCT
against the no-priority Swift baseline, reported for the high four and low
four priority groups, overall, and at the tail (p99, Fig 15).

Fig 17 re-runs the 70 % load point with PFC off and IRN-style loss recovery;
Fig 18 adds HPCC and Physical w/o CC.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Tuple

from ..analysis.fct import percentile
from ..coflow import CoflowTracker, assign_coflow_groups
from ..noise import paper_noise
from ..sim.engine import MICROSECOND, Simulator
from ..topology import multi_rack
from ..workloads import CoflowSpec, FlowSpec, synthesize_coflows
from .launch import FlowAdmitter, launch_specs, run_admitter, run_until_flows_done
from .modes import CCFactory
from .paper_scale import paper_topology

__all__ = ["CoflowConfig", "build_workload", "run_coflow_mode", "speedup_summary"]

N_GROUPS = 8
#: payload bytes per packet
_MTU = 1000


class CoflowConfig:
    """Scale knobs for the coflow scenario (``fig12_coflow``'s presets set
    every one)."""

    def __init__(
        self,
        n_racks: int,
        hosts_per_rack: int,
        host_rate_bps: float,
        core_rate_bps: float,
        load: float,
        duration_ns: int,
        mean_flow_bytes: int,
        request_fanout: int,
        request_piece_bytes: int,
        seed: int,
        link_delay_ns: int,
        lossy: bool = False,
    ):
        self.n_racks = n_racks
        self.hosts_per_rack = hosts_per_rack
        self.host_rate_bps = host_rate_bps
        self.core_rate_bps = core_rate_bps
        self.load = load
        self.duration_ns = duration_ns
        self.mean_flow_bytes = mean_flow_bytes
        self.request_fanout = request_fanout
        self.request_piece_bytes = request_piece_bytes
        self.seed = seed
        self.link_delay_ns = link_delay_ns
        #: PFC off and IRN-style loss recovery (Fig 17)
        self.lossy = lossy

    @property
    def n_hosts(self) -> int:
        return self.n_racks * self.hosts_per_rack


def build_workload(cfg: CoflowConfig) -> Tuple[List[CoflowSpec], Dict[int, int]]:
    """Coflows + file-request jobs (as coflows) filling the byte budget 1:1."""
    rng = random.Random(cfg.seed)
    budget = int(cfg.load * cfg.n_hosts * cfg.host_rate_bps * cfg.duration_ns / 8e9)
    half = budget // 2

    shuffle: List[CoflowSpec] = []
    total = 0
    next_id = 0
    while total < half:
        batch = synthesize_coflows(
            rng,
            cfg.n_hosts,
            n_coflows=8,
            duration_ns=cfg.duration_ns,
            mean_flow_bytes=cfg.mean_flow_bytes,
        )
        for c in batch:
            c.coflow_id = next_id
            for fl in c.flows:
                fl.tag = ("coflow", next_id)
            next_id += 1
            shuffle.append(c)
            total += c.total_bytes
            if total >= half:
                break

    requests: List[CoflowSpec] = []
    total_req = 0
    while total_req < half:
        t = rng.randrange(max(1, cfg.duration_ns))
        dst = rng.randrange(cfg.n_hosts)
        sources = rng.sample([h for h in range(cfg.n_hosts) if h != dst], cfg.request_fanout)
        flows = [
            FlowSpec(s, dst, cfg.request_piece_bytes, t, tag=("coflow", next_id))
            for s in sources
        ]
        requests.append(CoflowSpec(next_id, flows, t))
        next_id += 1
        total_req += cfg.request_fanout * cfg.request_piece_bytes

    jobs = shuffle + requests
    groups = assign_coflow_groups(jobs, N_GROUPS)
    return jobs, groups


def run_coflow_mode(
    mode: str,
    cfg: CoflowConfig,
    jobs: List[CoflowSpec],
    groups: Dict[int, int],
    paper_scale: bool,
) -> Dict[int, int]:
    """Run one mode over a pre-built workload; returns coflow_id -> CCT ns.

    ``paper_scale`` swaps the :func:`multi_rack` fabric for
    :func:`repro.topology.paper_fabric` (``cfg.n_hosts`` must match the
    fabric's host count, since the workload indexes into it), admits
    senders in stages sorted by start time (:class:`FlowAdmitter`) so the
    live-object count tracks concurrent flows on multi-second traces, and
    attaches a hybrid driver.  CCT bookkeeping is identical on every path:
    the tracker observes receiver-side flow completions.
    """
    sim = Simulator(cfg.seed)
    factory = CCFactory(mode, n_priorities=N_GROUPS)
    link_bdp = cfg.host_rate_bps * 1000 / 8e9
    switch_cfg = factory.switch_config(
        buffer_bytes=32 * 1024 * 1024,  # §6.2: 32 MB to not starve physical prio
        headroom_per_port_per_prio=int(2 * link_bdp + 5 * _MTU),
        pfc_enabled=not cfg.lossy,
    )
    if paper_scale:
        net, hosts = paper_topology(cfg.host_rate_bps, cfg.link_delay_ns)(sim, switch_cfg)
        if len(hosts) != cfg.n_hosts:
            raise ValueError(
                f"topology provides {len(hosts)} hosts but the workload was "
                f"built for cfg.n_hosts={cfg.n_hosts}"
            )
    else:
        net, hosts = multi_rack(
            sim,
            n_racks=cfg.n_racks,
            hosts_per_rack=cfg.hosts_per_rack,
            host_rate_bps=cfg.host_rate_bps,
            core_rate_bps=cfg.core_rate_bps,
            link_delay_ns=cfg.link_delay_ns,
            switch_cfg=switch_cfg,
        )
    tracker = CoflowTracker()
    specs: List[FlowSpec] = []
    for job in jobs:
        tracker.register(job.coflow_id, job.start_ns, len(job.flows))
        specs.extend(job.flows)

    group_of = lambda s: groups[s.tag[1]]  # noqa: E731
    sender_kw = dict(mtu=_MTU, noise=paper_noise(), on_receive_done=tracker.on_flow_done)
    driver = None
    if paper_scale:
        from ..fluid import HybridDriver

        specs.sort(key=lambda s: s.start_ns)  # admitter contract
        admitter = FlowAdmitter(sim, net, specs, hosts, factory, group_of, **sender_kw)
        drive = partial(run_admitter, sim, admitter)
        driver = HybridDriver(sim, net)
    else:
        rto_ns = 100 * MICROSECOND if cfg.lossy else None
        flows, _ = launch_specs(
            sim, net, specs, hosts, factory, group_of, rto_ns=rto_ns, **sender_kw
        )
        drive = partial(run_until_flows_done, sim, flows)
    drive(cfg.duration_ns * 50, driver=driver)
    return tracker.all_ccts()


def speedup_summary(
    base_cct: Dict[int, int], cct: Dict[int, int], groups: Dict[int, int]
) -> Dict[str, float]:
    """Mean/p99 speedup overall and split into high-4 / low-4 groups."""
    common = [cid for cid in base_cct if cid in cct]
    if not common:
        return {"overall": float("nan")}
    ratios = {cid: base_cct[cid] / cct[cid] for cid in common}
    all_r = list(ratios.values())
    hi = [r for cid, r in ratios.items() if groups[cid] < N_GROUPS // 2]
    lo = [r for cid, r in ratios.items() if groups[cid] >= N_GROUPS // 2]
    result = {
        "overall": sum(all_r) / len(all_r),
        "overall_p99_slowdown": percentile([1.0 / r for r in all_r], 99),
        "completed": len(common),
    }
    if hi:
        result["high4"] = sum(hi) / len(hi)
    if lo:
        result["low4"] = sum(lo) / len(lo)
    return result
